"""Symbolic calculator for the automorphic discrete spectrum of Mp(4)."""

from .fields import GlobalElement, Place, SquareClass, chi_minus_one, hilbert, validate_reciprocity
from .parameters import AParameter, CuspidalDatum, ParamType, classify, component_group, epsilon_tilde
from .localization import localize
from .packets import local_packet, reducibility_oracle, shimura_correspondence, shimura_row
from .multiplicity import brute_force_count, diagonal_pullback, enumerate_constituents, multiplicity
from .ktypes import KTypeMp, KTypeO, degree_o, joint_harmonics, lowest_kprime_catalog
from .residual import Mp2CuspidalWeil, residual_spectrum
from .scenario import Scenario, load_scenario, scenario_from_dict

__version__ = "0.1.0"

__all__ = [
    "AParameter",
    "CuspidalDatum",
    "GlobalElement",
    "KTypeMp",
    "KTypeO",
    "Mp2CuspidalWeil",
    "ParamType",
    "Place",
    "Scenario",
    "SquareClass",
    "brute_force_count",
    "chi_minus_one",
    "classify",
    "component_group",
    "degree_o",
    "diagonal_pullback",
    "enumerate_constituents",
    "epsilon_tilde",
    "hilbert",
    "joint_harmonics",
    "load_scenario",
    "local_packet",
    "localize",
    "lowest_kprime_catalog",
    "multiplicity",
    "reducibility_oracle",
    "residual_spectrum",
    "scenario_from_dict",
    "shimura_correspondence",
    "shimura_row",
    "validate_reciprocity",
]
