"""The third counting route: the character sum of the benchmark's oracle.

``perfbench/oracle.py`` counts constituents by the character sum over
S_phi, built only from ``localize``, ``local_packet`` and
``epsilon_tilde``.  It is loaded here by path, unchanged, and must agree
with ``enumerate_constituents`` on the fixtures and on random parameters
of every family.  The attributes it reads are pinned below, so a change
to their types shows here rather than in a benchmark run.
"""

import importlib.util
import os
import random

import pytest

from mp4spectrum.localization import localize
from mp4spectrum.multiplicity import enumerate_constituents
from mp4spectrum.packets import local_packet
from mp4spectrum.parameters import epsilon_tilde
from mp4spectrum.scenario import load_scenario

from conftest import PTYPES, random_scenario_parameter
from golden_calls import FIXTURE_NAMES

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", os.path.join(ROOT, "perfbench", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def _assert_routes_agree(phi, places):
    assert oracle.character_sum_count(phi, places) == len(enumerate_constituents(phi, places))
    assert oracle.character_sum_count(phi, places, nonzero_only=False) == len(
        enumerate_constituents(phi, places, include_vanishing=True)
    )


def _assert_oracle_attributes(phi, places):
    eps = epsilon_tilde(phi).values
    assert type(eps) is tuple and all(type(v) is int and v in (1, -1) for v in eps)
    for place in places:
        lp, group, iota = localize(phi, place)
        assert type(group.basis) is tuple and all(type(b) is str for b in group.basis)
        assert type(iota.rows) is tuple and len(iota.rows) == len(eps)
        for row in iota.rows:
            assert type(row) is tuple and len(row) == len(group.basis) and set(row) <= {0, 1}
        for e in local_packet(lp):
            assert type(e.is_zero) is bool
            values = e.label.values
            assert type(values) is tuple and len(values) == len(group.basis)
            assert all(type(v) is int and v in (1, -1) for v in values)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_character_sum_matches_enumeration_on_fixtures(name):
    sc = load_scenario(os.path.join(ROOT, "fixtures", f"{name}.json"))
    sc.validate()
    _assert_oracle_attributes(sc.parameter, sc.places)
    _assert_routes_agree(sc.parameter, sc.places)


@pytest.mark.parametrize("ptype", PTYPES)
def test_character_sum_matches_enumeration_on_random_parameters(ptype):
    rng = random.Random(f"character-sum-{ptype}")
    for _ in range(10):
        places, _, phi = random_scenario_parameter(rng, ptype)
        _assert_oracle_attributes(phi, places)
        _assert_routes_agree(phi, places)
