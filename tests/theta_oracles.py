"""Sign rules of the rank-1 theta construction that the packet tests check directly.

``sk_quaternion_data`` and ``hps_quaternion_data`` give the (eps, eps')
attached to a Saito-Kurokawa or Howe-PS label, and
``theta_o3_nonvanishing`` the nonvanishing criterion of the theta lift of
an O(V_1^eps) representation.  No packet table reads them, so they live
beside the tests rather than in ``mp4spectrum.packets``.
"""

from __future__ import annotations

from mp4spectrum.fields import Sign


def sk_quaternion_data(
    eps1: Sign,
    eps2: Sign,
    eps_rho: Sign,
    eps_rho_twist: Sign,
    chi_a_minus_one: Sign,
    rho_reducible: bool = False,
) -> tuple[Sign, Sign]:
    """(eps, eps') attached to a Saito-Kurokawa label (eps1, eps2).

    eps  = eps1 . eps(1/2,rho) . eps(1/2,rho x chi_a) . chi_a(-1)
    eps' = eps1 . eps2 . eps(1/2,rho) . chi_a(-1)

    For reducible rho the three sign factors in eps cancel and eps = eps1.
    """
    if rho_reducible:
        eps = eps1
    else:
        eps = eps1 * eps_rho * eps_rho_twist * chi_a_minus_one
    eps_prime = eps1 * eps2 * eps_rho * chi_a_minus_one
    return eps, eps_prime


def hps_quaternion_data(eps1: Sign, eps2: Sign, chi_ab_minus_one: Sign) -> tuple[Sign, Sign]:
    """(eps, eps') attached to a Howe-PS label: eps = eps2, eps' = eps1 eps2 chi_ab(-1)."""
    return eps2, eps1 * eps2 * chi_ab_minus_one


def theta_o3_nonvanishing(
    target_rank: int,
    *,
    sigma_is_det: bool,
    sigma_minus_one: Sign = 1,
    space_eps: Sign = 1,
    root_number: Sign = 1,
) -> bool:
    """Nonvanishing of the theta lift of an O(V_1^eps) representation.

    Rank 2 is the conservation-relation criterion (everything but det
    survives); rank 1 is the dichotomy sigma(-1) = eps . eps(1/2, sigma).
    """
    if target_rank == 2:
        return not sigma_is_det
    if target_rank == 1:
        return sigma_minus_one == space_eps * root_number
    raise ValueError("target rank must be 1 or 2")
