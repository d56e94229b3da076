"""Archimedean K-type arithmetic against the displayed values and the Fock oracle."""

import itertools
from fractions import Fraction

import pytest

from mp4spectrum.ktypes import (
    DiscreteSeriesQuery,
    KTypeMp,
    KTypeO,
    LanglandsBQuery,
    LanglandsP1Query,
    LanglandsP2Query,
    NotInHarmonics,
    UncataloguedShape,
    degree_o,
    joint_harmonics,
    lowest_kprime_catalog,
    lowest_kprime_discrete,
)

from ktype_oracles import fock_degree_oracle, fock_min_degree, inverse_joint_harmonics

H = Fraction(1, 2)


def O21(a, eps, delta):
    return KTypeO(2, 1, (a,), eps, (), delta)


def O03(b, delta):
    return KTypeO(0, 3, (), 1, (b,), delta)


# ---------------------------------------------------------------------------
# degrees


def test_degree_principal_series_triple():
    # the three lowest K-types of the rank-1 induction: degrees 0, 1, 2
    assert degree_o(O21(0, 1, 1)) == 0
    assert degree_o(O21(0, 1, -1)) == 1
    assert degree_o(O21(0, -1, 1)) == 2


def test_degree_degenerate_double_minus():
    # k = l = 0 with both extensions -1: k' = p and l' = q
    assert degree_o(O21(0, -1, -1)) == 3


def test_degree_discrete_series_types():
    for kappa in (1, 2, 5):
        assert degree_o(O21(kappa, 1, 1)) == kappa
        assert degree_o(O21(kappa, 1, -1)) == kappa + 1
        assert degree_o(O03(kappa - 1, 1)) == kappa - 1
        if kappa > 1:
            assert degree_o(O03(kappa - 1, -1)) == kappa  # l' = 3 - 2 = 1


def test_degree_independent_of_rank_inputs():
    # the formula consumes only (p, q, a, b, eps, delta)
    mu = O21(4, 1, -1)
    assert degree_o(mu) == 5


def test_o_even_extension_normalization():
    # on O(2) a positive weight admits one representation; both labels agree
    assert O21(3, 1, 1) == O21(3, -1, 1)
    assert degree_o(O21(3, 1, 1)) == degree_o(O21(3, -1, 1))


# ---------------------------------------------------------------------------
# joint harmonics


def test_harmonics_principal_series_values():
    assert joint_harmonics(O21(0, 1, 1), 2).weights == (H, H)
    assert joint_harmonics(O21(0, 1, -1), 2).weights == (H, -H)
    assert joint_harmonics(O21(0, -1, 1), 2).weights == (Fraction(3, 2), Fraction(3, 2))


def test_harmonics_discrete_series_values():
    kappa = 3
    assert joint_harmonics(O21(kappa, 1, 1), 2).weights == (kappa + H, H)
    assert joint_harmonics(O03(kappa - 1, 1), 2).weights == (Fraction(-3, 2), -kappa - H)
    assert joint_harmonics(O21(kappa, 1, -1), 2).weights == (kappa + H, -H)
    assert joint_harmonics(O03(kappa - 1, -1), 2).weights == (Fraction(-5, 2), -kappa - H)


def test_harmonics_side_condition():
    with pytest.raises(NotInHarmonics):
        joint_harmonics(O21(0, -1, -1), 2)  # k' + l' = 3 > 2
    # but with n = 3 it exists
    assert joint_harmonics(O21(0, -1, -1), 3).weights == (Fraction(3, 2), Fraction(3, 2), -H)


def test_harmonics_round_trip():
    count = 0
    for p, q in ((2, 1), (0, 3), (1, 2), (3, 0)):
        p0, q0 = p // 2, q // 2
        for a in itertools.product(range(4), repeat=p0):
            for b in itertools.product(range(4), repeat=q0):
                for eps, delta in itertools.product((1, -1), repeat=2):
                    try:
                        mu = KTypeO(p, q, a, eps, b, delta)
                    except ValueError:
                        continue
                    for n in (2, 3):
                        try:
                            mp = joint_harmonics(mu, n)
                        except NotInHarmonics:
                            continue
                        assert inverse_joint_harmonics(mp, p, q) == mu
                        count += 1
    assert count > 40


def test_harmonics_degree_match():
    for p, q in ((2, 1), (0, 3)):
        p0, q0 = p // 2, q // 2
        for a in itertools.product(range(3), repeat=p0):
            for b in itertools.product(range(3), repeat=q0):
                for eps, delta in itertools.product((1, -1), repeat=2):
                    mu = KTypeO(p, q, a, eps, b, delta)
                    try:
                        mp = joint_harmonics(mu, 3)
                    except NotInHarmonics:
                        continue
                    assert mp.degree(p, q) == degree_o(mu)


# ---------------------------------------------------------------------------
# Fock-model oracle


def test_fock_oracle_agrees_with_formula():
    checked = 0
    for p, q in ((1, 0), (0, 1), (2, 1), (1, 2), (0, 3), (3, 0)):
        p0, q0 = p // 2, q // 2
        for a in itertools.product(range(3), repeat=p0):
            for b in itertools.product(range(3), repeat=q0):
                for eps, delta in itertools.product((1, -1), repeat=2):
                    mu = KTypeO(p, q, a, eps, b, delta)
                    oracle = fock_degree_oracle(mu, n=2)
                    if oracle is None:
                        continue  # type does not occur at this rank
                    assert oracle == degree_o(mu), (mu, oracle, degree_o(mu))
                    checked += 1
    assert checked >= 30


def test_fock_oracle_occurrence_needs_rank():
    # (0; -1) on O(2) needs two columns of variables
    assert fock_min_degree(2, (0,), -1, n=1) is None
    assert fock_min_degree(2, (0,), -1, n=2) == 2


# ---------------------------------------------------------------------------
# lowest K'-type catalog


def test_catalog_discrete_series():
    a, b = Fraction(5, 2), Fraction(3, 2)
    assert lowest_kprime_discrete(a, b, 1, 1) == (Fraction(7, 2), Fraction(-3, 2))
    assert lowest_kprime_discrete(a, b, 1, -1) == (Fraction(7, 2), Fraction(7, 2))
    assert lowest_kprime_discrete(a, b, -1, 1) == (Fraction(-7, 2), Fraction(-7, 2))
    assert lowest_kprime_discrete(a, b, -1, -1) == (Fraction(3, 2), Fraction(-7, 2))


def test_catalog_limit_case():
    a = Fraction(3, 2)
    assert lowest_kprime_discrete(a, a, 1, 1) == (Fraction(5, 2), Fraction(-3, 2))
    assert lowest_kprime_discrete(a, a, -1, -1) == (Fraction(3, 2), Fraction(-5, 2))
    with pytest.raises(UncataloguedShape):
        lowest_kprime_discrete(a, a, 1, -1)


def test_catalog_langlands_p1():
    (kt,) = lowest_kprime_catalog(LanglandsP1Query(1, Fraction(3, 2), Fraction(1)))
    assert kt.weights == (Fraction(5, 2), H)
    (kt,) = lowest_kprime_catalog(LanglandsP1Query(-1, Fraction(3, 2), Fraction(1)))
    assert kt.weights == (Fraction(5, 2), Fraction(3, 2))
    (kt,) = lowest_kprime_catalog(LanglandsP1Query(1, Fraction(-3, 2), Fraction(1)))
    assert kt.weights == (Fraction(-3, 2), Fraction(-5, 2))
    (kt,) = lowest_kprime_catalog(LanglandsP1Query(-1, Fraction(-3, 2), Fraction(1)))
    assert kt.weights == (-H, Fraction(-5, 2))


def test_catalog_langlands_p2():
    kts = lowest_kprime_catalog(LanglandsP2Query(Fraction(2), H))
    assert [kt.weights for kt in kts] == [(Fraction(5, 2), Fraction(-5, 2))]
    kts = lowest_kprime_catalog(LanglandsP2Query(Fraction(3, 2), H))
    assert [kt.weights for kt in kts] == [
        (Fraction(5, 2), Fraction(-3, 2)),
        (Fraction(3, 2), Fraction(-5, 2)),
    ]


def test_catalog_langlands_b():
    assert lowest_kprime_catalog(LanglandsBQuery(1, 1))[0].weights == (H, H)
    assert lowest_kprime_catalog(LanglandsBQuery(1, -1))[0].weights == (H, -H)
    assert lowest_kprime_catalog(LanglandsBQuery(-1, 1))[0].weights == (H, -H)
    assert lowest_kprime_catalog(LanglandsBQuery(-1, -1))[0].weights == (-H, -H)


def test_catalog_rejects_bad_shapes():
    with pytest.raises(UncataloguedShape):
        lowest_kprime_catalog(LanglandsP2Query(Fraction(2), Fraction(0)))
    with pytest.raises(UncataloguedShape):
        lowest_kprime_catalog(LanglandsP1Query(1, Fraction(1), Fraction(1)))  # integral weight
    with pytest.raises(UncataloguedShape):
        lowest_kprime_catalog(object())


def test_ktype_mp_validation():
    with pytest.raises(ValueError):
        KTypeMp((Fraction(1), Fraction(1, 2)))  # not half-odd
    with pytest.raises(ValueError):
        KTypeMp((Fraction(1, 2), Fraction(3, 2)))  # increasing
