"""Archimedean K-type arithmetic for the rank-2 metaplectic group.

Compact types are parameterized by highest weights: O(p) x O(q) types as
(a_1 >= ... >= a_{[p/2]} >= 0; eps) x (b_1 >= ... ; delta), genuine
types of the metaplectic U(2)-cover as weakly decreasing vectors of
half-odd integers (the parameterization is pinned to the additive
character).

Three calculators live here:

  degree_o          Fock-model degree of an orthogonal K-type:
                    sum(a) + sum(b) + k' + l', where k' is 0 for eps = +1
                    and p - 2k for eps = -1 (l' likewise with q, l);
  joint_harmonics   the matching metaplectic K'-type inside the space of
                    joint harmonics, defined when k + k' + l + l' <= n,
                    with shift (p - q)/2 on every coordinate;
  lowest K'-types   the catalog for (limits of) discrete series
                    (a >= b > 0) and for the nontempered Langlands
                    quotients through P1, P2 and the Borel.

A brute-force oracle recomputes Fock degrees for small O(m) directly
from weight multiplicities on polynomial spaces; the acceptance suite
pins the closed formula against it.  Everything is exact: half-integers
are Fractions, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .record import Record

Sign = int
HALF = Fraction(1, 2)


class NotInHarmonics(ValueError):
    pass


class UncataloguedShape(ValueError):
    pass


def _check_weights(ws: Sequence[int]) -> None:
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    if any(ws[i] < ws[i + 1] for i in range(len(ws) - 1)):
        raise ValueError("weights must be weakly decreasing")


class KTypeO(Record):
    """Irreducible O(p) x O(q) type by highest weights; p + q odd."""

    p: int
    q: int
    a: tuple
    eps: Sign
    b: tuple
    delta: Sign

    def __post_init__(self) -> None:
        if (self.p + self.q) % 2 == 0:
            raise ValueError("p + q must be odd")
        if len(self.a) != self.p // 2 or len(self.b) != self.q // 2:
            raise ValueError("weight vector lengths must be [p/2] and [q/2]")
        _check_weights(self.a)
        _check_weights(self.b)
        # on O(even) with all weights positive the two extensions coincide
        object.__setattr__(self, "eps", self._normalize(self.p, self.a, self.eps))
        object.__setattr__(self, "delta", self._normalize(self.q, self.b, self.delta))

    @staticmethod
    def _normalize(m: int, ws: tuple, e: Sign) -> Sign:
        if m == 0:
            return 1
        if m % 2 == 0 and len(ws) == m // 2 and ws and ws[-1] > 0:
            return 1
        return e

    @property
    def k(self) -> int:
        return sum(1 for w in self.a if w > 0)

    @property
    def l(self) -> int:
        return sum(1 for w in self.b if w > 0)

    @property
    def k_prime(self) -> int:
        return 0 if self.eps == 1 else self.p - 2 * self.k

    @property
    def l_prime(self) -> int:
        return 0 if self.delta == 1 else self.q - 2 * self.l


class KTypeMp(Record):
    """Genuine K'-type of the metaplectic cover of Sp(2n, R)."""

    weights: tuple  # Fractions in Z + 1/2, weakly decreasing

    def __post_init__(self) -> None:
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        for w in ws:
            if (w - HALF).denominator != 1:
                raise ValueError(f"weight {w} is not a half-odd integer")
        if any(ws[i] < ws[i + 1] for i in range(len(ws) - 1)):
            raise ValueError("weights must be weakly decreasing")

    def degree(self, p: int, q: int) -> int:
        shift = Fraction(p - q, 2)
        total = 0
        for w in self.weights:
            x = w - shift
            if x.denominator != 1:
                raise ValueError("weight does not lie over the given signature")
            total += abs(int(x))
        return total


def degree_o(mu: KTypeO) -> int:
    """Fock degree of an orthogonal K-type; independent of the symplectic rank."""
    return sum(mu.a) + sum(mu.b) + mu.k_prime + mu.l_prime


def joint_harmonics(mu: KTypeO, n: int) -> KTypeMp:
    """The K'-type matched with mu in the joint harmonics of signature (p, q), rank n."""
    k, l = mu.k, mu.l
    kp, lp = mu.k_prime, mu.l_prime
    if k + kp + l + lp > n:
        raise NotInHarmonics(f"k + k' + l + l' = {k + kp + l + lp} exceeds n = {n}")
    body = (
        list(mu.a[:k])
        + [1] * kp
        + [0] * (n - k - kp - l - lp)
        + [-1] * lp
        + [-w for w in reversed(mu.b[:l])]
    )
    shift = Fraction(mu.p - mu.q, 2)
    return KTypeMp(tuple(Fraction(x) + shift for x in body))


def inverse_joint_harmonics(mu_prime: KTypeMp, p: int, q: int) -> KTypeO:
    """The orthogonal K-type matching a given K'-type, for signature (p, q).

    Parses the shifted weight vector against both extension branches and
    verifies the round trip; the two branches can only meet at types the
    O(even) normalization identifies.
    """
    n = len(mu_prime.weights)
    shift = Fraction(p - q, 2)
    body = []
    for w in mu_prime.weights:
        x = w - shift
        if x.denominator != 1:
            raise NotInHarmonics("weights do not lie over this signature")
        body.append(int(x))
    found = set()
    p0, q0 = p // 2, q // 2
    for k in range(0, p0 + 1):
        for eps in (1, -1):
            kp = 0 if eps == 1 else p - 2 * k
            for l in range(0, q0 + 1):
                for delta in (1, -1):
                    lp = 0 if delta == 1 else q - 2 * l
                    if k + kp + l + lp > n:
                        continue
                    a = body[:k]
                    rest = body[k:]
                    if any(x <= 0 for x in a):
                        continue
                    if rest[:kp] != [1] * kp:
                        continue
                    mid = rest[kp:]
                    bpart = mid[len(mid) - l:] if l else []
                    zeros_and_lp = mid[: len(mid) - l]
                    if zeros_and_lp[len(zeros_and_lp) - lp:] != [-1] * lp:
                        continue
                    if any(x != 0 for x in zeros_and_lp[: len(zeros_and_lp) - lp]):
                        continue
                    b = [-x for x in reversed(bpart)]
                    if any(x <= 0 for x in b):
                        continue
                    try:
                        cand = KTypeO(
                            p, q,
                            tuple(a) + (0,) * (p0 - k), eps,
                            tuple(b) + (0,) * (q0 - l), delta,
                        )
                    except ValueError:
                        continue
                    if joint_harmonics(cand, n) == mu_prime:
                        found.add(cand)
    if not found:
        raise NotInHarmonics(f"no orthogonal type of signature ({p},{q}) matches {mu_prime}")
    if len(found) > 1:
        raise NotInHarmonics(f"ambiguous parse for {mu_prime}: {found}")
    return found.pop()


# ---------------------------------------------------------------------------
# brute-force Fock-degree oracle for small orthogonal groups


def _compositions(total: int, parts: int) -> int:
    if total < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    return comb(total + parts - 1, parts - 1)


def _so2_weight_multiplicity(w: int, d: int, n: int) -> int:
    # monomials in u_1..u_n (weight +1) and v_1..v_n (weight -1)
    if (d + w) % 2 or abs(w) > d:
        return 0
    x, y = (d + w) // 2, (d - w) // 2
    return _compositions(x, n) * _compositions(y, n)


def _o2_multiplicity(a: int, eps: Sign, d: int, n: int) -> int:
    if a > 0:
        return _so2_weight_multiplicity(a, d, n)
    m0 = _so2_weight_multiplicity(0, d, n)
    fixed = _compositions(d // 2, n) if d % 2 == 0 else 0  # reflection-fixed monomials
    return (m0 + fixed) // 2 if eps == 1 else (m0 - fixed) // 2


def _o3_multiplicity(b: int, delta: Sign, d: int, n: int) -> int:
    # in the (b; delta) parametrization, -1 in O(3) acts by delta (-1)^b,
    # and it scales degree-d polynomials by (-1)^d
    central = delta * (-1 if b % 2 else 1)
    if central != (1 if d % 2 == 0 else -1):
        return 0

    def mw(w: int) -> int:
        total = 0
        for dz in range(d + 1):
            r = d - dz
            if (r + w) % 2 or abs(w) > r:
                continue
            x, y = (r + w) // 2, (r - w) // 2
            total += _compositions(dz, n) * _compositions(x, n) * _compositions(y, n)
        return total

    return mw(b) - mw(b + 1)


def _o1_multiplicity(eps: Sign, d: int, n: int) -> int:
    if n == 0:
        return 1 if (d == 0 and eps == 1) else 0
    if eps == (1 if d % 2 == 0 else -1):
        return _compositions(d, n)
    return 0


def fock_min_degree(m: int, weights: tuple, eps: Sign, n: int, dmax: int = 40) -> int | None:
    """Smallest degree where the O(m)-type occurs in polynomials on m x n matrices."""
    def mult(d: int) -> int:
        if m == 0:
            return 1 if d == 0 else 0
        if m == 1:
            return _o1_multiplicity(eps, d, n)
        if m == 2:
            return _o2_multiplicity(weights[0], eps, d, n)
        if m == 3:
            return _o3_multiplicity(weights[0], eps, d, n)
        raise ValueError("oracle supports m <= 3")

    for d in range(dmax + 1):
        if mult(d) > 0:
            return d
    return None


def fock_degree_oracle(mu: KTypeO, n: int) -> int | None:
    """Independent Fock degree: the polynomial space factors over the two blocks."""
    dp = fock_min_degree(mu.p, mu.a, mu.eps, n)
    dq = fock_min_degree(mu.q, mu.b, mu.delta, n)
    if dp is None or dq is None:
        return None
    return dp + dq


# ---------------------------------------------------------------------------
# lowest K'-type catalog


def lowest_kprime_discrete(a: Fraction, b: Fraction, eps1: Sign, eps2: Sign) -> tuple[Fraction, Fraction]:
    """Lowest K'-type of the (limit of) discrete series member labeled (eps1, eps2).

    The parameter is the pair a >= b > 0 of half-odd integers; at a = b
    only the diagonal labels index members.
    """
    a, b = Fraction(a), Fraction(b)
    if a < b or b <= 0 or (a - HALF).denominator != 1 or (b - HALF).denominator != 1:
        raise UncataloguedShape("need half-odd integers a >= b > 0")
    if a == b:
        if eps1 != eps2:
            raise UncataloguedShape("mixed labels index no member when a = b")
        return (a + 1, -a) if eps1 == 1 else (a, -a - 1)
    table = {
        (1, 1): (a + 1, -b),
        (1, -1): (a + 1, b + 2),
        (-1, 1): (-b - 2, -a - 1),
        (-1, -1): (b, -a - 1),
    }
    return table[(eps1, eps2)]


class DiscreteSeriesQuery(Record):
    a: Fraction
    b: Fraction
    eps1: Sign
    eps2: Sign


class LanglandsP1Query(Record):
    """J_{P1,psi}(chi|.|^s, D~_{a,psi}) with s > 0."""

    chi_parity: Sign
    a: Fraction
    s: Fraction


class LanglandsP2Query(Record):
    """J_{P2,psi}(D_a |det|^s) with a > 0 and Re s > 0."""

    a: Fraction
    s: Fraction


class LanglandsBQuery(Record):
    """J_{B,psi}(chi_1|.|^{s_1}, chi_2|.|^{s_2}) with s_1 > 0, s_1 >= s_2 >= 0."""

    eps1: Sign
    eps2: Sign


def lowest_kprime_catalog(query) -> list[KTypeMp]:
    """Lowest K'-types of the cataloged tempered and nontempered shapes."""
    if isinstance(query, DiscreteSeriesQuery):
        return [KTypeMp(lowest_kprime_discrete(query.a, query.b, query.eps1, query.eps2))]
    if isinstance(query, LanglandsP1Query):
        a = Fraction(query.a)
        if query.s <= 0 or a == 0 or (a - HALF).denominator != 1:
            raise UncataloguedShape("need s > 0 and a half-odd nonzero weight")
        if a > 0:
            w = (a + 1, HALF) if query.chi_parity == 1 else (a + 1, Fraction(3, 2))
        else:
            w = (Fraction(-3, 2), a - 1) if query.chi_parity == 1 else (-HALF, a - 1)
        return [KTypeMp(tuple(map(Fraction, w)))]
    if isinstance(query, LanglandsP2Query):
        a = Fraction(query.a)
        if query.s <= 0 or a <= 0 or (2 * a).denominator != 1:
            raise UncataloguedShape("need a > 0 in Z/2 and Re s > 0")
        if a.denominator == 1:
            return [KTypeMp((a + HALF, -a - HALF))]
        return [KTypeMp((a + 1, -a)), KTypeMp((a, -a - 1))]
    if isinstance(query, LanglandsBQuery):
        if (query.eps1, query.eps2) == (1, 1):
            return [KTypeMp((HALF, HALF))]
        if (query.eps1, query.eps2) == (-1, -1):
            return [KTypeMp((-HALF, -HALF))]
        return [KTypeMp((HALF, -HALF))]
    raise UncataloguedShape(f"no catalog entry for {query!r}")
