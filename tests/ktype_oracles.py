"""Independent K-type oracles that the tests pin the closed formulas of ``ktypes`` against.

``inverse_joint_harmonics`` parses a K'-type back into the orthogonal
type it matches, and ``fock_degree_oracle`` recomputes the Fock degree
of a small O(p) x O(q) type from weight multiplicities on polynomial
spaces, independently of ``ktypes.degree_o``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from mp4spectrum.ktypes import KTypeMp, KTypeO, NotInHarmonics, Sign, joint_harmonics


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
