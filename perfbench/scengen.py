"""Seeded scenario generator for the in-process workloads.

Every scenario is built as a plain JSON document, valid by construction:

* a new element's classes are drawn uniformly from the solutions of its
  Hilbert-reciprocity constraints against every element declared before
  it (the constraints are F2-linear in the new element's bits), and the
  number of real plus dyadic places is kept even for the built-in -1;
* local shapes are chosen first and the global root numbers are set to
  the products the shapes force; ``l_half_nonzero`` is set only where the
  twisted root is +1;
* for ``enumerate`` scenarios the local component-group ranks are chosen
  so that the multiplicity-one tuple count hits a fixed power of two per
  slot; draws are repeated until that count and the share of tuples with
  no vanishing member both match the slot, as the character sum counts
  them before the program is ever run on the scenario.

The slot grids are fixed; the seed only draws place kinds, classes,
shapes and signs within a slot, so every seed asks for the same amount of
work per slot.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mp4spectrum.fields import Place, SquareClass, hilbert

NONARCH = ("nonarch-odd-1mod4", "nonarch-odd-3mod4", "nonarch-dyadic")
MINUS_ONE_PARITY_KINDS = ("real", "nonarch-dyadic")

# (family, places, log2 of the multiplicity-one tuple count, share of those
# tuples with no vanishing local member).  Fixing both counts fixes the
# enumeration and the output size of each slot; the shares below 1 keep the
# vanishing-member filter busy.
ENUMERATE_SLOTS = (
    ("principal", 6, 5, 1),
    ("principal", 7, 6, 1),
    ("principal", 8, 7, 1),
    ("principal", 9, 8, 1),
    ("saito-kurokawa", 6, 5, 1),
    ("saito-kurokawa", 6, 6, 0.75),
    ("saito-kurokawa", 7, 7, 0.75),
    ("saito-kurokawa", 8, 8, 1),
    ("howe-ps", 6, 6, 0.5),
    ("howe-ps", 6, 7, 0.5),
    ("howe-ps", 7, 7, 0.25),
    ("howe-ps", 7, 8, 0.25),
    ("soudry", 6, 5, 0.5),
    ("soudry", 8, 6, 1),
    ("soudry", 10, 7, 0.5),
    ("soudry", 12, 8, 0.5),
    ("tempered", 6, 5, 1),
    ("tempered", 8, 6, 1),
    ("tempered", 10, 7, 1),
    ("tempered", 13, 8, 1),
)

# Independent draws per slot: 100 inputs per workload, so that the latency
# quantiles over inputs do not sit in a gap between two slots and at least
# ten inputs lie beyond p90.
ENUMERATE_DRAWS = 5
RESIDUAL_DRAWS = 10

# Upper bound on multiplicity-one tuples per operation.  The program keeps
# every constituent in memory (a few KiB each), so a draw above this is a
# generator bug, never something to hand to the program.
TUPLE_BOUND = 4096

# One scenario at TUPLE_BOUND, run once per run in a fresh interpreter for
# peak_rss_mb: its constituents take about as much memory as the
# interpreter and the package, so memory per constituent shows in the peak.
MEMORY_SLOT = ("principal", 13, 12, 1)


# residual slots: (places, elements incl. "1" and "-1", flags per
# symplectic datum, irreducible places per datum)
RESIDUAL_SLOTS = (
    (4, 8, 2, 2),
    (4, 10, 2, 2),
    (4, 12, 1, 2),
    (4, 16, 1, 2),
    (5, 8, 2, 3),
    (5, 10, 2, 2),
    (5, 12, 1, 2),
    (6, 8, 2, 3),
    (6, 10, 1, 3),
    (7, 8, 1, 3),
)


# ---------------------------------------------------------------------------
# places and elements


def _places(rng: random.Random, n: int, allow_complex: bool) -> list[Place]:
    kinds = list(NONARCH) + ["real"] + (["complex"] if allow_complex else [])
    chosen = [rng.choice(kinds) for _ in range(n)]
    if sum(k in MINUS_ONE_PARITY_KINDS for k in chosen) % 2:
        # an odd count has at least one such place: make it an odd place
        for i, k in enumerate(chosen):
            if k in MINUS_ONE_PARITY_KINDS:
                chosen[i] = "nonarch-odd-1mod4"
                break
    return [Place(f"v{i}", k) for i, k in enumerate(chosen, start=1)]


def _label(place: Place, bits) -> str:
    return SquareClass(place, tuple(bits)).label


def _classes(place: Place) -> list[str]:
    return [c.label for c in place.square_classes()]


def _nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {x : popcount(row & x) even for every row}, rows as int masks."""
    pivots: dict[int, int] = {}
    for r in rows:
        for col, prow in pivots.items():
            if r >> col & 1:
                r ^= prow
        if not r:
            continue
        lead = r.bit_length() - 1
        for col in list(pivots):
            if pivots[col] >> lead & 1:
                pivots[col] ^= r
        pivots[lead] = r
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        x = 1 << free
        for col, prow in pivots.items():
            if prow >> free & 1:
                x |= 1 << col
        basis.append(x)
    return basis


class ElementPool:
    """Global elements of one scenario, with "1" and "-1" built in."""

    def __init__(self, places: list[Place]):
        self.places = places
        self.offsets = []
        width = 0
        for p in places:
            self.offsets.append(width)
            width += p.rank
        self.width = width
        self.bits = {
            "1": 0,
            "-1": self._pack({p.id: p.minus_one().bits for p in places}),
        }
        # row i: the places' Hilbert pairings of basis bit i, so that
        # (e_i, x) = (-1)^popcount(row_i & x)
        self._gram_rows = []
        for p, off in zip(places, self.offsets):
            basis = [SquareClass(p, tuple(int(j == i) for j in range(p.rank))) for i in range(p.rank)]
            for i, bi in enumerate(basis):
                row = 0
                for j, bj in enumerate(basis):
                    if hilbert(p, bi, bj) == -1:
                        row |= 1 << (off + j)
                self._gram_rows.append(row)

    def _pack(self, bits_by_pid: dict) -> int:
        x = 0
        for p, off in zip(self.places, self.offsets):
            for i, b in enumerate(bits_by_pid[p.id]):
                x |= b << (off + i)
        return x

    def local_bits(self, name: str, k: int) -> tuple:
        p, off = self.places[k], self.offsets[k]
        x = self.bits[name]
        return tuple(x >> (off + i) & 1 for i in range(p.rank))

    def label(self, name: str, k: int) -> str:
        return _label(self.places[k], self.local_bits(name, k))

    def _pairing_row(self, y: int) -> int:
        row = 0
        for i, g in enumerate(self._gram_rows):
            if y >> i & 1:
                row ^= g
        return row

    def add(self, rng: random.Random, name: str, support=None) -> str:
        """Draw a new element compatible with all existing ones.

        ``support``: indices of the places where it may be nontrivial.
        """
        rows = [self._pairing_row(y) for y in self.bits.values()]
        allowed = range(len(self.places)) if support is None else support
        for k in range(len(self.places)):
            if k not in allowed:
                for i in range(self.places[k].rank):
                    rows.append(1 << (self.offsets[k] + i))
        x = 0
        for b in _nullspace(rows, self.width):
            if rng.random() < 0.5:
                x ^= b
        self.bits[name] = x
        return name

    def differs(self, a: str, b: str) -> list[int]:
        return [k for k in range(len(self.places)) if self.local_bits(a, k) != self.local_bits(b, k)]

    def is_trivial(self, name: str) -> bool:
        return self.bits[name] == 0

    def json(self) -> list:
        return [
            {"name": n, "classes": {p.id: self.label(n, k) for k, p in enumerate(self.places)}}
            for n in self.bits
            if n not in ("1", "-1")
        ]


# ---------------------------------------------------------------------------
# local shapes and their signs


class Tags:
    def __init__(self):
        self.n = 0

    def __call__(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"


def _ps(rng: random.Random) -> dict:
    return {
        "shape": "principal-series",
        "chi": "mu",
        "s": str(Fraction(rng.choice((0, 1)), 4)),
        "chi_parity": rng.choice((1, -1)),
    }


def _irreducible_symplectic(rng: random.Random, place: Place, tags: Tags, steinberg_label=None) -> dict:
    """A symplectic shape with a local generator (an irreducible rho_v)."""
    if place.is_real:
        return {"shape": "real-discrete", "kappa": rng.choice((1, 2, 3))}
    twists = {lab: rng.choice((1, -1)) for lab in _classes(place) if lab != "1"}
    if steinberg_label is not None or rng.random() < 0.5:
        label = steinberg_label if steinberg_label is not None else rng.choice(_classes(place))
        return {"shape": "steinberg", "class": label, "eps": rng.choice((1, -1)), "eps_twists": twists}
    return {"shape": "irreducible-symplectic", "tag": tags("sc"), "eps": rng.choice((1, -1)), "eps_twists": twists}


def _local_root(shape: dict) -> int:
    kind = shape["shape"]
    if kind in ("irreducible-symplectic", "steinberg"):
        return shape["eps"]
    if kind == "principal-series":
        return shape["chi_parity"]
    return -1 if shape["kappa"] % 2 else 1


def _local_twisted_root(shape: dict, place: Place, bits: tuple) -> int:
    if not any(bits):
        return _local_root(shape)
    kind = shape["shape"]
    label = _label(place, bits)
    if kind in ("irreducible-symplectic", "steinberg"):
        return shape["eps_twists"][label]
    if kind == "principal-series":
        cls = SquareClass(place, bits)
        return shape["chi_parity"] * hilbert(place, cls, place.minus_one())
    return _local_root(shape)


def _two_distinct(rng: random.Random, place: Place, tags: Tags) -> tuple[dict, dict]:
    """Two symplectic shapes with different local constituents."""
    if place.is_real:
        ka, kb = rng.sample((1, 2, 3), 2)
        return {"shape": "real-discrete", "kappa": ka}, {"shape": "real-discrete", "kappa": kb}
    a = _irreducible_symplectic(rng, place, tags)
    b = _irreducible_symplectic(rng, place, tags)
    if a["shape"] == b["shape"] == "steinberg" and a["class"] == b["class"]:
        b = dict(b, shape="irreducible-symplectic", tag=tags("sc"))
        del b["class"]
    return a, b


def symplectic_datum(name: str, pool: ElementPool, shapes: list[dict], flags=()) -> dict:
    """GL(2) symplectic datum whose global signs are the products the shapes force."""
    places = pool.places
    root = 1
    for s in shapes:
        root *= _local_root(s)
    twisted = {}
    for e in pool.bits:
        prod = 1
        for k, (p, s) in enumerate(zip(places, shapes)):
            prod *= _local_twisted_root(s, p, pool.local_bits(e, k))
        twisted[e] = prod
    return {
        "name": name,
        "gl_rank": 2,
        "duality": "symplectic",
        "global_root": root,
        "twisted_roots": twisted,
        "l_half_nonzero": {e: True for e in flags if twisted[e] == 1},
        "local": {p.id: s for p, s in zip(places, shapes)},
    }


def _orthogonal_shape(rng: random.Random, place: Place, cc_bits: tuple, rank: int, tags: Tags) -> dict:
    """Orthogonal local shape with local component-group rank ``rank``.

    Where the central character is locally trivial the rank is 0 (chi + chi^-1)
    or 1 (chi_a + chi_a); where it is nontrivial, 1 (irreducible) or 2
    (chi_a + chi_{a cc}).
    """
    if not any(cc_bits):
        if rank == 0:
            return {"shape": "reducible-orthogonal", "chi": "mu"}
        a = rng.choice(_classes(place))
        return {"shape": "quadratic-pair", "a": a, "b": a}
    if rank == 1:
        if place.is_real:
            return {"shape": "real-orthogonal-discrete", "kappa": rng.choice((1, 2, 3))}
        return {"shape": "dihedral-supercuspidal", "tag": tags("tau")}
    a = SquareClass(place, tuple(rng.randrange(2) for _ in range(place.rank)))
    b = a * SquareClass(place, cc_bits)
    return {"shape": "quadratic-pair", "a": a.label, "b": b.label}


def orthogonal_datum(rng: random.Random, name: str, pool: ElementPool, cc: str, ranks: list[int], tags: Tags) -> dict:
    return {
        "name": name,
        "gl_rank": 2,
        "duality": "orthogonal",
        "global_root": 1,
        "dihedral": True,
        "central_char": cc,
        "local": {
            p.id: _orthogonal_shape(rng, p, pool.local_bits(cc, k), ranks[k], tags)
            for k, p in enumerate(pool.places)
        },
    }


def _split(rng: random.Random, total: int, caps: list[int], floors=None) -> list[int] | None:
    """Random integer vector r with floors <= r <= caps and sum(r) == total."""
    floors = floors or [0] * len(caps)
    if not sum(floors) <= total <= sum(caps):
        return None
    r = list(floors)
    slack = [c - f for c, f in zip(caps, floors)]
    left = total - sum(floors)
    while left:
        k = rng.choice([i for i, s in enumerate(slack) if s])
        r[k] += 1
        slack[k] -= 1
        left -= 1
    return r


def _document(pool: ElementPool, cuspidal: list, summands: list, mp2_weil=()) -> dict:
    doc = {
        "version": 1,
        "places": [{"id": p.id, "kind": p.kind} for p in pool.places],
        "elements": pool.json(),
        "cuspidal": cuspidal,
    }
    if mp2_weil:
        doc["mp2_weil"] = list(mp2_weil)
    if summands:
        doc["parameter"] = {"summands": summands}
    return doc


# ---------------------------------------------------------------------------
# enumerate scenarios


def _enumerate_draw(rng: random.Random, family: str, n: int, m: int) -> dict | None:
    """One draw for a slot, or None when the draw cannot meet the tuple target."""
    tags = Tags()
    if family == "principal":
        pool = ElementPool(_places(rng, n, allow_complex=True))
        pool.add(rng, "t")
        chi = rng.choice(("1", "-1", "t"))
        return _document(pool, [], [[chi, 4]])

    if family == "howe-ps":
        # 2^(n + |D| - 2) tuples, D = places where chi_1 and chi_2 differ
        pool = ElementPool(_places(rng, n, allow_complex=True))
        want = m + 2 - n
        support = sorted(rng.sample(range(n), min(n, want + rng.randrange(2))))
        pool.add(rng, "t", support)
        pool.add(rng, "s")
        pairs = [(a, b) for a in pool.bits for b in pool.bits if a < b and len(pool.differs(a, b)) == want]
        if not pairs:
            return None
        a, b = rng.choice(pairs)
        return _document(pool, [], [[a, 2], [b, 2]])

    if family == "saito-kurokawa":
        # local rank 2, or 1 at a principal-series rho_v: 2^(2n - k - 2) tuples
        pool = ElementPool(_places(rng, n, allow_complex=False))
        pool.add(rng, "t")
        k = 2 * n - 2 - m
        if not 0 <= k < n:
            return None
        ps = set(rng.sample(range(n), k))
        shapes = [_ps(rng) if i in ps else _irreducible_symplectic(rng, p, tags) for i, p in enumerate(pool.places)]
        rho = symplectic_datum("rho", pool, shapes)
        chi = rng.choice(("1", "-1", "t"))
        return _document(pool, [rho], [["rho", 1], [chi, 2]])

    if family == "soudry":
        pool = ElementPool(_places(rng, n, allow_complex=True))
        cc = pool.add(rng, "t")
        if pool.is_trivial(cc):
            return None
        nontrivial = [any(pool.local_bits(cc, k)) for k in range(n)]
        caps = [2 if nt else 1 for nt in nontrivial]
        floors = [1 if nt else 0 for nt in nontrivial]
        ranks = _split(rng, m + 1, caps, floors)
        if ranks is None:
            return None
        rho = orthogonal_datum(rng, "rho", pool, cc, ranks, tags)
        return _document(pool, [rho], [["rho", 2]])

    if family == "tempered":
        # rho1 + rho2: local rank = number of distinct local generators
        pool = ElementPool(_places(rng, n, allow_complex=True))
        pool.add(rng, "t")
        caps = [0 if p.is_complex else 2 for p in pool.places]
        ranks = _split(rng, m + 2, caps)
        if ranks is None:
            return None
        s1, s2 = [], []
        for p, r in zip(pool.places, ranks):
            if r == 0:
                a, b = _ps(rng), _ps(rng)
            elif r == 2:
                a, b = _two_distinct(rng, p, tags)
            elif rng.random() < 0.5:
                # one generator and one principal series
                a, b = _irreducible_symplectic(rng, p, tags), _ps(rng)
                if rng.random() < 0.5:
                    a, b = b, a
            else:
                # two equal constituents: one generator modulo the diagonal
                if p.is_real:
                    kappa = rng.choice((1, 2, 3))
                    a, b = {"shape": "real-discrete", "kappa": kappa}, {"shape": "real-discrete", "kappa": kappa}
                else:
                    label = rng.choice(_classes(p))
                    a = _irreducible_symplectic(rng, p, tags, steinberg_label=label)
                    b = _irreducible_symplectic(rng, p, tags, steinberg_label=label)
            s1.append(a)
            s2.append(b)
        rho1 = symplectic_datum("rho1", pool, s1)
        rho2 = symplectic_datum("rho2", pool, s2)
        return _document(pool, [rho1, rho2], [["rho1", 1], ["rho2", 1]])

    raise ValueError(family)


def slot_name(slot) -> str:
    return "/".join(map(str, slot[:3]))


def _slot_draw(rng: random.Random, slot, counts) -> dict:
    """A draw repeated until both counts match the slot.

    ``counts(doc)`` returns (multiplicity-one tuples, constituents) of a
    document without enumerating it (the character sum).
    """
    family, n, m, share = slot
    if 1 << m > TUPLE_BOUND:
        raise ValueError(f"slot {slot_name(slot)} exceeds TUPLE_BOUND")
    want = (1 << m, int((1 << m) * share))
    for _ in range(1000):
        doc = _enumerate_draw(rng, family, n, m)
        if doc is not None and counts(doc) == want:
            return doc
    raise RuntimeError(f"no draw met slot {slot_name(slot)}")


def enumerate_scenarios(seed: int, counts) -> list[tuple[str, dict]]:
    """ENUMERATE_DRAWS (slot name, document) pairs per ENUMERATE_SLOTS entry."""
    rng = random.Random(f"enumerate-scaled/{seed}")
    return [(slot_name(slot), _slot_draw(rng, slot, counts)) for slot in ENUMERATE_SLOTS for _ in range(ENUMERATE_DRAWS)]


def memory_scenario(seed: int, counts) -> dict:
    """The MEMORY_SLOT document of a seed."""
    return _slot_draw(random.Random(f"memory/{seed}"), MEMORY_SLOT, counts)


# ---------------------------------------------------------------------------
# residual scenarios


def residual_scenario(rng: random.Random, slot) -> dict:
    """One symplectic datum rho0 with n_flags flags, one dihedral datum tau0, two Weil reps."""
    n, n_elements, n_flags, irr = slot
    tags = Tags()
    pool = ElementPool(_places(rng, n, allow_complex=False))
    for i in range(n_elements - 2):
        pool.add(rng, f"e{i}")
    names = sorted(pool.bits)
    # redraw the shapes until enough twisted roots are +1 to flag n_flags
    for _ in range(100):
        irr_places = set(rng.sample(range(n), min(irr, n)))
        shapes = [
            _irreducible_symplectic(rng, p, tags) if k in irr_places else _ps(rng)
            for k, p in enumerate(pool.places)
        ]
        probe = symplectic_datum("rho0", pool, shapes)
        plus = [e for e in names if probe["twisted_roots"][e] == 1]
        if len(plus) >= n_flags:
            break
    flags = rng.sample(plus, min(n_flags, len(plus)))
    rho = symplectic_datum("rho0", pool, shapes, flags)
    nontrivial = [e for e in names if not pool.is_trivial(e)]
    cc = rng.choice(nontrivial)
    ranks = [rng.choice((1, 2)) if any(pool.local_bits(cc, k)) else rng.choice((0, 1)) for k in range(n)]
    tau = orthogonal_datum(rng, "tau0", pool, cc, ranks, tags)
    # P1-HPS constituents: (chi_1, pi) with chi_1 != chi_pi on all of S(pi);
    # keep the Weil draw whose count is nearest a fixed share of the pairs
    target = round(0.4 * 2 * (n_elements - 1))
    best = None
    for _ in range(100):
        weil = []
        for j in range(2):
            size = rng.choice([s for s in (2, 4) if s <= n])
            weil.append(
                {
                    "name": f"piw{j}",
                    "chi": rng.choice(names),
                    "s_places": sorted(rng.sample(range(n), size)),
                }
            )
        hps = sum(
            all(pool.local_bits(e, k) != pool.local_bits(w["chi"], k) for k in w["s_places"])
            for w in weil
            for e in names
            if e != w["chi"]
        )
        if best is None or abs(hps - target) < abs(best[0] - target):
            best = (hps, weil)
        if hps == target:
            break
    weil = [dict(w, s_places=[pool.places[k].id for k in w["s_places"]]) for w in best[1]]
    return _document(pool, [rho, tau], [], weil)


def residual_scenarios(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(f"residual-wide/{seed}")
    return [
        ("residual/" + "/".join(map(str, slot)), residual_scenario(rng, slot))
        for slot in RESIDUAL_SLOTS
        for _ in range(RESIDUAL_DRAWS)
    ]
