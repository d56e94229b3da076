"""Reference results the benchmark checks the program's outputs against.

Neither route here shares the code path being timed:

* ``character_sum_count`` counts discrete-spectrum constituents by the
  character sum over the global component group,

      count = 2^-n sum_s eps~(s) prod_v sum_{eta_v : member != 0} eta_v(iota_v s),

  built from ``localize``, ``local_packet`` and ``epsilon_tilde`` only; the
  program's ``enumerate`` solves an F2 affine system and lists the tuples.
  With ``nonzero_only=False`` it counts every multiplicity-one tuple, which
  bounds the work of an enumeration without running it.
* ``residual_family_counts`` gives each residual family's size in closed
  form from the generated scenario document alone.
"""

from __future__ import annotations

import itertools
from math import comb

from mp4spectrum.localization import localize
from mp4spectrum.packets import local_packet
from mp4spectrum.parameters import epsilon_tilde

IRREDUCIBLE_SYMPLECTIC = ("irreducible-symplectic", "steinberg", "real-discrete")


def _character_value(values: tuple, vec: tuple) -> int:
    sign = 1
    for v, bit in zip(values, vec):
        if bit:
            sign *= v
    return sign


def character_sum_count(phi, places, nonzero_only: bool = True) -> int:
    eps = epsilon_tilde(phi).values
    n = len(eps)
    local = []
    for place in places:
        lp, group, iota = localize(phi, place)
        labels = [e.label.values for e in local_packet(lp) if not (nonzero_only and e.is_zero)]
        local.append((iota.rows, labels, len(group.basis)))
    total = 0
    for s in itertools.product((0, 1), repeat=n):
        term = _character_value(eps, s)
        for rows, labels, width in local:
            image = [0] * width
            for bit, row in zip(s, rows):
                if bit:
                    image = [a ^ b for a, b in zip(image, row)]
            term *= sum(_character_value(vals, image) for vals in labels)
            if not term:
                break
        total += term
    if total % (1 << n):
        raise ArithmeticError(f"character sum {total} is not divisible by 2^{n}")
    return total >> n


def residual_family_counts(doc: dict) -> dict:
    """Constituent count per residual family, keyed by name prefix."""
    place_ids = [p["id"] for p in doc["places"]]
    classes = {"1": {pid: None for pid in place_ids}}
    for e in doc.get("elements", []):
        classes[e["name"]] = e["classes"]
    names = ["1", "-1"] + [e["name"] for e in doc.get("elements", [])]
    weil = doc.get("mp2_weil", [])
    counts = {
        "B-pr": len(names),
        "B-HPS": comb(len(names), 2),
        "P2": 0,
        "P1-pr": len(weil),
        "P1-SK": 0,
        "P1-HPS": 0,
    }
    for datum in doc.get("cuspidal", []):
        if datum["duality"] == "orthogonal":
            if datum.get("dihedral") and datum.get("central_char", "1") not in ("1", "trivial"):
                counts["P2"] += 1
            continue
        if datum.get("gl_rank", 2) != 2:
            continue
        flagged = [e for e, on in datum.get("l_half_nonzero", {}).items() if on and e in names]
        irr = sum(s["shape"] in IRREDUCIBLE_SYMPLECTIC for s in datum["local"].values())
        # sign vectors on the irreducible places whose product is the global root
        per_pair = 1 << (irr - 1) if irr else int(datum.get("global_root", 1) == 1)
        counts["P1-SK"] += per_pair * len(flagged)

    def local_class(name: str, pid: str, kind: str):
        if name == "-1":
            return {"nonarch-odd-1mod4": "1", "nonarch-odd-3mod4": "u"}.get(kind, "-1" if kind != "complex" else "1")
        if name == "1":
            return "1"
        return classes[name][pid]

    kinds = {p["id"]: p["kind"] for p in doc["places"]}
    for pi in weil:
        for e1 in names:
            if e1 == pi["chi"]:
                continue
            if all(
                local_class(e1, pid, kinds[pid]) != local_class(pi["chi"], pid, kinds[pid])
                for pid in pi["s_places"]
            ):
                counts["P1-HPS"] += 1
    return counts
