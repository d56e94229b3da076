"""Span tracer for the traced benchmark run, kept out of the program.

``Tracer.install`` wraps the public functions in ``TARGETS`` by patching
every ``mp4spectrum`` module that bound them (``from .x import y`` makes
a copy of the name in each importing module, so each copy is replaced).
Each wrapped call records a span (name, start, end, parent span, operation
id) in memory and adds to per-name call counts, total time and self time;
self time is a span's duration minus the time of its direct child spans.
The untimed runs never call ``install``, so they patch nothing.

A recursive call (``render`` renders nested descriptors through itself)
is folded into its outermost span, so ``calls`` counts calls from other
code.  Time spent in the tracer's own bookkeeping after a call returns is charged
to that call's span as seen by its parent, so a parent's self time does
not absorb its children's tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "mp4spectrum"


def _localize_key(args):
    phi, place = args[0], args[1]
    return (phi.basis_labels(), place.id)


def _packet_key(args):
    return repr(args[0])


# (span name, module, attribute path, distinct-input key or None)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("reports.emit", "reports", "Report.emit", None),
    ("scenario.load", "scenario", "load_scenario", None),
    ("scenario.validate", "scenario", "Scenario.validate", None),
    ("fields.validate_reciprocity", "fields", "validate_reciprocity", None),
    ("parameters.classify", "parameters", "classify", None),
    ("parameters.epsilon_tilde", "parameters", "epsilon_tilde", None),
    ("localization.localize", "localization", "localize", _localize_key),
    ("packets.local_packet", "packets", "local_packet", _packet_key),
    ("packets.designated_l_packet_member", "packets", "designated_l_packet_member", None),
    ("packets.reducibility_oracle", "packets", "reducibility_oracle", None),
    ("descriptors.render", "descriptors", "render", None),
    ("descriptors.lq", "descriptors", "lq", None),
    ("chargroups.solve_affine", "chargroups", "solve_affine", None),
    ("chargroups.rref", "chargroups", "rref", None),
    ("chargroups.characters", "chargroups", "ComponentGroup.characters", None),
    ("multiplicity.enumerate_constituents", "multiplicity", "enumerate_constituents", None),
    ("multiplicity.prepare_local_data", "multiplicity", "prepare_local_data", None),
    ("multiplicity.brute_force_count", "multiplicity", "brute_force_count", None),
    ("residual.residual_spectrum", "residual", "residual_spectrum", None),
    ("tables.export_all", "tables", "export_all", None),
    ("tables.shimura_row_from_query", "tables", "shimura_row_from_query", None),
    ("ktypes.degree_o", "ktypes", "degree_o", None),
    ("ktypes.joint_harmonics", "ktypes", "joint_harmonics", None),
    ("ktypes.lowest_kprime_catalog", "ktypes", "lowest_kprime_catalog", None),
)

# counted per call, without a span: one call per multiplicity-one tuple
COUNTED = (("multiplicity.tuples", "multiplicity", "_constituent"),)

# results that carry a count worth keeping
RESULT_COUNTS = {
    "multiplicity.enumerate_constituents": ("multiplicity.constituents", len),
    "residual.residual_spectrum": ("residual.constituents", len),
    "fields.validate_reciprocity": ("fields.reciprocity_pairs", lambda r: r.checked_pairs),
}


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []
        self.spans_dropped = 0
        self.op = -1
        self._stack: list = []
        self._patches: list = []
        self._distinct: dict = defaultdict(set)

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        for name, keys in self._distinct.items():
            self.counts[name + ".distinct"] += len(keys)
        self._distinct.clear()
        self.op = -1

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, mod, path, key in TARGETS:
            self._patch(modules, mod, path, self._wrap(name, key))
        for name, mod, path in COUNTED:
            self._patch(modules, mod, path, self._counter(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modules, mod: str, path: str, make) -> None:
        home = sys.modules[f"{PACKAGE}.{mod}"]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(home, cls_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(home, path)
        wrapper = make(original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def _counter(self, name: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _wrap(self, name: str, key):
        stack = self._stack
        spans = self.spans
        result_count = RESULT_COUNTS.get(name)

        def make(fn):
            def traced(*args, **kwargs):
                if stack and stack[-1][2] is name:
                    # a recursive call is part of its outermost span
                    return fn(*args, **kwargs)
                parent = stack[-1][1] if stack else -1
                index = -1
                if len(spans) < self.span_cap:
                    index = len(spans)
                    spans.append(None)
                else:
                    self.spans_dropped += 1
                frame = [0.0, index, name]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    self.calls[name] += 1
                    self.total_s[name] += t1 - t0
                    self.self_s[name] += t1 - t0 - frame[0]
                    if index >= 0:
                        spans[index] = (name, t0, t1, parent, self.op)
                    if stack:
                        stack[-1][0] += t1 - t0
                if key is not None:
                    self._distinct[name].add(key(args))
                if result_count is not None:
                    self.counts[result_count[0]] += result_count[1](result)
                if stack:
                    stack[-1][0] += perf_counter() - t1
                return result

            return traced

        return make

    # -- output -----------------------------------------------------------

    def module_self_s(self) -> dict:
        out: Counter = Counter()
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of aggregate counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, t0, t1, parent, op = span
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op}) + "\n")
            fh.write(
                json.dumps(
                    {
                        "summary": True,
                        "spans_dropped": self.spans_dropped,
                        "calls": dict(self.calls),
                        "self_s": dict(self.self_s),
                        "total_s": dict(self.total_s),
                        "counts": dict(self.counts),
                    }
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# import cost, measured in fresh interpreters


def _wall_ms(cmd, env, cwd) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True, timeout=60)
    return (perf_counter() - t0) * 1000


def import_profile(root, env, repeats: int = 5) -> dict:
    """Median floor, total and per-module self import time, in ms.

    floor: ``python -c pass``; total: ``import mp4spectrum.cli`` minus the
    floor; per module: the ``self`` column of ``python -X importtime``.
    """
    floor = statistics.median(_wall_ms([sys.executable, "-c", "pass"], env, root) for _ in range(repeats))
    full = statistics.median(
        _wall_ms([sys.executable, "-c", f"import {PACKAGE}.cli"], env, root) for _ in range(repeats)
    )
    per_module = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}.cli"],
            env=env,
            cwd=root,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = [f.strip() for f in line[len("import time:") :].split("|")]
            if len(fields) != 3 or not fields[0].isdigit():
                continue
            mod = fields[2]
            if mod == PACKAGE or mod.startswith(PACKAGE + "."):
                per_module[mod].append(int(fields[0]) / 1000)
    return {
        "floor_ms": floor,
        "total_ms": full - floor,
        "self_ms": {mod: statistics.median(v) for mod, v in per_module.items()},
    }
