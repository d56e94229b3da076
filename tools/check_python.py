"""Check one interpreter without pytest: imports, tracer paths, self-test, character sum, goldens, digests.

Run from the repository root with the interpreter to check, e.g.

    PYTHONPATH=src python3.10 tools/check_python.py

It checks that importing ``mp4spectrum.cli`` under ``-S`` loads none of
``dataclasses``, ``inspect``, ``argparse`` and ``gettext``, that every ``TARGETS`` and ``COUNTED``
path of ``perfbench/tracer.py`` still names a function of the package
(the traced benchmark run patches them), that ``self-test`` passes on every
bundled fixture, that the character sum of ``perfbench/oracle.py``
counts what ``enumerate_constituents`` lists on every fixture (with and
without the vanishing tuples), and that every call of
``tests/golden_calls.py`` reproduces its file under ``tests/golden/``
byte for byte, and that ``residual`` on the benchmark's residual-wide
inputs of seeds 1 to 4 hashes to ``golden_calls.RESIDUAL_WIDE_SHA256``,
``enumerate`` on the enumerate-scaled inputs of seeds 1 and 2 to
``golden_calls.ENUMERATE_SCALED_SHA256``, and ``packet`` on the Soudry and
tempered ones of seed 1 to ``golden_calls.PACKET_SHA256``.
Prints one line per check and exits 1 if any fails.
An info line, which never fails, gives the line count of
``src/mp4spectrum``, its code-line count (the lines that are not blank,
comment-only or part of a docstring) and the in-process ``compile()``
time of its modules (best of 7), since every CLI child without a
bytecode cache pays it.  On Linux it also gives the peak RSS (VmHWM) of
the memory test's child after importing the CLI and after ``enumerate
--format json`` on that test's scenario, and the rise as a multiple of the
output's size.
Uses the standard library only, for interpreters that have no pytest.
"""

import ast
import contextlib
import glob
import importlib
import io
import os
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tests"))

from golden_calls import (
    ENUMERATE_SCALED_SHA256,
    FIXTURE_NAMES,
    GOLDEN,
    PACKET_SHA256,
    RESIDUAL_WIDE_SHA256,
    enumerate_scaled_digest,
    golden_calls,
    load_perfbench,
    memory_peaks,
    packet_digest,
    residual_wide_digest,
)
from mp4spectrum.cli import main
from mp4spectrum.multiplicity import enumerate_constituents
from mp4spectrum.scenario import load_scenario


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def check_imports():
    heavy = {"dataclasses", "inspect", "argparse", "gettext"}
    probe = f"import sys, mp4spectrum.cli; print(sorted({heavy!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    loaded = out.stdout.strip()
    return out.returncode == 0 and loaded == "[]", f"import mp4spectrum.cli loads {loaded or out.stderr}"


def check_self_test():
    scenario = os.path.join(ROOT, "fixtures", "{}.json")
    failed = [f for f in FIXTURE_NAMES if _run(["self-test", "--scenario", scenario.format(f)])[0]]
    return not failed, f"self-test on {len(FIXTURE_NAMES)} fixtures, failed: {failed}"


def check_tracer_paths():
    tracer = load_perfbench("tracer")
    paths = [(mod, path) for _, mod, path, _ in tracer.TARGETS] + [(mod, path) for _, mod, path in tracer.COUNTED]
    missing = []
    for mod, path in paths:
        home = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            # a method is patched on its class, so it must be defined there
            cls = getattr(home, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{mod}.{path}")
    return not missing, f"{len(paths) - len(missing)} of {len(paths)} tracer paths resolve, missing: {missing}"


def check_character_sum():
    oracle = load_perfbench("oracle")
    differ = []
    for f in FIXTURE_NAMES:
        sc = load_scenario(os.path.join(ROOT, "fixtures", f"{f}.json"))
        phi, places = sc.parameter, sc.places
        sums = (oracle.character_sum_count(phi, places), oracle.character_sum_count(phi, places, nonzero_only=False))
        listed = (len(enumerate_constituents(phi, places)), len(enumerate_constituents(phi, places, include_vanishing=True)))
        if sums != listed:
            differ.append(f"{f} {sums} != {listed}")
    return not differ, f"character sum = enumeration on {len(FIXTURE_NAMES)} fixtures, differ: {differ}"


def check_goldens():
    calls = golden_calls()
    differ = []
    for name, argv in calls.items():
        code, out = _run(argv)
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            if code != 0 or out != fh.read():
                differ.append(name)
    return not differ, f"{len(calls) - len(differ)} of {len(calls)} golden files identical, differ: {differ}"


def check_residual_digest():
    digests = {seed: residual_wide_digest(_run, seed) for seed in RESIDUAL_WIDE_SHA256}
    shown = ", ".join(f"seed {seed} {digest}" for seed, digest in digests.items())
    return digests == RESIDUAL_WIDE_SHA256, f"residual on the 100 residual-wide inputs per seed hashes to {shown}"


def check_enumerate_digest():
    digests = {seed: enumerate_scaled_digest(_run, seed) for seed in ENUMERATE_SCALED_SHA256}
    shown = ", ".join(f"seed {seed} {digest}" for seed, digest in digests.items())
    return digests == ENUMERATE_SCALED_SHA256, f"enumerate on the 100 enumerate-scaled inputs per seed hashes to {shown}"


def check_packet_digest():
    digest = packet_digest(_run)
    return digest == PACKET_SHA256, f"packet on the Soudry and tempered enumerate-scaled inputs of seed 1 hashes to {digest}"


def code_lines(text: str) -> int:
    """The lines of a module that are not blank, comment-only or part of a docstring."""
    lines = text.splitlines()
    skipped = {i for i, line in enumerate(lines, 1) if not line.strip() or line.lstrip().startswith("#")}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                skipped.update(range(first.lineno, first.end_lineno + 1))
    return len(lines) - len(skipped)


def source_info():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "mp4spectrum", "*.py")))
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    best = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        for path, text in zip(paths, sources):
            compile(text, path, "exec")
        best = min(best, time.perf_counter() - start)
    lines = sum(text.count("\n") for text in sources)
    code = sum(map(code_lines, sources))
    info = f"INFO src: {lines} lines ({code} code lines) in {len(paths)} modules, compile() {best * 1e3:.1f} ms"
    if os.path.exists("/proc/self/status"):
        base, peak, out = memory_peaks()
        info += (f"; VmHWM import {base / 1024:.1f} MB, enumerate {peak / 1024:.1f} MB: "
                 f"{(peak - base) * 1024 / len(out):.2f} x its {len(out) / 1e6:.1f} MB output")
    return info


def main_check() -> int:
    print(f"python {sys.version.split()[0]}")
    print(source_info())
    ok = True
    checks = (check_imports, check_tracer_paths, check_self_test, check_character_sum, check_goldens, check_residual_digest,
              check_enumerate_digest, check_packet_digest)
    for check in checks:
        passed, detail = check()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {check.__name__}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main_check())
