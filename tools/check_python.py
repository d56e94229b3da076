"""Check one interpreter without pytest: imports, tracer paths, self-test, character sum, listing size, goldens, digests.

Run from the repository root with the interpreter to check, e.g.

    PYTHONPATH=src python3.10 tools/check_python.py

It checks that importing ``mp4spectrum.cli`` under ``-S`` loads none of
``dataclasses``, ``inspect``, ``argparse`` and ``gettext``, that every ``TARGETS`` and ``COUNTED``
path of ``perfbench/tracer.py`` still names a function of the package
(the traced benchmark run patches them), that ``self-test`` passes on every
bundled fixture, that the character sum of ``perfbench/oracle.py``
counts what ``enumerate_constituents`` lists on every fixture (with and
without the vanishing tuples), that ``multiplicity.coset_size`` (the
span of the local residues) gives the count of
``golden_calls.solved_coset_size`` (the affine solve over the
concatenated local character masks) on every flip of eps~ of every
fixture and of the enumerate-scaled inputs of seed 1, and that every call of
``tests/golden_calls.py`` reproduces its file under ``tests/golden/``
byte for byte, and that ``residual`` on the benchmark's residual-wide
inputs of seeds 1 to 4 hashes to ``golden_calls.RESIDUAL_WIDE_SHA256``,
``enumerate`` on the enumerate-scaled inputs of seeds 1 and 2 to
``golden_calls.ENUMERATE_SCALED_SHA256``, and ``packet`` on the Soudry and
tempered ones of seed 1 to ``golden_calls.PACKET_SHA256``, and the exit
code and stderr of ``validate`` on the malformed copies of the fixtures
to ``golden_calls.SCHEMA_ERROR_SHA256``.
Prints one line per check and exits 1 if any fails.
An info line, which never fails, gives the line count of
``src/mp4spectrum``, its code-line count (the lines that are not blank,
comment-only or part of a docstring) and the in-process ``compile()``
time of its modules (best of 7), since every CLI child without a
bytecode cache pays it.  Then it gives exact counts over one pass of
``residual --format json`` on the 100 seed-1 residual-wide inputs: local
shapes, ``LocalData``, designated members and record ``repr`` calls.  On Linux it also gives the peak RSS (VmHWM) of
the memory test's child after importing the CLI and after ``enumerate
--format json`` on that test's scenario, and the rise as a multiple of the
output's size.  Last it gives the median wall time of 9 fresh children
each for ``-c pass`` (the interpreter floor), ``-c "import
mp4spectrum.cli"`` (floor, compiling and running the imports, and
collecting what they made at exit) and ``-m mp4spectrum.cli validate
--scenario fixtures/sk.json --format json`` (floor, compiling, imports and
the work; the program freezes the import-time heap, so its exit skips
collecting it), run in the caller's environment, and whether ``src`` held
a bytecode cache for them; the benchmark's children run without one
(``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``).
Uses the standard library only, for interpreters that have no pytest.
"""

import ast
import contextlib
import glob
import importlib
import importlib.util
import io
import os
import json
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tests"))

from golden_calls import (
    ENUMERATE_SCALED_SHA256,
    FIXTURE_NAMES,
    GOLDEN,
    PACKET_SHA256,
    RESIDUAL_WIDE_SHA256,
    SCHEMA_ERROR_SHA256,
    enumerate_scaled_digest,
    enumerate_scaled_scenarios,
    golden_calls,
    load_perfbench,
    load_scengen,
    memory_peaks,
    packet_digest,
    residual_wide_digest,
    schema_error_digest,
    solved_coset_size,
)
from mp4spectrum.cli import main
from mp4spectrum.multiplicity import coset_size, enumerate_constituents, prepare_local_data
from mp4spectrum.parameters import epsilon_tilde
from mp4spectrum.scenario import load_scenario, scenario_from_dict


def _run(argv, stream="stdout"):
    """The exit code of one CLI call and what it wrote to ``stream``, stdout or stderr, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (out if stream == "stdout" else err).getvalue().encode("utf-8")


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


def check_listing_size():
    scenarios = [load_scenario(os.path.join(ROOT, "fixtures", f"{f}.json")) for f in FIXTURE_NAMES]
    scenarios += [scenario_from_dict(doc) for doc in enumerate_scaled_scenarios(1)]
    differ, checked = [], 0
    for i, sc in enumerate(scenarios):
        eps = epsilon_tilde(sc.parameter)
        locals_ = prepare_local_data(sc.parameter, sc.places)
        for flip in range(1 << len(eps.group.basis)):
            checked += 1
            if coset_size(eps.bits ^ flip, locals_) != solved_coset_size(eps.bits ^ flip, locals_):
                differ.append((i, flip))
    return not differ, (f"coset_size = solve_affine's count on {checked} flips of eps~ over the {len(FIXTURE_NAMES)} "
                        f"fixtures and 100 enumerate-scaled inputs of seed 1, differ (input, flip): {differ}")


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


def check_schema_error_digest():
    digest = schema_error_digest(lambda argv: _run(argv, "stderr"))
    return digest == SCHEMA_ERROR_SHA256, f"validate on the malformed copies of the fixtures hashes to {digest}"


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


def child_split() -> str:
    """Median wall time of fresh children: the interpreter alone, importing the CLI, and one validate call.

    The three run in turn, 9 times each, in this process's
    environment with ``src`` on the path, so they read a bytecode cache
    only where one is there already.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    sk = os.path.join(ROOT, "fixtures", "sk.json")
    children = {
        "pass": ["-c", "pass"],
        "import": ["-c", "import mp4spectrum.cli"],
        "validate": ["-m", "mp4spectrum.cli", "validate", "--scenario", sk, "--format", "json"],
    }
    times = {name: [] for name in children}
    runs = 9
    for _ in range(runs):
        for name, args in children.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
            times[name].append(time.perf_counter() - start)
    cache = importlib.util.cache_from_source(os.path.join(ROOT, "src", "mp4spectrum", "cli.py"))
    shown = ", ".join(f"{name} {statistics.median(t) * 1e3:.1f} ms" for name, t in times.items())
    return f"children (median of {runs}, bytecode cache {'present' if os.path.exists(cache) else 'absent'}): {shown}"


def residual_counts() -> str:
    """Exact counts over one pass of ``residual --format json`` on the 100 seed-1 residual-wide inputs, after one pass.

    Counts the local shapes (``localization.local_shape`` calls), the
    ``LocalData`` built, the designated members built and the ``repr``
    calls of record classes, by wrapping each function in every module
    that bound it, as the tracer does, and every record class's own
    ``__repr__``; everything is put back after.
    """
    from mp4spectrum import record

    counts = dict.fromkeys(("local shapes", "LocalData", "designated members", "Record reprs"), 0)
    patches = []

    def patch(owner, attr, name):
        original = vars(owner)[attr]

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    classes, todo = [], [record.Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes += subclasses
        todo += subclasses
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (_, doc) in enumerate(load_scengen().residual_scenarios(1)):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for path in paths:
            _run(["residual", "--scenario", path, "--format", "json"])
        try:
            for home, attr, name in (("localization", "local_shape", "local shapes"),
                                     ("packets", "designated_l_packet_member", "designated members")):
                original = getattr(sys.modules[f"mp4spectrum.{home}"], attr)
                for modname, mod in sorted(sys.modules.items()):
                    if modname.split(".")[0] == "mp4spectrum" and vars(mod).get(attr) is original:
                        patch(mod, attr, name)
            patch(sys.modules["mp4spectrum.multiplicity"].LocalData, "__init__", "LocalData")
            for cls in classes:
                if vars(cls)["__repr__"] in record._STUBS:  # put the class's own in place, as its first call would
                    cls.__repr__ = record._method(cls, "__repr__")
                patch(cls, "__repr__", "Record reprs")
            for path in paths:
                _run(["residual", "--scenario", path, "--format", "json"])
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
    return "residual-wide seed 1 per pass: " + ", ".join(f"{n:,} {name}" for name, n in counts.items())


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
    info += f"; {residual_counts()}"
    if os.path.exists("/proc/self/status"):
        base, peak, out = memory_peaks()
        info += (f"; VmHWM import {base / 1024:.1f} MB, enumerate {peak / 1024:.1f} MB: "
                 f"{(peak - base) * 1024 / len(out):.2f} x its {len(out) / 1e6:.1f} MB output")
    return f"{info}; {child_split()}"


def main_check() -> int:
    print(f"python {sys.version.split()[0]}")
    print(source_info())
    ok = True
    checks = (check_imports, check_tracer_paths, check_self_test, check_character_sum, check_listing_size, check_goldens,
              check_residual_digest, check_enumerate_digest, check_packet_digest,
              check_schema_error_digest)
    for check in checks:
        passed, detail = check()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {check.__name__}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main_check())
