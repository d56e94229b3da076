"""Check one interpreter without pytest: start-up imports, self-test, goldens.

Run from the repository root with the interpreter to check, e.g.

    PYTHONPATH=src python3.10 tools/check_python.py

It checks that importing ``mp4spectrum.cli`` under ``-S`` loads neither
``dataclasses`` nor ``inspect``, that ``self-test`` passes on every
bundled fixture, and that every call of ``tests/golden_calls.py``
reproduces its file under ``tests/golden/`` byte for byte.  Prints one
line per check and exits 1 if any fails.  Uses the standard library only,
for interpreters that have no pytest.
"""

import contextlib
import io
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tests"))

from golden_calls import FIXTURE_NAMES, GOLDEN, golden_calls
from mp4spectrum.cli import main


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def check_imports():
    probe = "import sys, mp4spectrum.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    loaded = out.stdout.strip()
    return out.returncode == 0 and loaded == "[]", f"import mp4spectrum.cli loads {loaded or out.stderr}"


def check_self_test():
    scenario = os.path.join(ROOT, "fixtures", "{}.json")
    failed = [f for f in FIXTURE_NAMES if _run(["self-test", "--scenario", scenario.format(f)])[0]]
    return not failed, f"self-test on {len(FIXTURE_NAMES)} fixtures, failed: {failed}"


def check_goldens():
    calls = golden_calls()
    differ = []
    for name, argv in calls.items():
        code, out = _run(argv)
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            if code != 0 or out != fh.read():
                differ.append(name)
    return not differ, f"{len(calls) - len(differ)} of {len(calls)} golden files identical, differ: {differ}"


def main_check() -> int:
    print(f"python {sys.version.split()[0]}")
    ok = True
    for check in (check_imports, check_self_test, check_goldens):
        passed, detail = check()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {check.__name__}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main_check())
