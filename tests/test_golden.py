"""Byte-exact CLI outputs on the bundled fixtures.

Each file under tests/golden/ is the stdout of one CLI call, named
``<fixture>.<variant>.<format>``.  Refactors and speed-ups of the
enumeration and component-group paths must leave every byte unchanged.
"""

import os

import pytest

from mp4spectrum.cli import main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden")

FIXTURE_NAMES = ("hps", "hps_degenerate", "principal", "sk", "sk_steinberg", "soudry", "tempered")

VARIANTS = {
    "enumerate.json": ["enumerate", "--format", "json"],
    "enumerate-verbose.json": ["enumerate", "--verbose", "--format", "json"],
    "enumerate-verbose.txt": ["enumerate", "--verbose", "--format", "text"],
    "component-group.json": ["component-group", "--format", "json"],
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cli_output_matches_golden(fixture, variant, capsys):
    argv = VARIANTS[variant] + ["--scenario", os.path.join(FIXTURES, f"{fixture}.json")]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    with open(os.path.join(GOLDEN, f"{fixture}.{variant}"), "rb") as fh:
        assert out == fh.read()
