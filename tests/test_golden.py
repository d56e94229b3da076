"""Byte-exact CLI outputs on the bundled fixtures.

Each file under tests/golden/ is the stdout of one CLI call listed in
``golden_calls``.  Refactors and speed-ups must leave every byte
unchanged: residual and packet output depend on descriptor ``repr``
ordering, so these files also pin the record classes' ``repr``.
"""

import os

import pytest

from golden_calls import FIXTURE_NAMES, GOLDEN, PACKETS, SCENARIO_FREE, VARIANTS, golden_calls
from mp4spectrum.cli import main


def _check(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cli_output_matches_golden(fixture, variant, capsys):
    _check(f"{fixture}.{variant}", golden_calls()[f"{fixture}.{variant}"], capsys)


@pytest.mark.parametrize("fixture,place", PACKETS)
def test_cli_packet_matches_golden(fixture, place, capsys):
    name = f"{fixture}.packet-{place}.json"
    _check(name, golden_calls()[name], capsys)


@pytest.mark.parametrize("name", sorted(SCENARIO_FREE))
def test_cli_scenario_free_output_matches_golden(name, capsys):
    _check(name, golden_calls()[name], capsys)
