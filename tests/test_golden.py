"""Byte-exact CLI outputs on the bundled fixtures.

Each file under tests/golden/ is the stdout of one CLI call listed in
``golden_calls``.  Refactors and speed-ups must leave every byte
unchanged: residual and packet output depend on descriptor ``repr``
ordering, so these files also pin the record classes' ``repr``.
"""

import os

import pytest

from golden_calls import (
    ENUMERATE_SCALED_SHA256,
    FIXTURE_NAMES,
    GENERATED_GOLDENS,
    GOLDEN,
    PACKET_SHA256,
    PACKETS,
    RESIDUAL_WIDE_SHA256,
    SCENARIO_FREE,
    VARIANTS,
    enumerate_scaled_digest,
    golden_calls,
    packet_digest,
    residual_wide_digest,
)
from mp4spectrum import cli
from mp4spectrum.cli import COMMANDS, main
from mp4spectrum.reports import Report


def _check(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cli_output_matches_golden(fixture, variant, capsys):
    _check(f"{fixture}.{variant}", golden_calls()[f"{fixture}.{variant}"], capsys)


@pytest.mark.parametrize("name", GENERATED_GOLDENS)
def test_cli_generated_scenario_matches_golden(name, capsys):
    _check(name, golden_calls()[name], capsys)


@pytest.mark.parametrize("fixture,place", PACKETS)
def test_cli_packet_matches_golden(fixture, place, capsys):
    name = f"{fixture}.packet-{place}.json"
    _check(name, golden_calls()[name], capsys)


@pytest.mark.parametrize("fixture,place", PACKETS)
def test_cli_packet_text_matches_golden(fixture, place, capsys):
    name = f"{fixture}.packet-{place}.txt"
    _check(name, golden_calls()[name], capsys)


@pytest.mark.parametrize("name", sorted(SCENARIO_FREE))
def test_cli_scenario_free_output_matches_golden(name, capsys):
    _check(name, golden_calls()[name], capsys)


def _digest_runner(capsys):
    """run(argv) for residual_wide_digest: one CLI call's exit code and stdout bytes."""

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out.encode("utf-8")

    return run


def test_residual_output_on_generated_inputs_is_pinned(capsys):
    # residual in JSON and verbose text on the 100 seed-1 residual-wide inputs
    assert residual_wide_digest(_digest_runner(capsys)) == RESIDUAL_WIDE_SHA256[1]


def test_residual_output_on_seed_2_inputs_is_pinned(capsys):
    # seed 2 mixes the place kinds differently from seed 1, which matters
    # now that residual shares local work across places of one kind
    assert residual_wide_digest(_digest_runner(capsys), 2) == RESIDUAL_WIDE_SHA256[2]


def test_residual_output_on_seed_3_inputs_is_pinned(capsys):
    # every P1 slot reading a nonzero label reads one member built for that
    # character alone, so a third seed pins more of those members
    assert residual_wide_digest(_digest_runner(capsys), 3) == RESIDUAL_WIDE_SHA256[3]


def test_residual_output_on_seed_4_inputs_is_pinned(capsys):
    # every byte of residual's JSON array is joined from encoded lines, not
    # written by reports.dumps, so a fourth seed pins more of that output
    assert residual_wide_digest(_digest_runner(capsys), 4) == RESIDUAL_WIDE_SHA256[4]


@pytest.mark.parametrize("seed", sorted(ENUMERATE_SCALED_SHA256))
def test_enumerate_output_on_generated_inputs_is_pinned(seed, capsys):
    # enumerate in JSON, plain and --verbose, on the 100 enumerate-scaled
    # inputs of the seed: 6-13 places of all five families
    assert enumerate_scaled_digest(_digest_runner(capsys), seed) == ENUMERATE_SCALED_SHA256[seed]


def test_packet_output_on_generated_inputs_is_pinned(capsys):
    # packet in JSON at every place of the 40 Soudry and tempered
    # enumerate-scaled inputs of seed 1: each entry's label, member and flags
    assert packet_digest(_digest_runner(capsys)) == PACKET_SHA256


def _refuse_text(monkeypatch):
    """Make every text renderer fail the test if it is called.

    Both the module's ``_<command>_text`` functions and whatever renderer a
    command hands to its report are replaced.
    """

    def refuser(command):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command}: text form rendered")

        return refuse

    for command in COMMANDS:
        monkeypatch.setattr(cli, f"_{command.replace('-', '_')}_text", refuser(command))
    monkeypatch.setattr(cli, "Report", lambda command, data, text: Report(command, data, refuser(command)))


def test_json_form_renders_no_text(monkeypatch, capsys):
    _refuse_text(monkeypatch)
    json_calls = {name: argv for name, argv in golden_calls().items() if name.endswith(".json")}
    assert {argv[0] for argv in json_calls.values()} == set(COMMANDS)
    for name, argv in json_calls.items():
        _check(name, argv, capsys)


def test_text_form_calls_the_renderer(monkeypatch):
    _refuse_text(monkeypatch)
    with pytest.raises(AssertionError, match="classify: text form rendered"):
        main(golden_calls()["sk.classify.txt"])
