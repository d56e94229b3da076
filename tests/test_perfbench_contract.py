"""What the benchmark harness under perfbench/ reads of the package.

The traced run patches every ``TARGETS`` and ``COUNTED`` path of
``perfbench/tracer.py`` and keys its distinct-input counts on the
arguments of ``localize`` and ``local_packet``; ``perfbench/oracle.py``
unpacks ``localize`` as ``(lp, group, iota)`` and reads the packet labels'
sign values; the tracer takes ``len()`` of the enumerate and residual
results.  A refactor that breaks one of these fails here, not only when
the benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

from mp4spectrum.localization import localize
from mp4spectrum.multiplicity import enumerate_constituents
from mp4spectrum.residual import residual_spectrum
from mp4spectrum.scenario import load_scenario

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = ("hps", "hps_degenerate", "principal", "sk", "sk_steinberg", "soudry", "tempered")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture(name):
    return load_scenario(os.path.join(ROOT, "fixtures", f"{name}.json"))


def test_tracer_paths_resolve_in_the_package():
    tracer = _bench_module("tracer")
    paths = [(mod, path) for _, mod, path, _ in tracer.TARGETS] + [(mod, path) for _, mod, path in tracer.COUNTED]
    for mod, path in paths:
        home = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        if "." in path:
            cls_name, attr = path.split(".")
            # patched on the class itself, so it must be defined there
            assert attr in vars(getattr(home, cls_name)), f"{mod}.{path}"
        else:
            assert callable(getattr(home, path)), f"{mod}.{path}"


@pytest.mark.parametrize("name", FIXTURES)
def test_localize_triple_and_oracle_count(name):
    tracer, oracle = _bench_module("tracer"), _bench_module("oracle")
    sc = _fixture(name)
    sc.validate()
    for place in sc.places:
        lp, group, iota = localize(sc.parameter, place)
        assert iota.target == group and len(iota.rows) == len(sc.parameter.summands)
        assert tracer._localize_key((sc.parameter, place)) == (sc.parameter.basis_labels(), place.id)
        assert isinstance(tracer._packet_key((lp,)), str)
    cons = enumerate_constituents(sc.parameter, sc.places)
    assert oracle.character_sum_count(sc.parameter, sc.places) == len(cons)


def test_result_counts_accept_the_results():
    tracer = _bench_module("tracer")
    sc = _fixture("hps")
    results = {
        "multiplicity.enumerate_constituents": enumerate_constituents(sc.parameter, sc.places),
        "residual.residual_spectrum": residual_spectrum(sc.places, sc.elements, sc.cuspidal, sc.mp2_weil),
        "fields.validate_reciprocity": sc.reciprocity_report(),
    }
    assert set(results) == set(tracer.RESULT_COUNTS)
    for name, result in results.items():
        _, count = tracer.RESULT_COUNTS[name]
        assert count(result) >= 0
