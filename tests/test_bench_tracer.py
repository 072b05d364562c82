"""The traced benchmark run wraps library names from outside; they must exist."""

import importlib.util
from pathlib import Path

from geodisc import cli, maps

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    # install() looks up every name it wraps, so a renamed or deleted one
    # (a family builder, blaschke_degree_of_data, boundary_samples) raises here
    spans = load_spans()
    before = (maps.power_pair_map, cli.blaschke_degree_of_data, cli.main)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert maps.power_pair_map._bench_traced
        assert cli.blaschke_degree_of_data._bench_traced
    finally:
        tracer.uninstall()
    assert (maps.power_pair_map, cli.blaschke_degree_of_data, cli.main) == before
