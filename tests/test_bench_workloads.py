"""The benchmark's falsify trajectories, pinned in the tier-1 suite.

The 24 falsify requests of `bench/workloads.py` (12 per seed, seeds 1 and 2)
run in-process through `cli.main`, as `bench/run.py` runs them, and each
report's (status, evaluations, repr(best_defect)) is pinned.  A speed-up of
the falsifier that moves one of them changes the benchmark's work, so it
has to re-pin here by name.  `bench/` is only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from geodisc import cli
from geodisc.domains import domain_from_json

from test_pick import assert_grid_lsq_matches_lstsq, grid_problem, lawson_weights

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (seed, request id): (status, evaluations, repr(best_defect))
FALSIFY_PINS = {
    (1, 'polydisc m=2 d=1'): ('unknown', 2045, '4.210814963490073e-05'),
    (1, 'polydisc m=3 d=2'): ('unknown', 1760, '5.571491787925709e-07'),
    (1, 'polydisc m=4 d=1'): ('unknown', 2038, '7.31101588491434e-06'),
    (1, 'polydisc m=5 d=4'): ('unknown', 3937, '0.000951824937285517'),
    (1, 'ball m=2 d=1'): ('unknown', 2841, '0.003932651198539583'),
    (1, 'ball m=3 d=1'): ('unknown', 1433, '1.9911639870251463e-07'),
    (1, 'ball m=4 d=3'): ('unknown', 6000, '0.0024264564064169214'),
    (1, 'ball m=5 d=1'): ('unknown', 3693, '0.0023090320804686204'),
    (1, 'ellipsoid m=2 d=1'): ('unknown', 2897, '0.023686865975156124'),
    (1, 'ellipsoid m=3 d=2'): ('unknown', 2985, '0.014246883453187253'),
    (1, 'ellipsoid m=4 d=1'): ('unknown', 2829, '0.00019118880727164722'),
    (1, 'ellipsoid m=5 d=4'): ('unknown', 5961, '0.01662552966488362'),
    (2, 'polydisc m=2 d=1'): ('unknown', 2381, '3.6168208835229976e-05'),
    (2, 'polydisc m=3 d=2'): ('unknown', 1632, '5.447857029938774e-07'),
    (2, 'polydisc m=4 d=1'): ('unknown', 2182, '7.298885093875995e-06'),
    (2, 'polydisc m=5 d=4'): ('unknown', 3857, '0.0012292916811702526'),
    (2, 'ball m=2 d=1'): ('unknown', 3345, '0.004930404712782499'),
    (2, 'ball m=3 d=1'): ('unknown', 1433, '1.9911639825842542e-07'),
    (2, 'ball m=4 d=3'): ('unknown', 3480, '0.00280196856019721'),
    (2, 'ball m=5 d=1'): ('unknown', 3693, '0.0024491645667792383'),
    (2, 'ellipsoid m=2 d=1'): ('unknown', 3961, '0.026962469853881066'),
    (2, 'ellipsoid m=3 d=2'): ('unknown', 3817, '0.010119047336933917'),
    (2, 'ellipsoid m=4 d=1'): ('unknown', 2685, '0.00015926433903801218'),
    (2, 'ellipsoid m=5 d=4'): ('unknown', 5401, '0.0142274079587692'),
}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # workloads.py imports the benchmark's own checks.py
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_falsify_workload_trajectories_pinned(tmp_path, workloads, seed):
    got = {}
    for req in workloads.build("falsify", seed):
        inp, out = tmp_path / "in.json", tmp_path / "report.json"
        inp.write_text(json.dumps(req["doc"]))
        code = cli.main([req["verb"], "--input", str(inp), "--output", str(out)] + req["args"])
        result = json.loads(out.read_text())["result"]
        got[seed, req["id"]] = (result["status"], result["evaluations"], repr(result["best_defect"]))
        assert code == 3, req["id"]
    assert got == {key: pin for key, pin in FALSIFY_PINS.items() if key[0] == seed}


@pytest.mark.parametrize("seed", [1, 2])
def test_grid_lsq_matches_lstsq_after_40_lawson_updates(workloads, seed):
    # the FFT normal equations square the condition number that lstsq sees;
    # on the workload's searches the weights never concentrate enough to matter
    for req in workloads.build("falsify", seed):
        doc = req["doc"]
        nodes = [complex(*x) for x in doc["nodes"]]
        values = [[complex(*v) for v in row] for row in doc["values"]]
        L, B, V = grid_problem(nodes, values)
        assert_grid_lsq_matches_lstsq(lawson_weights(L, B, V, domain_from_json(doc["domain"]), 40), L, B, V)
