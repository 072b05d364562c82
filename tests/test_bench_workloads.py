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

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (seed, request id): (status, evaluations, repr(best_defect))
FALSIFY_PINS = {
    (1, 'polydisc m=2 d=1'): ('unknown', 2045, '4.210814963467868e-05'),
    (1, 'polydisc m=3 d=2'): ('unknown', 1760, '5.571491787925709e-07'),
    (1, 'polydisc m=4 d=1'): ('unknown', 2038, '7.31101588491434e-06'),
    (1, 'polydisc m=5 d=4'): ('unknown', 3937, '0.000951824937285739'),
    (1, 'ball m=2 d=1'): ('unknown', 2841, '0.003932651198539805'),
    (1, 'ball m=3 d=1'): ('unknown', 1433, '1.9911639848047002e-07'),
    (1, 'ball m=4 d=3'): ('unknown', 6000, '0.002426456406419586'),
    (1, 'ball m=5 d=1'): ('unknown', 3693, '0.0023090320804681763'),
    (1, 'ellipsoid m=2 d=1'): ('unknown', 2897, '0.023686865975155902'),
    (1, 'ellipsoid m=3 d=2'): ('unknown', 2985, '0.014246883453187031'),
    (1, 'ellipsoid m=4 d=1'): ('unknown', 2829, '0.00019118880727142518'),
    (1, 'ellipsoid m=5 d=4'): ('unknown', 5961, '0.01662552966488451'),
    (2, 'polydisc m=2 d=1'): ('unknown', 2381, '3.6168208835229976e-05'),
    (2, 'polydisc m=3 d=2'): ('unknown', 1632, '5.447857034379666e-07'),
    (2, 'polydisc m=4 d=1'): ('unknown', 2182, '7.298885093875995e-06'),
    (2, 'polydisc m=5 d=4'): ('unknown', 3857, '0.0012292916811704746'),
    (2, 'ball m=2 d=1'): ('unknown', 3345, '0.004930404712783165'),
    (2, 'ball m=3 d=1'): ('unknown', 1433, '1.9911639870251463e-07'),
    (2, 'ball m=4 d=3'): ('unknown', 3480, '0.002801968560197654'),
    (2, 'ball m=5 d=1'): ('unknown', 3693, '0.0024491645667790163'),
    (2, 'ellipsoid m=2 d=1'): ('unknown', 3961, '0.026962469853881954'),
    (2, 'ellipsoid m=3 d=2'): ('unknown', 3817, '0.010119047336934361'),
    (2, 'ellipsoid m=4 d=1'): ('unknown', 2685, '0.00015926433903823423'),
    (2, 'ellipsoid m=5 d=4'): ('unknown', 5401, '0.014227407958768312'),
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
