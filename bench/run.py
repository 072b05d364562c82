"""geodisc benchmark: one workload, closed loop, one caller, in-process CLI.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a geodisc checkout; the program is imported from its
`src/`.  The run builds the workload's JSON inputs, makes one untimed
warm-up pass over them and then a fixed whole number of timed passes, each
request a call of `geodisc.cli.main` with `--input`/`--output` files, the
same entry point the `geodisc` command calls.  Afterwards every report is
checked by `checks.py`.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, the end-to-end ones with
`--trace 0` and the per-layer ones from `spans.py` with `--trace 1`.
See bench/README.md.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads.  With OpenBLAS's default
# pool the falsify workload burns about 1.3 CPU-seconds per wall-second for
# no clear gain in wall time on a 2-core machine (bench/reference.py), and
# the extra thread competes with everything else on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Seconds one timed pass takes on the reference machine (2-core x86-64
# container, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31 at one thread).
# A run makes ceil(--seconds / NOMINAL_PASS_S) timed passes, and enough of
# them to time at least MIN_TIMED requests: the work per run is fixed by
# --seconds alone, never by the clock.
NOMINAL_PASS_S = {"certify": 12.0, "falsify": 4.0, "verdict-mix": 0.6}
MIN_TIMED = 40  # latency_tail_ms needs ten samples beyond it
# Extra set-ups in fresh interpreters for the median setup_s, half before
# the timed passes and half after, so that they sample the host over the
# whole run rather than one moment of it.
SETUP_PROBES = 14

# The benchmark's own modules load numpy, so they are imported only after
# geodisc.cli: the set-up clock must see numpy's import, as a user does.
sys.path.insert(0, str(HERE))


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import geodisc.cli from this checkout's src/, nowhere else."""
    if not (SRC / "geodisc" / "cli.py").is_file():
        fail(f"no geodisc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("geodisc.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "geodisc").resolve():
        fail(f"imported geodisc from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(workload: str, seed: int, work: Path) -> list:
    import workloads
    reqs = workloads.build(workload, seed)
    (work / "in").mkdir(parents=True, exist_ok=True)
    for i, req in enumerate(reqs):
        req["input"] = str(work / "in" / f"{i:03d}.json")
        with open(req["input"], "w") as fh:
            json.dump(req["doc"], fh)
    return reqs


def setup(workload: str, seed: int, work: Path):
    """Import geodisc.cli and build the inputs: the set-up a user pays."""
    t0 = time.perf_counter()
    cli = import_cli()
    t1 = time.perf_counter()
    reqs = write_inputs(workload, seed, work)
    t2 = time.perf_counter()
    return cli, reqs, t1 - t0, t2 - t0


def probe_setups(args, count: int) -> list:
    """Set up `count` more times, each in a fresh interpreter."""
    samples = []
    for k in range(count):
        work = OUT / f"probe-{os.getpid()}-{k}"
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-probe", str(work)],
                capture_output=True, text=True, timeout=120, cwd=ROOT)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def argv_for(req: dict, out: str) -> list:
    """The request's command line; the program keeps its own default seed."""
    return [req["verb"], "--input", req["input"], "--output", out] + req["args"]


def run_pass(cli, reqs, out_dir: Path, tracer=None):
    """One closed-loop pass: each request starts when the previous returns."""
    lat, codes = [], []
    for i, req in enumerate(reqs):
        argv = argv_for(req, str(out_dir / f"{i:03d}.json"))
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - t0)
        codes.append(code)
    return lat, codes


def read_report(path: Path):
    try:
        text = path.read_text()
    except OSError:
        return None, None
    csv_path = path.with_suffix(".csv")
    csv_text = csv_path.read_text() if csv_path.exists() else None
    return text, csv_text


def tail(values: list):
    """Highest percentile with ten samples beyond it: (percentile, value)."""
    s = sorted(values)
    k = len(s) - 10              # 1-based rank of the tail sample
    return 100.0 * k / len(s), s[k - 1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.setup_probe:
        _, _, imp, total = setup(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"import_s": imp, "setup_s": total}))
        return

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, reqs, imp, total = setup(args.workload, args.seed, work)
        setups = [{"import_s": imp, "setup_s": total}] + probe_setups(args, SETUP_PROBES // 2)
        result = measure(args, cli, reqs, work, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(args, cli, reqs, work: Path, setups: list):
    """Warm up, run the timed passes, make the rest of the set-ups, check
    every report; the result."""
    import checks
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    passes = max(math.ceil(MIN_TIMED / len(reqs)),
                 math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
    (work / "warm").mkdir()
    run_pass(cli, reqs, work / "warm", tracer)
    if tracer is not None:
        tracer.reset()
    lats, codes = [], []
    wall0 = time.perf_counter()
    for p in range(passes):
        out_dir = work / f"p{p}"
        out_dir.mkdir()
        lat, code = run_pass(cli, reqs, out_dir, tracer)
        lats.append(lat)
        codes.append(code)
    wall = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    setups += probe_setups(args, SETUP_PROBES - SETUP_PROBES // 2)
    setup_s = statistics.median(p["setup_s"] for p in setups)
    import_s = statistics.median(p["import_s"] for p in setups)

    # correctness: every report of every timed pass; byte-identical reports
    # of one request share one verdict
    verdicts, failures, unexpected = {}, [], []
    evaluations = 0
    for p in range(passes):
        for i, req in enumerate(reqs):
            text, csv_text = read_report(work / f"p{p}" / f"{i:03d}.json")
            key = (i, hashlib.sha256(f"{text}\0{csv_text}".encode()).hexdigest())
            if key not in verdicts:
                report = json.loads(text) if text is not None else None
                evals = report["result"].get("evaluations", 0) if req["verb"] == "falsify" and report else 0
                verdicts[key] = (checks.check(req, report, csv_text), evals)
            reason, evals = verdicts[key]
            evaluations += evals
            if not isinstance(codes[p][i], int):
                reason = f"raised {codes[p][i]}"
            if reason is not None:
                failures.append((req["id"], reason))
                if not req["known_fault"]:
                    unexpected.append((req["id"], reason))
    for rid, reason in sorted(set(failures)):
        kind = "known fault" if (rid, reason) not in unexpected else "FAILED"
        print(f"{kind}: {rid}: {reason}")

    flat = [x for lat in lats for x in lat]
    attempted = len(flat)
    pct, tail_s = tail(flat)
    print(f"workload {args.workload} seed {args.seed}: {passes} timed passes of {len(reqs)} "
          f"requests = {attempted} attempted, {len(failures)} failed; "
          f"latency tail is p{pct:.1f} (rank {attempted - 10} of {attempted})")
    if tracer is None:
        metrics = {
            "requests_per_s": (attempted - len(failures)) / wall,
            "latency_p50_ms": 1e3 * statistics.median(flat),
            "latency_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = {"requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                 "peak_rss_mb": "MiB", "setup_s": "s"}
    else:
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics, units = layer_metrics(tracer.summary(), evaluations, import_s)
        print(f"traced run: {attempted / wall:.4g} requests/s, "
              f"p50 {1e3 * statistics.median(flat):.4g} ms (compare an untraced run)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def layer_metrics(summary: dict, evaluations: int, import_s: float):
    from spans import GAUGE_KINDS
    busy, self_s, counts = summary["busy_s"], summary["self_s"], summary["counts"]
    calls = counts.get("domains.minkowski_many.calls", 0)
    falsify_s = busy.get("pick.falsify_weak_extremality", 0.0)
    m = {"domains.minkowski_many.busy_s": busy.get("domains.minkowski_many", 0.0)}
    for kind in GAUGE_KINDS:
        m[f"domains.minkowski_many.busy_s.{kind}"] = busy.get(f"domains.minkowski_many.{kind}", 0.0)
    m.update({
        "domains.minkowski_many.calls": calls,
        "domains.minkowski_many.points": counts.get("domains.minkowski_many.points", 0),
        "domains.defect_many.calls": counts.get("domains.defect_many.calls", 0),
        "domains.defect_many.per_gauge_call":
            counts.get("domains.defect_many.in_gauge", 0) / calls if calls else 0.0,
        "domains.boundary_samples.busy_s": busy.get("domains.boundary_samples", 0.0),
        "pick.falsify_weak_extremality.self_s": self_s.get("pick.falsify_weak_extremality", 0.0),
        "pick.falsifier.evaluations": evaluations,
        "pick.falsifier.evaluations_per_s": evaluations / falsify_s if falsify_s else 0.0,
        "pick.classify_pick.busy_s": busy.get("pick.classify_pick", 0.0),
        "cplane.busy_s": busy.get("cplane", 0.0),
        "mapspec.busy_s": busy.get("mapspec", 0.0),
        "maps.busy_s": busy.get("maps", 0.0),
        "certify.verify_left_inverse.self_s": self_s.get("certify.verify_left_inverse", 0.0),
        "certify.properness_profile.self_s": self_s.get("certify.properness_profile", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.import_s": import_s,
    })
    units = {k: ("s" if k.endswith("_s") or "busy_s" in k else "count") for k in m}
    units["domains.defect_many.per_gauge_call"] = "calls/call"
    units["pick.falsifier.evaluations_per_s"] = "1/s"
    return m, units


if __name__ == "__main__":
    main()
