"""Reference figures quoted in bench/README.md, measured again.

    python3 bench/reference.py

Prints: the gauge `minkowski_many` on 100,000 points by domain; single
in-process CLI requests by verb; the import time of geodisc.cli in fresh
interpreters; the spread of one certify request repeated in one process;
`jsonschema.validate` against a validator built once; the falsify
workload with one BLAS thread against OpenBLAS's default pool; and the
tracing overhead, from traced and untraced passes alternated in one
process.  Takes about five minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets one BLAS thread for this process)


def timed(fn, repeat):
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def gauge_figures():
    import numpy as np
    from geodisc import domains
    rng = np.random.default_rng(0)
    cases = {"ball(2)": domains.Ball(2), "polydisc(2)": domains.Polydisc(2),
             "ellipsoid(0.5,0.5)": domains.Ellipsoid((0.5, 0.5)),
             "ellipsoid(1,2)": domains.Ellipsoid((1.0, 2.0)),
             "squared_sum_gauge": domains.squared_sum_gauge(),
             "semilinear_gauge": domains.semilinear_gauge()}
    print("gauge minkowski_many on 100,000 points (median of 3):")
    for name, dom in cases.items():
        Z = rng.standard_normal((100_000, dom.dim)) + 1j * rng.standard_normal((100_000, dom.dim))
        t = timed(lambda: domains.minkowski_many(dom, Z), 3)
        print(f"  {name:20s} {1e3 * statistics.median(t):7.1f} ms")


def request_figures(cli, work):
    reqs = {r["id"]: r for r in run.write_inputs("verdict-mix", 0, work)}
    picks = {"pick": "pick blaschke d=3", "sn": next(k for k in reqs if k.startswith("sn ")),
             "profile": "profile squared-sum-triple",
             "certify --samples 2000": "certify squared-sum-triple small",
             "certify ball3 --samples 2000": "certify ball3 small"}
    print("in-process CLI requests (median of 30, after 3 warm-up calls):")
    for label, rid in picks.items():
        argv = run.argv_for(reqs[rid], str(work / "out.json"))
        timed(lambda: cli.main(argv), 3)
        t = timed(lambda: cli.main(argv), 30)
        print(f"  {label:28s} {1e3 * statistics.median(t):7.2f} ms")
    cert = run.write_inputs("certify", 0, work / "c")
    argv = run.argv_for(cert[0], str(work / "out.json"))
    cli.main(argv)
    t = timed(lambda: cli.main(argv), 15)
    q1, q2, q3 = statistics.quantiles(t, n=4)
    print(f"certify {cert[0]['id']!r} x15 in one process: median {1e3 * q2:.1f} ms, "
          f"IQR {100 * (q3 - q1) / q2:.1f} % of the median")


def schema_figures():
    import jsonschema
    from geodisc import cli
    schema = cli._load_schema("pick")
    doc = {"nodes": [[0.1 * k, 0.0] for k in range(6)], "values": [[0.05 * k, 0.0] for k in range(6)]}
    validator = jsonschema.Draft202012Validator(schema)
    a = timed(lambda: jsonschema.validate(doc, schema), 200)
    b = timed(lambda: validator.validate(doc), 200)
    print(f"pick schema: jsonschema.validate {1e3 * statistics.median(a):.2f} ms, "
          f"prebuilt Draft202012Validator {1e3 * statistics.median(b):.3f} ms (median of 200)")


def import_figures():
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import geodisc.cli; print(time.perf_counter() - t)")
    t = [float(subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, capture_output=True,
                              text=True, check=True).stdout) for _ in range(7)]
    print(f"import geodisc.cli in 7 fresh interpreters: median {statistics.median(t):.3f} s, "
          f"range {min(t):.3f}-{max(t):.3f} s")


BLAS_CHILD = """
import json, os, resource, statistics, sys, time
sys.path.insert(0, 'bench'); sys.path.insert(0, 'src')
import numpy, workloads
from pathlib import Path
import geodisc.cli as cli
work = Path(sys.argv[1])
reqs = workloads.build('falsify', 0)
work.mkdir(parents=True, exist_ok=True)
lat = []
ru0, w0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
for i, r in enumerate(reqs * 2):
    p = work / f'{i}.json'
    p.write_text(json.dumps(r['doc']))
    t = time.perf_counter()
    cli.main(['falsify', '--input', str(p), '--output', str(work / 'o.json')])
    lat.append(time.perf_counter() - t)
ru1, w1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
print(json.dumps({'median_ms': 1e3 * statistics.median(lat), 'cpu_per_wall': cpu / (w1 - w0)}))
"""


def blas_figures(work, rounds=3):
    print(f"falsify workload, 24 requests, one BLAS thread vs the default pool, {rounds} rounds alternated:")
    res = {"1 thread": [], "default pool": []}
    for _ in range(rounds):
        for label, threads in (("1 thread", "1"), ("default pool", None)):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            if threads:
                env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", BLAS_CHILD, str(work / "blas")],
                                 cwd=run.ROOT, env=env, capture_output=True, text=True,
                                 check=True).stdout
            res[label].append(json.loads(out.strip().splitlines()[-1]))
    for label, rs in res.items():
        ms = ", ".join(f"{r['median_ms']:.0f}" for r in rs)
        cpu = ", ".join(f"{r['cpu_per_wall']:.2f}" for r in rs)
        print(f"  {label:13s} median ms per request {ms}; CPU-s per wall-s {cpu}")


def tracing_overhead(cli, work):
    from spans import Tracer
    print("tracing overhead, traced vs untraced passes alternated in one process (seed 1):")
    for workload, pairs in (("certify", 2), ("falsify", 3), ("verdict-mix", 12)):
        reqs = run.write_inputs(workload, 1, work / workload)
        run.run_pass(cli, reqs, work / workload)
        ratios = []
        for _ in range(pairs):
            plain = sum(run.run_pass(cli, reqs, work / workload)[0])
            tracer = Tracer()
            tracer.install()
            try:
                traced = sum(run.run_pass(cli, reqs, work / workload, tracer)[0])
            finally:
                tracer.uninstall()
            ratios.append(traced / plain)
        print(f"  {workload:12s} traced/untraced pass time: median {statistics.median(ratios):.3f} "
              f"over {pairs} pairs ({', '.join(f'{r:.3f}' for r in ratios)})")


def main():
    work = run.OUT / "reference"
    cli = run.import_cli()
    try:
        gauge_figures()
        request_figures(cli, work)
        schema_figures()
        import_figures()
        blas_figures(work)
        tracing_overhead(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
