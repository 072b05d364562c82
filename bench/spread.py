"""Run one workload under several seeds and summarize each metric.

    python3 bench/spread.py --workload falsify --seeds 1-10

Each run is a fresh untraced `bench/run.py` process at its default
`--seconds`, one at a time.  For every metric it prints the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread (Q3 - Q1) / median, plus the failed share, and appends the raw
results to bench/out/spread-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a range, e.g. 1-10")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    (HERE / "out").mkdir(exist_ok=True)
    results = []
    for seed in range(lo, hi + 1):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--trace", "0"],
                              capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        with open(HERE / "out" / f"spread-{args.workload}.jsonl", "a") as fh:
            fh.write(json.dumps(res) + "\n")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
          f"failed shares {sorted(shares)}")
    print(f"{'metric':44s} {'median':>11s} {'Q1':>11s} {'Q3':>11s} {'spread':>8s}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:44s} {med:11.5g} {q1:11.5g} {q3:11.5g} {100 * spread:7.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
