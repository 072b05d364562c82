"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs a few verdict-mix requests through geodisc.cli.main, requires each
clean report to pass `checks.check`, then corrupts each report the way a
wrong program could and requires the check to reject it: a flipped verdict,
a left-inverse residual of 1e-6, a falsifier witness scaled out of the
domain, and a Schur degree off by one.  Exits 1 if a clean report is
rejected or a corrupted one passes.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402


def flip(field, a, b):
    def corrupt(report):
        res = report["result"]
        res[field] = b if res[field] == a else a
    return corrupt


def residual_1e6(report):
    # F + 1e-6: F(f(lam)) - B(lam) = 1e-6 on the whole circle
    terms = report["result"]["certificate"]["left_inverse"]["terms"]
    nvars = len(terms[0][1])
    terms.append([[1e-6, 0.0], [0] * nvars])


def witness_out_of_domain(report):
    """Scale the witness's correction B * Q about its node interpolant L,
    so the node values stay exact, until the own gauge passes 1.05 on the
    check's grid."""
    req_doc = report["input"]
    witness = report["result"]["witness"]
    base = copy.deepcopy(witness)
    for s in [2.0 ** k for k in range(1, 40)]:
        for comp, orig in zip(witness["components"], base["components"]):
            q = comp["terms"][1]["factors"][1]
            q["coeffs"] = [[s * re, s * im] for re, im in orig["terms"][1]["factors"][1]["coeffs"]]
        Z = checks.eval_map(witness, checks.FINE_GRID)
        if checks.closed_form_gauge(req_doc["domain"], Z).max() > 1.05:
            return
    raise AssertionError("witness correction too small to leave the domain")


def schur_plus_one(report):
    report["result"]["degree"] += 1


# request id -> corruptions to try on its report
CASES = {
    "certify ball3 small": [("flipped verdict", flip("verdict", "certified", "refuted")),
                            ("residual 1e-6", residual_1e6)],
    "certify power-pair-geodesic small": [("residual 1e-6", residual_1e6)],
    "falsify interior ball": [("flipped verdict", flip("status", "falsified", "unknown")),
                              ("witness scaled out of the domain", witness_out_of_domain)],
    "falsify interior polydisc": [("witness scaled out of the domain", witness_out_of_domain)],
    "schur blaschke d=3": [("Schur degree off by one", schur_plus_one)],
    "pick blaschke d=2": [("flipped verdict", flip("classification", "singular_psd",
                                                    "positive_definite"))],
    "profile interior constant": [("flipped verdict", flip("almost_proper", False, True))],
}


def main() -> int:
    work = run.OUT / "selftest"
    cli = run.import_cli()
    reqs = {r["id"]: r for r in run.write_inputs("verdict-mix", 0, work)}
    bad = 0
    try:
        (work / "rep").mkdir()
        for rid, corruptions in CASES.items():
            req = reqs[rid]
            out = work / "rep" / f"{len(rid)}-{rid.replace(' ', '_')}.json"
            cli.main(run.argv_for(req, str(out)))
            text, csv_text = run.read_report(out)
            report = json.loads(text)
            reason = checks.check(req, report, csv_text)
            print(f"clean      {rid}: {'ok' if reason is None else 'REJECTED: ' + reason}")
            bad += reason is not None
            for label, corrupt in corruptions:
                broken = copy.deepcopy(report)
                corrupt(broken)
                reason = checks.check(req, broken, csv_text)
                print(f"corrupted  {rid} / {label}: "
                      f"{'rejected: ' + reason if reason else 'NOT REJECTED'}")
                bad += reason is None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
