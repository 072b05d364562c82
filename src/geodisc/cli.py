"""Command-line front end: JSON in, JSON report out, CSV for profiles.

Verbs map one-to-one onto library operations.  Each handler answers its
verb's question with a `Verdict`: yes, no or unknown.  `main` alone turns
the answer into the exit code (`EXIT_CODES`: 0 yes, 2 no, 3 unknown; 1 is
an error).  Every report embeds the package version, the input, the policy
fields the verb's flags and input keys set, and the result, serialized with
sorted keys so identical inputs give byte-identical reports.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import resources
from typing import Callable, NamedTuple

import jsonschema

from . import __version__
from .certify import (CERTIFIED, INCONCLUSIVE, REFUTED, ball3_inputs,
                      ball_monomial_inputs, monomial_curve_inputs,
                      properness_profile, verify_left_inverse)
from .cplane import BlaschkeProduct, blaschke_degree_of_data
from .domains import domain_from_json, sn_membership
from .errors import (DegenerateInstanceError, GaugeError, GeodiscError,
                     InfeasibleDataError)
from .maps import (FAMILIES, ball3_equivalent_params, ball3_solve_params,
                   ball3_verify_params, edigarian_check, edigarian_complete,
                   edigarian_normalize)
from .mapspec import MapSpec, MultiPoly
from .pick import INDEFINITE, SINGULAR_PSD, classify_pick, falsify_weak_extremality
from .policy import DEFAULT_POLICY


def _load_schema(verb: str) -> dict:
    text = resources.files("geodisc").joinpath("schemas", f"{verb}.v1.json").read_text()
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _validator(verb: str) -> jsonschema.Draft202012Validator:
    """The verb's schema validator; tier-1 checks each schema against the metaschema."""
    return jsonschema.Draft202012Validator(_load_schema(verb))


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in input")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token} overflows to {value} in input")
    return value


def _cpx(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    return complex(pair[0], pair[1])


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


EXIT_CODES = {"yes": 0, "no": 2, "unknown": 3}


class Verdict(NamedTuple):
    """A verb's answer (a key of EXIT_CODES), its report's result, and the
    CSV written beside the report, if any."""
    answer: str
    result: dict
    csv: str | None = None


# ---------------------------------------------------------------------------
# verb handlers: (doc, policy) -> Verdict
# ---------------------------------------------------------------------------

def _data(doc):
    """The (nodes, values) of a pick or schur document."""
    return [_cpx(x) for x in doc["nodes"]], [_cpx(x) for x in doc["values"]]


def _cmd_pick(doc, policy):
    v = classify_pick(*_data(doc), policy)
    feasibility = {SINGULAR_PSD: "true", INDEFINITE: "infeasible"}.get(v.tag, "false")
    return Verdict("yes" if v.tag == SINGULAR_PSD else "no", {
        "classification": v.tag,
        "rank": v.rank,
        "null_dim": v.null_dim,
        "forced_degree": v.forced_degree,
        "min_eigenvalue": v.min_eigenvalue,
        "matrix_norm": v.norm,
        "weak_extremal": feasibility,
    })


def _cmd_schur(doc, policy):
    try:
        deg = blaschke_degree_of_data(*_data(doc), policy)
    except InfeasibleDataError as exc:
        return Verdict("no", {"feasible": False, "reason": str(exc)})
    return Verdict("yes", {"feasible": True, "degree": deg})


# each certify input form, keyed and ordered like the oneOf branches of
# certify.v1.json: doc -> (f, F, B, dom, m) for verify_left_inverse
CERTIFY_FORMS = {
    "family": lambda doc: FAMILIES[doc["family"]].certificate_inputs(doc["m"], doc["a"]),
    "ball_monomial": lambda doc: ball_monomial_inputs(**doc["ball_monomial"]),
    "ball3": lambda doc: ball3_inputs(**doc["ball3"]),
    "monomial_curve": lambda doc: monomial_curve_inputs(**doc["monomial_curve"]),
    "map": lambda doc: (MapSpec.from_json(doc["map"]), MultiPoly.from_json(doc["left_inverse"]),
                        BlaschkeProduct.from_json(doc["blaschke"]),
                        domain_from_json(doc["domain"]), doc["m"]),
}


def _cmd_certify(doc, policy):
    if "family" in doc:
        refusal = FAMILIES[doc["family"]].refusal(doc["m"], doc["a"])
        if refusal is not None:
            return Verdict("no", {"verdict": REFUTED, **refusal})
    form = next(key for key in CERTIFY_FORMS if key in doc)
    cert = verify_left_inverse(*CERTIFY_FORMS[form](doc), policy=policy)
    answer = {CERTIFIED: "yes", REFUTED: "no", INCONCLUSIVE: "unknown"}[cert.verdict]
    return Verdict(answer, {"verdict": cert.verdict, "certificate": cert.to_json()})


def _cmd_edigarian(doc, policy):
    a = [_cpx(x) for x in doc["a"]]
    p = list(doc["p"])
    alpha = [[_cpx(x) for x in row] for row in doc["alpha"]]
    r = [list(row) for row in doc["r"]]
    build = edigarian_normalize if doc.get("normalize") else edigarian_complete
    try:
        form = build(a, p, alpha, r)
    except InfeasibleDataError as exc:
        return Verdict("no", {"completed": False, "reason": str(exc)})
    except DegenerateInstanceError as exc:
        return Verdict("unknown", {"completed": False, "reason": str(exc)})
    return Verdict("yes", {
        "completed": True,
        "form": form.to_json(),
        "alpha0": [_pair(v) for v in form.alpha0],
        "residual": edigarian_check(form),
    })


def _cmd_ball3(doc, policy):
    if "forward" in doc:
        spec = doc["forward"]
        alpha, beta, gamma = ball3_equivalent_params(spec["b"], _cpx(spec["c"]))
        return Verdict("yes", {"alpha": alpha, "beta": beta, "gamma": _pair(gamma),
                               "alpha_sq": alpha * alpha, "beta_sq": beta * beta})
    spec = doc["inverse"]
    try:
        b, c = ball3_solve_params(spec["p"], spec["q"])
    except GaugeError as exc:
        return Verdict("unknown", {"solved": False, "reason": str(exc)})
    return Verdict("yes", {"solved": True, "b": b, "c": c,
                           "residual": ball3_verify_params(b, c, spec["p"], spec["q"])})


def _cmd_sn(doc, policy):
    member, detail = sn_membership(tuple(doc["p"]))
    if member:
        return Verdict("yes", {"member": True, "witness": list(detail)})
    return Verdict("no", {"member": False, "reason": detail})


def _cmd_falsify(doc, policy):
    nodes = [_cpx(x) for x in doc["nodes"]]
    dom = domain_from_json(doc["domain"])
    if "map" in doc:
        f = MapSpec.from_json(doc["map"])
        if f.dim != dom.dim:
            raise ValueError(f"need one dimension: map {f.dim}, domain {dom.dim}")
        values = f(nodes)
    else:
        values = [[_cpx(v) for v in row] for row in doc["values"]]
    res = falsify_weak_extremality(nodes, values, dom, policy)
    return Verdict("yes" if res.falsified else "unknown", {
        "status": res.status,
        "best_defect": res.best_defect,
        "evaluations": res.evaluations,
        "witness": res.witness.to_json() if res.witness is not None else None,
    })


def _cmd_profile(doc, policy):
    if "family" in doc:
        spec = doc["family"]
        fam = FAMILIES[spec["name"]]
        f, dom = fam.build(spec["m"], spec["a"]), fam.domain
    else:
        f = MapSpec.from_json(doc["map"])
        dom = domain_from_json(doc["domain"])
    prof = properness_profile(f, dom, doc.get("n_rays", 16), doc.get("n_radii", 12))
    return Verdict("yes" if prof.almost_proper else "no", prof.to_json(), prof.to_csv())


def _cmd_family(doc, policy):
    fam = FAMILIES[doc["name"]]
    return Verdict("yes", {"map": fam.build(doc["m"], doc["a"]).to_json(),
                           "domain": fam.domain.to_json()})


class Verb(NamedTuple):
    handler: Callable
    help: str
    flags: dict = {}    # command-line flag -> the policy field it overrides
    doc_keys: dict = {}  # input key -> the policy field it overrides


# the verbs in the order --help lists them
VERBS = {
    "pick": Verb(_cmd_pick, "classify the Pick matrix of disc interpolation data",
                 {"--tol": "unimodular_tol"}),
    "schur": Verb(_cmd_schur, "minimal Blaschke degree matching disc data",
                  {"--tol": "unimodular_tol"}),
    "certify": Verb(_cmd_certify, "verify a left inverse (family, ball, monomial curve or explicit)",
                    {"--samples": "boundary_samples"}),
    "edigarian": Verb(_cmd_edigarian, "complete / normalize the ellipsoid normal form"),
    "ball3": Verb(_cmd_ball3, "three-point ball normal-form parameter transforms"),
    "sn": Verb(_cmd_sn, "decide membership of an exponent vector in the coincidence class"),
    "falsify": Verb(_cmd_falsify, "search for an interior interpolant refuting weak extremality",
                    {"--tol": "falsifier_margin"}, {"budget": "falsifier_budget"}),
    "profile": Verb(_cmd_profile, "radial boundary-defect profile and Hopf ratio (CSV)"),
    "family": Verb(_cmd_family, "construct a named counterexample family map"),
}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _emit(report: dict, output: str | None, csv_text: str | None):
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
        if csv_text is not None:
            base, _ = os.path.splitext(output)
            with open(base + ".csv", "w") as fh:
                fh.write(csv_text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodisc",
        description="Extremal maps and geodesics of the disc into balanced domains")
    parser.add_argument("--version", action="version", version=f"geodisc {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, row in VERBS.items():
        p = sub.add_parser(verb, help=row.help)
        p.add_argument("--input", required=True, help="path to the JSON input document")
        p.add_argument("--output", default=None, help="path for the JSON report (stdout if omitted)")
        for flag, field in row.flags.items():
            p.add_argument(flag, dest=field, type=type(getattr(DEFAULT_POLICY, field)),
                           default=None, metavar=flag[2:].upper(),
                           help=f"override the policy's {field}")
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "refuted" here
        if exc.code == 2:
            return 1
        raise
    verb, row = args.verb, VERBS[args.verb]
    try:
        with open(args.input) as fh:
            doc = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1

    error = jsonschema.exceptions.best_match(_validator(verb).iter_errors(doc))
    if error is not None:
        message = error.message
        if len(message.encode()) > 200:  # it quotes the instance: name the path and the limit
            where = f"{error.json_path}: {error.validator} {json.dumps(error.validator_value)}"
            message = where.encode("ascii", "backslashreplace")[:200].decode()
        print(f"error: input does not match the {verb} schema: {message}", file=sys.stderr)
        return 1

    policy = DEFAULT_POLICY.with_(
        **{field: getattr(args, field) for field in row.flags.values()
           if getattr(args, field) is not None},
        **{field: doc[key] for key, field in row.doc_keys.items() if key in doc})

    try:
        verdict = row.handler(doc, policy)
    except (GeodiscError, ValueError, ArithmeticError, KeyError, IndexError, TypeError,
            RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    code, result = EXIT_CODES[verdict.answer], verdict.result
    if verdict.csv is not None:
        result["csv_rows"] = verdict.csv.count("\n") - 1
        if not args.output:
            result["csv"] = verdict.csv
    report = {
        "verb": verb,
        "version": __version__,
        "policy": {field: getattr(policy, field)
                   for field in (*row.flags.values(), *row.doc_keys.values())},
        "input": doc,
        "result": result,
        "exit_code": code,
    }
    try:
        _emit(report, args.output, verdict.csv)
    except (TypeError, ValueError) as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
