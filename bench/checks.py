"""Output checks for the benchmark, written apart from the program.

Every check reads a `geodisc` report (and, for `profile`, its CSV) and
recomputes what it can with this file's own numpy code: its own evaluator
for the serialized maps, left inverses and Blaschke products, its own
defining functions and closed-form gauges, on its own circle grids.  Nothing
here imports geodisc.  `check(request, report, csv_text)` returns None for a
correct report and a one-line reason otherwise.
"""
from __future__ import annotations

import csv
import io

import numpy as np

# Circle grids denser than the program's (1024 verification points, 512 and
# 8192 falsifier points) and offset from them by an irrational phase.
_PHASE = 0.5 * (np.sqrt(5.0) - 1.0)
CERT_GRID = np.exp(2j * np.pi * (np.arange(3001) + _PHASE) / 3001)
FINE_GRID = np.exp(2j * np.pi * (np.arange(20011) + _PHASE) / 20011)


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# ---------------------------------------------------------------------------
# own evaluators
# ---------------------------------------------------------------------------

def _moebius(a, lam):
    return (lam - a) / (1.0 - np.conj(a) * lam)


def eval_blaschke(d: dict, lam):
    out = _c(d["factor"]) * np.ones_like(lam)
    for z in d["zeros"]:
        out = out * _moebius(_c(z), lam)
    return out


def eval_expr(d: dict, lam):
    """Evaluate a serialized scalar expression on the points `lam`."""
    op = d["op"]
    if op == "const":
        return _c(d["value"]) * np.ones_like(lam)
    if op == "var":
        return lam.copy()
    if op == "poly":
        out = np.zeros_like(lam)
        for c in reversed(d["coeffs"]):
            out = out * lam + _c(c)
        return out
    if op == "moebius":
        return _moebius(_c(d["alpha"]), lam)
    if op == "intpow":
        return eval_expr(d["base"], lam) ** int(d["k"])
    if op == "sum":
        return sum((eval_expr(t, lam) for t in d["terms"]), np.zeros_like(lam))
    if op == "product":
        out = np.ones_like(lam)
        for f in d["factors"]:
            out = out * eval_expr(f, lam)
        return out
    if op == "subst":
        return eval_expr(d["outer"], eval_expr(d["inner"], lam))
    if op == "blaschke":
        return eval_blaschke(d, lam)
    raise ValueError(f"no evaluator for expression op {op!r}")


def eval_map(d: dict, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=complex)
    return np.stack([eval_expr(c, lam) for c in d["components"]], axis=-1)


def eval_multipoly(d: dict, Z) -> np.ndarray:
    out = np.zeros(Z.shape[0], dtype=complex)
    for c, exps in d["terms"]:
        term = _c(c) * np.ones(Z.shape[0], dtype=complex)
        for j, e in enumerate(exps):
            term = term * Z[:, j] ** int(e)
        out = out + term
    return out


def defining_function(dom: dict, Z) -> np.ndarray:
    """Signed defect d(z): negative inside, zero on the boundary."""
    A = np.abs(Z)
    t = dom["type"]
    if t == "ball":
        return np.sum(A ** 2, axis=1) - 1.0
    if t == "polydisc":
        return np.max(A, axis=1) - 1.0
    if t == "ellipsoid":
        return np.sum(A ** (2.0 * np.asarray(dom["p"], dtype=float)), axis=1) - 1.0
    if t == "squared_sum_gauge":
        return (A[:, 0] + A[:, 1]) ** 2 + A[:, 2] - 1.0
    if t == "semilinear_gauge":
        return A[:, 0] ** 2 + A[:, 1] ** 2 + A[:, 2] - 1.0
    raise ValueError(f"no defining function for domain {t!r}")


def closed_form_gauge(dom: dict, Z) -> np.ndarray:
    """Minkowski gauge for weights (1, ..., 1) on polydisc, ball and
    equal-exponent ellipsoids: (sum |z_j|^(2p))^(1/(2p))."""
    if any(k != 1 for k in dom.get("k", [1])):
        raise ValueError("closed forms cover weights (1, ..., 1) only")
    A = np.abs(Z)
    t = dom["type"]
    if t == "polydisc":
        return np.max(A, axis=1)
    if t == "ball":
        return np.sqrt(np.sum(A ** 2, axis=1))
    if t == "ellipsoid" and len(set(dom["p"])) == 1:
        q = 2.0 * float(dom["p"][0])
        return np.sum(A ** q, axis=1) ** (1.0 / q)
    raise ValueError(f"no closed-form gauge for domain {dom}")


# ---------------------------------------------------------------------------
# per-verb checks
# ---------------------------------------------------------------------------

def _certified(req, res):
    if res.get("verdict") != "certified":
        return f"verdict {res.get('verdict')!r}, expected 'certified'"
    cert = res["certificate"]
    Z = eval_map(cert["map"], CERT_GRID)
    resid = float(np.max(np.abs(eval_multipoly(cert["left_inverse"], Z)
                                - eval_blaschke(cert["blaschke"], CERT_GRID))))
    if not resid <= 1e-9:
        return f"own residual max|F(f) - B| = {resid:.3e} > 1e-9"
    if not cert["boundary_sup_estimate"] <= 1.0 + 1e-9:
        return f"boundary_sup_estimate {cert['boundary_sup_estimate']!r} > 1 + 1e-9"
    return None


def _refuted(req, res):
    if res.get("verdict") != "refuted":
        return f"verdict {res.get('verdict')!r}, expected 'refuted'"
    slack = req["expect"]["slack"]
    if slack is not None and not abs(res.get("slack", np.inf) - slack) <= 1e-15:
        return f"slack {res.get('slack')!r}, expected a^2 - a = {slack!r}"
    return None


def _unknown(req, res):
    if res.get("status") != "unknown":
        return f"status {res.get('status')!r} on weakly extremal data, expected 'unknown'"
    return None


def _falsified(req, res):
    if res.get("status") != "falsified":
        return f"status {res.get('status')!r} on interior data, expected 'falsified'"
    doc = req["doc"]
    w = res["witness"]
    nodes = np.array([_c(x) for x in doc["nodes"]])
    data = np.array([[_c(v) for v in row] for row in doc["values"]])
    err = float(np.max(np.abs(eval_map(w, nodes) - data)))
    if not err <= 1e-9:
        return f"witness misses the data at the nodes by {err:.3e} > 1e-9"
    top = float(np.max(closed_form_gauge(doc["domain"], eval_map(w, FINE_GRID))))
    if not top < 1.0:
        return f"witness gauge {top!r} >= 1 on the fine circle grid"
    return None


def _pick(req, res):
    exp = req["expect"]
    if res.get("classification") != exp["tag"]:
        return f"classification {res.get('classification')!r}, expected {exp['tag']!r}"
    if "rank" in exp and res.get("rank") != exp["rank"]:
        return f"rank {res.get('rank')!r}, expected {exp['rank']}"
    return None


def _schur(req, res):
    if res.get("degree") != req["expect"]["degree"]:
        return (f"schur gave {res.get('degree', 'no degree')!r} "
                f"({res.get('reason', 'feasible')}), expected degree {req['expect']['degree']}")
    return None


def sn_member(p) -> bool:
    """Generative definition: some B >= 1 has every p_j in [1, B] or = B/2.

    A coordinate below 1 can only be B/2, and with none below 1 the largest
    coordinate serves as B, so these candidates decide membership."""
    for B in [max(max(p), 1.0)] + [2.0 * v for v in p]:
        if B >= 1.0 and all(1.0 <= v <= B or v == B / 2.0 for v in p):
            return True
    return False


def _sn(req, res):
    p = req["doc"]["p"]
    want = sn_member(p)
    if res.get("member") != want:
        return f"member {res.get('member')!r}, generative definition says {want}"
    if want:
        wit = res["witness"]
        top = wit[-1]
        if not (top >= 1.0 and all(1.0 <= b <= top for b in wit[:-1])
                and all(v in wit[:-1] or v == top / 2.0 for v in p)):
            return f"witness {wit} does not generate {p}"
    return None


def _ball3_forward(req, res):
    exp = req["expect"]
    err = max(abs(res["beta_sq"] - exp["beta_sq"]), abs(_c(res["gamma"]) - exp["gamma"]),
              abs(res["alpha_sq"] + res["beta_sq"] - 1.0))
    if not err <= 1e-12:
        return f"forward parameters off the defining relations by {err:.3e}"
    return None


def _ball3_inverse(req, res):
    exp = req["expect"]
    if not res.get("solved"):
        return f"inverse not solved: {res.get('reason')}"
    err = max(abs(res["b"] - exp["b"]), abs(res["c"] - exp["c"]))
    if not err <= 1e-9:
        return f"inverse(forward(b, c)) misses (b, c) by {err:.3e}"
    return None


def _family(req, res):
    Z = eval_map(res["map"], CERT_GRID)
    off = float(np.max(np.abs(defining_function(res["domain"], Z))))
    if not off <= 1e-12:
        return f"circle image leaves the domain boundary by {off:.3e}"
    return None


def _profile(req, res, csv_text):
    exp = req["expect"]
    if res.get("almost_proper") != exp["almost_proper"]:
        return f"almost_proper {res.get('almost_proper')!r}, expected {exp['almost_proper']}"
    rows = list(csv.DictReader(io.StringIO(csv_text or "")))
    if not rows or len(rows) != res.get("csv_rows"):
        return f"CSV has {len(rows)} rows, report says {res.get('csv_rows')}"
    r = np.array([float(x["r"]) for x in rows])
    defect = np.array([float(x["defect"]) for x in rows])
    floor = (1.0 - r) * (1.0 - 1e-12)
    if not np.all(defect >= floor):
        return f"{int(np.sum(defect < floor))} CSV rows below the Schwarz floor 1 - r"
    gamma = float(np.min(defect / (1.0 - r)))
    if not abs(res["gamma_hat"] - gamma) <= 1e-12 * max(1.0, abs(gamma)):
        return f"gamma_hat {res['gamma_hat']!r} != CSV min defect/(1-r) {gamma!r}"
    return None


_CHECKS = {"certified": _certified, "refuted": _refuted, "unknown": _unknown,
           "falsified": _falsified, "pick": _pick, "schur": _schur, "sn": _sn,
           "ball3_forward": _ball3_forward, "ball3_inverse": _ball3_inverse,
           "family": _family}


def check(req: dict, report: dict | None, csv_text: str | None = None) -> str | None:
    """None if `report` is a correct answer to `req`, else the reason."""
    if report is None:
        return "no report written"
    if report.get("verb") != req["verb"] or report.get("input") != req["doc"]:
        return "report does not echo the request"
    res = report.get("result", {})
    kind = req["expect"]["check"]
    try:
        if kind == "profile":
            return _profile(req, res, csv_text)
        return _CHECKS[kind](req, res)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
