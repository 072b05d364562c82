"""Constructors for extremal maps: the ellipsoid normal form, gauge
division/multiplication by Moebius powers, the three-point ball normal
form and its parameter solves, and the registry of named counterexample
families with their slack inequalities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cplane import BlaschkeProduct
from .domains import (Ball, Domain, Ellipsoid, minkowski_value,
                      semilinear_gauge, squared_sum_gauge)
from .errors import (AmbiguousClassificationError, DegenerateInstanceError,
                     GaugeError, InfeasibleDataError, PreconditionError)
from .mapspec import (Blaschke, Expr, MapSpec, MoebiusQuotient, MultiPoly,
                      Polynomial, Product, RatioPower, Subst, cauchy_coeffs,
                      monomial_map)

INTERIOR = "interior"
BOUNDARY = "boundary"
INTERIOR_BAND = 1e-8  # dead band around gauge 1 for divide_moebius_powers' tag
MAX_M = 10_000  # highest family degree m, checked before a map of degree m is built


# ---------------------------------------------------------------------------
# ellipsoid normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdigarianForm:
    """Parameters of the proper normal form into a complex ellipsoid.

    Component j is
        a_j * prod_k m_{alpha[k][j]}(lam)**r[k][j]
            * ((1 - conj(alpha[k][j]) lam) / (1 - conj(alpha0[k]) lam))**(1/p_j)
    with principal-branch powers (value 1 at lam = 0).  alpha has shape
    (m-1, n) with entries in the closed disc, alpha0 has length m-1 inside
    the open disc, r is a 0/1 matrix of the same shape as alpha.
    """

    a: tuple
    p: tuple
    alpha: tuple        # rows: step k, columns: coordinate j
    alpha0: tuple
    r: tuple

    def __post_init__(self):
        a = tuple(complex(v) for v in self.a)
        p = tuple(float(v) for v in self.p)
        alpha = tuple(tuple(complex(v) for v in row) for row in self.alpha)
        alpha0 = tuple(complex(v) for v in self.alpha0)
        r = tuple(tuple(int(v) for v in row) for row in self.r)
        if not np.isfinite(a + p + alpha0 + sum(alpha, ())).all():
            raise ValueError("a, p, alpha and alpha0 must be finite")
        n = len(a)
        if len(p) != n or any(v <= 0 for v in p):
            raise ValueError("p must align with a and stay positive")
        if any(v == 0 for v in a):
            raise ValueError("amplitudes must be nonzero")
        steps = len(alpha)
        if len(r) != steps or len(alpha0) != steps:
            raise ValueError("alpha, alpha0 and r must have m-1 rows each")
        for row in alpha:
            if len(row) != n or any(abs(v) > 1 + 1e-12 for v in row):
                raise ValueError("alpha entries must lie in the closed disc")
        for v in alpha0:
            if abs(v) >= 1:
                raise ValueError("alpha0 entries must lie in the open disc")
        for row in r:
            if len(row) != n or any(v not in (0, 1) for v in row):
                raise ValueError("r entries must be 0 or 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.alpha) + 1

    def to_json(self) -> dict:
        c = lambda z: [z.real, z.imag]
        return {
            "a": [c(v) for v in self.a],
            "p": list(self.p),
            "alpha": [[c(v) for v in row] for row in self.alpha],
            "alpha0": [c(v) for v in self.alpha0],
            "r": [list(row) for row in self.r],
        }

    @staticmethod
    def from_json(d: dict) -> "EdigarianForm":
        cc = lambda v: complex(v[0], v[1])
        return EdigarianForm(
            tuple(cc(v) for v in d["a"]),
            tuple(d["p"]),
            tuple(tuple(cc(v) for v in row) for row in d["alpha"]),
            tuple(cc(v) for v in d["alpha0"]),
            tuple(tuple(row) for row in d["r"]),
        )


def as_mapspec(form: EdigarianForm) -> MapSpec:
    """The normal form as an expression tree; as_mapspec(form)(lam) evaluates it."""
    comps = []
    for j in range(form.n):
        factors: list[Expr] = [Polynomial([form.a[j]])]
        for k in range(form.m - 1):
            akj = form.alpha[k][j]
            if form.r[k][j]:
                factors.append(Polynomial([-akj]) if abs(akj) >= 1 - 1e-12 else
                               Blaschke(BlaschkeProduct(1.0, (akj,))))
            factors.append(RatioPower(akj, form.alpha0[k], 1.0 / form.p[j]))
        comps.append(Product(tuple(factors)))
    return MapSpec(comps, {"construction": "edigarian", "params": form.to_json()})


def _pair_poly(alpha: complex) -> np.ndarray:
    # (lam - alpha)(1 - conj(alpha) lam), ascending coefficients
    return np.asarray([-alpha, 1.0 + abs(alpha) ** 2, -np.conj(alpha)], dtype=complex)


def _weighted_sum_poly(form_a, p, alpha) -> np.ndarray:
    """sum_j |a_j|**(2 p_j) prod_k (lam - alpha_kj)(1 - conj(alpha_kj) lam)."""
    steps = len(alpha)
    n = len(form_a)
    total = np.zeros(2 * steps + 1, dtype=complex)
    for j in range(n):
        poly = np.asarray([abs(form_a[j]) ** (2 * p[j])], dtype=complex)
        for k in range(steps):
            poly = np.convolve(poly, _pair_poly(alpha[k][j]))
        total[: len(poly)] += poly
    return total


def _target_poly(alpha0) -> np.ndarray:
    poly = np.asarray([1.0], dtype=complex)
    for a0 in alpha0:
        poly = np.convolve(poly, _pair_poly(a0))
    out = np.zeros(2 * len(alpha0) + 1, dtype=complex)
    out[: len(poly)] = poly
    return out


def edigarian_check(form: EdigarianForm) -> float:
    """Max coefficient residual of the completion identity.

    The identity equates sum_j |a_j|**(2 p_j) prod_k (lam-alpha_kj)(1-conj(alpha_kj) lam)
    with prod_k (lam-alpha0_k)(1-conj(alpha0_k) lam); it is what makes the
    form proper onto the ellipsoid boundary.
    """
    lhs = _weighted_sum_poly(form.a, form.p, form.alpha)
    rhs = _target_poly(form.alpha0)
    return float(np.max(np.abs(lhs - rhs)))


def _complete_roots(Q: np.ndarray, steps: int):
    """Split the roots of the self-inversive polynomial Q into disc/outside pairs."""
    tol_circle = 1e-8
    coeffs = np.asarray(Q, dtype=complex)
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise InfeasibleDataError("zero completion polynomial")
    deg = len(coeffs) - 1
    while deg > 0 and abs(coeffs[deg]) <= 1e-13 * scale:
        deg -= 1
    trimmed = coeffs[: deg + 1]
    n_inf = 2 * steps - deg  # roots at infinity from degree deficiency
    if deg == 0:
        roots = np.asarray([], dtype=complex)
    else:
        roots = np.roots(trimmed[::-1])
    inside = [r for r in roots if abs(r) < 1 - tol_circle]
    outside = [r for r in roots if abs(r) > 1 + tol_circle]
    on_circle = [r for r in roots if 1 - tol_circle <= abs(r) <= 1 + tol_circle]
    if on_circle:
        raise DegenerateInstanceError(f"completion root on the unit circle: {on_circle[0]}")
    if len(inside) != steps:
        raise InfeasibleDataError(
            f"expected {steps} disc roots, found {len(inside)}")
    # pair each nonzero disc root with its reflection; zeros pair with infinity
    zeros_at_origin = [r for r in inside if abs(r) <= tol_circle]
    if len(zeros_at_origin) != n_inf:
        raise InfeasibleDataError("origin roots do not match the degree deficiency")
    unmatched = list(outside)
    for r in inside:
        if abs(r) <= tol_circle:
            continue
        reflected = 1.0 / np.conj(r)
        best, dist = None, np.inf
        for i, q in enumerate(unmatched):
            dd = abs(q - reflected)
            if dd < dist:
                best, dist = i, dd
        if best is None or dist > 1e-8 * max(1.0, abs(reflected)):
            raise InfeasibleDataError("roots fail to pair under circle reflection")
        unmatched.pop(best)
    return sorted(inside, key=lambda z: (z.real, z.imag))


def edigarian_complete(a, p, alpha, r) -> EdigarianForm:
    """Recover alpha0 from (a, p, alpha, r) via root pairing, then verify.

    Raises InfeasibleDataError when the identity cannot close (including an
    amplitude scale mismatch) and DegenerateInstanceError on circle roots.
    """
    alpha = tuple(tuple(complex(v) for v in row) for row in alpha)
    steps = len(alpha)
    Q = _weighted_sum_poly(tuple(complex(v) for v in a), tuple(float(v) for v in p), alpha)
    alpha0 = _complete_roots(Q, steps)
    form = EdigarianForm(tuple(a), tuple(p), alpha, tuple(alpha0), tuple(tuple(row) for row in r))
    res = edigarian_check(form)
    if res > 1e-8:
        raise InfeasibleDataError(f"completion residual {res:.3e} exceeds 1e-8; amplitudes off scale")
    return form


def edigarian_normalize(a_raw, p, alpha, r) -> EdigarianForm:
    """Rescale amplitudes so the completion identity closes exactly.

    Both sides of the identity are positive multiples of each other once the
    roots pair; the ratio rho at lam = 1 is positive real, and replacing
    a_j by a_j * rho**(-1/(2 p_j)) makes the identity exact.
    """
    alpha = tuple(tuple(complex(v) for v in row) for row in alpha)
    p = tuple(float(v) for v in p)
    a_raw = tuple(complex(v) for v in a_raw)
    steps = len(alpha)
    Q = _weighted_sum_poly(a_raw, p, alpha)
    alpha0 = _complete_roots(Q, steps)
    qval = complex(np.polyval(Q[::-1], 1.0))
    tval = complex(np.polyval(_target_poly(alpha0)[::-1], 1.0))
    if abs(tval) < 1e-300 or abs(qval) < 1e-300:
        raise DegenerateInstanceError("identity vanishes at lam=1; cannot read the scale")
    rho = (qval / tval).real
    if rho <= 0:
        raise InfeasibleDataError("scale ratio is not positive; roots do not pair")
    a = tuple(v * rho ** (-1.0 / (2.0 * pj)) for v, pj in zip(a_raw, p))
    return edigarian_complete(a, p, alpha, r)


# ---------------------------------------------------------------------------
# dividing and multiplying by Moebius powers
# ---------------------------------------------------------------------------

def divide_moebius_powers(f: MapSpec, alpha: complex, k, dom: Domain):
    """Divide component j of f by m_alpha**k_j; classify the quotient.

    Divisibility requires f_j to vanish at alpha to order k_j (checked via
    Taylor coefficients on a small circle, tolerance 1e-9).  The quotient phi
    maps into the closure of dom and the dichotomy holds: either phi(0) has
    gauge < 1 (image inside, tag "interior") or the whole image sits on the
    boundary (tag "boundary").  A dead-band disagreement raises.
    """
    alpha = complex(alpha)
    k = tuple(int(v) for v in k)
    if len(k) != f.dim:
        raise ValueError("one vanishing order per component")
    radius = min(0.3, 0.5 * (1.0 - abs(alpha)))
    for j, comp in enumerate(f.components):
        if k[j] == 0:
            continue
        coeffs = cauchy_coeffs(comp, alpha, radius, 64)
        low = np.max(np.abs(coeffs[: k[j]]))
        if low > 1e-9:
            raise PreconditionError(
                f"component {j} does not vanish to order {k[j]} at alpha (residual {low:.2e})")
    comps = [MoebiusQuotient(c, alpha, kj) if kj > 0 else c for c, kj in zip(f.components, k)]
    phi = MapSpec(comps, dict(f.meta))
    phi.meta["construction"] = "moebius_quotient"

    v0 = minkowski_value(dom, phi(0.0))
    if v0 < 1.0 - INTERIOR_BAND:
        tag = INTERIOR
    elif v0 <= 1.0 + INTERIOR_BAND:
        probes = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
        vals = [minkowski_value(dom, phi(t)) for t in probes]
        if all(abs(v - 1.0) <= INTERIOR_BAND for v in vals):
            tag = BOUNDARY
        else:
            raise AmbiguousClassificationError(
                f"gauge at 0 is {v0}, probes range {min(vals)}..{max(vals)}")
    else:
        raise PreconditionError(f"quotient leaves the closed domain: gauge {v0}")
    phi.meta["image"] = tag
    return phi, tag


def multiply_moebius_powers(f: MapSpec, mu: complex, k) -> MapSpec:
    """Multiply component j by m_mu**k_j; adjoining mu to the node set
    preserves weak extremality one level up (m+1 nodes)."""
    mu = complex(mu)
    if abs(mu) >= 1:
        raise ValueError("new node must lie inside the open disc")
    k = tuple(int(v) for v in k)
    if min(k, default=0) < 0:
        raise ValueError("Moebius powers must be nonnegative integers")
    comps = [Product((Blaschke(BlaschkeProduct(1.0, (mu,) * kj)), c)) if kj else c
             for c, kj in zip(f.components, k)]
    meta = dict(f.meta)
    prev_m = meta.get("extremal_m")
    if prev_m is not None:
        meta["extremal_m"] = prev_m + 1
    nodes = list(meta.get("nodes", []))
    nodes.append([mu.real, mu.imag])
    meta["nodes"] = nodes
    meta["construction"] = "moebius_multiply"
    return MapSpec(comps, meta)


# ---------------------------------------------------------------------------
# the three-point ball normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball3Params:
    """(a, alpha): the three-point normal form lam -> (a lam, sqrt(1-a^2) lam m_alpha(lam), 0...)."""

    a: float
    alpha: complex

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise ValueError("a must lie in [0, 1]")
        if abs(self.alpha) >= 1:
            raise ValueError("alpha must lie inside the open disc")


def ball3_normal_form(params: Ball3Params, n: int = 2) -> MapSpec:
    if n < 2:
        raise ValueError("the normal form needs dimension >= 2")
    b = math.sqrt(max(0.0, 1.0 - params.a ** 2))
    comps: list[Expr] = [Polynomial([0.0, params.a])]
    comps.append(Product((Polynomial([0.0, b]), Blaschke(BlaschkeProduct(1.0, (params.alpha,))))))
    comps += [Polynomial([0.0])] * (n - 2)
    return MapSpec(comps, {
        "construction": "ball3_normal_form",
        "a": params.a,
        "alpha": [params.alpha.real, params.alpha.imag],
        "extremal_m": 3,
        "domain": Ball(n).to_json(),
    })


def ball3_equivalent_params(b: float, c: complex) -> tuple:
    """Normal-form data (alpha, beta, gamma) of lam -> (b m_c(lam), sqrt(1-b^2) m_c(lam)^2) pushed to base point 0.

    Returns (alpha, beta, gamma) with alpha, beta >= 0, alpha^2 + beta^2 = 1,
    gamma in the open disc.
    """
    if not (0 < b < 1):
        raise ValueError("b must lie in (0, 1)")
    c = complex(c)
    if not (0 < abs(c) < 1):
        raise ValueError("c must lie in the punctured open disc")
    b2 = b * b
    ac2 = abs(c) ** 2
    gamma = c * (1 + b2) / (1 + b2 * ac2)
    beta2 = (b2 - b2 * ac2) / (1 - b2 * b2 * ac2)
    alpha2 = (1 - b2) * (1 + b2 * ac2) / (1 - b2 * b2 * ac2)
    return (math.sqrt(alpha2), math.sqrt(beta2), gamma)


def ball3_solve_params(p: float, q: float) -> tuple:
    """Solve (b, c) so the equivalent normal form hits beta^2 = p, gamma = q.

    Restricted to real p, q in (0, 1).  With B = 1 + q^2 + p (1 - q^2),
    F(c) = m_q(c) - c m_p(c m_q(c)) = 0 reduces to
    (c^2 - 1)(q c^2 - B c + q) = 0, whose only root in (0, q) is
    c = 2q / (B + S), S = sqrt(B^2 - 4q^2); then b^2 = -m_q(c)/c.  With
    a = 1 - q^2, S^2 = a (4p + a (1 - p)^2) and
    b^2 = 2 a p (B + S) / ((S + a (1 - p)) (S + a (1 + p))), forms free of
    the cancellation in B - 2q and q - c as q -> 1 or p -> 0.
    """
    if not (0 < p < 1 and 0 < q < 1):
        raise ValueError("p and q must lie in (0, 1)")
    a = (1.0 - q) * (1.0 + q)
    S = math.sqrt(a * (4.0 * p + a * (1.0 - p) ** 2))
    B = 2.0 - a * (1.0 - p)
    c = 2.0 * q / (B + S)
    b2 = 2.0 * a * p * (B + S) / ((S + a * (1.0 - p)) * (S + a * (1.0 + p)))
    if not (0 < b2 < 1):
        raise GaugeError(f"recovered b^2 = {b2} outside (0,1)")
    return (math.sqrt(b2), c)


def ball3_verify_params(b: float, c: float, p: float, q: float) -> float:
    """Residual of the defining relations p = -m_{b^2}(b^2 c^2), q = m_{-c}(b^2 c)."""
    b2 = b * b
    lhs_p = -((b2 * c * c - b2) / (1.0 - b2 * (b2 * c * c)))
    lhs_q = (b2 * c + c) / (1.0 + c * (b2 * c))
    return max(abs(lhs_p - p), abs(lhs_q - q))


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def power_pair_slack(a: float) -> float:
    """a^2 - a; strictly negative on (0, 1).  A left inverse for the
    power-pair family would force this to be >= 0."""
    if not (0 < a < 1):
        raise ValueError("a must lie in (0, 1)")
    return a * a - a


def squared_sum_slack(a: float) -> float:
    """a^2/(1-a)^2 + (1-4a^2)/(1-a^2) - 1; strictly negative on (0, 1/2)."""
    if not (0 < a < 0.5):
        raise ValueError("a must lie in (0, 1/2)")
    return a * a / (1.0 - a) ** 2 + (1.0 - 4.0 * a * a) / (1.0 - a * a) - 1.0


def semilinear_slack(alpha_mod: float, beta_mod: float, c: float) -> float:
    """beta (1 - c^2) + alpha^2 c^2 - 1 for moduli in [0, 1]; nonpositive,
    vanishing only at alpha = beta = 1."""
    if not (0 <= alpha_mod <= 1 and 0 <= beta_mod <= 1):
        raise ValueError("moduli must lie in [0, 1]")
    if not (0 < c < 1):
        raise ValueError("c must lie in (0, 1)")
    return beta_mod * (1.0 - c * c) + alpha_mod ** 2 * c * c - 1.0


class Family(NamedTuple):
    """A named monomial family lam -> (c_j lam^(e_j)), stated once.

    terms(m, a) gives the (c_j, e_j) pairs; left_inverse is the polynomial
    F with F o f = lam^(m-1), or None when the family provably has none;
    slack is the refuting slack where one is known; meta_b puts the last
    coefficient into the map's meta as "b".
    """

    name: str
    terms: Callable[[int, float], tuple]
    min_m: int
    domain: Domain
    left_inverse: tuple | None
    slack: Callable[[float], float] | None = None
    meta_b: bool = False

    def checked_terms(self, m: int, a: float) -> tuple:
        """terms(m, a), accepted exactly when min_m <= m <= MAX_M, a > 0 and
        every coefficient is positive; ValueError otherwise."""
        if m > MAX_M:
            raise ValueError(f"family {self.name!r} needs m <= {MAX_M}; got m = {m}")
        terms = self.terms(m, a)
        if not (m >= self.min_m and a > 0 and all(c > 0 for c, _ in terms)):
            raise ValueError(f"family {self.name!r} needs m >= {self.min_m}, a > 0 and "
                             f"every coefficient positive; got m = {m}, a = {a}")
        return terms

    def build(self, m: int, a: float) -> MapSpec:
        """The family's map; its meta states the family's claims (an
        m-extremal, an m-geodesic iff a left inverse exists) and domain."""
        terms = self.checked_terms(m, a)
        meta = {"family": self.name, "m": m, "a": a}
        if self.meta_b:
            meta["b"] = terms[-1][0]
        meta.update({"extremal_m": m, "geodesic": self.left_inverse is not None,
                     "domain": self.domain.to_json()})
        return monomial_map(terms, meta)

    def refusal(self, m: int, a: float) -> dict | None:
        """Why no certificate can exist; None for a family with a left inverse.
        Out-of-range (m, a) raise ValueError first."""
        self.checked_terms(m, a)
        if self.left_inverse is not None:
            return None
        out = {"reason": f"family {self.name!r} admits no polynomial left inverse"}
        if self.slack is not None:
            out["slack"] = self.slack(a)
        return out

    def certificate_inputs(self, m: int, a: float) -> tuple:
        """(f, F, B, dom, m) with B = lam^(m-1) for a family with a left
        inverse; PreconditionError for one that provably has none."""
        f = self.build(m, a)
        if self.left_inverse is None:
            raise PreconditionError(self.refusal(m, a)["reason"])
        return f, MultiPoly(self.left_inverse), BlaschkeProduct.monomial(m - 1), self.domain, m


# the one list of named families; the schema enums must match its order
FAMILIES = {fam.name: fam for fam in (
    # into {|z1| + |z2| < 1}: m-extremal, yet no left inverse can return a
    # Blaschke product of degree < m
    Family("power-pair", lambda m, a: ((a, m - 2), (1.0 - a, m - 1)), 3,
           Ellipsoid((0.5, 0.5)), None, power_pair_slack),
    # its equal-power companion, an m-geodesic
    Family("power-pair-geodesic", lambda m, a: ((a, m - 1), (1.0 - a, m - 1)), 3,
           Ellipsoid((0.5, 0.5)), ((1.0, (1, 0)), (1.0, (0, 1)))),
    # into {(|z1|+|z2|)^2 + |z3| < 1} and {|z1|^2 + |z2|^2 + |z3| < 1}:
    # m-geodesics whose quotient by lam is not an (m-1)-geodesic
    Family("squared-sum-triple",
           lambda m, a: ((a, 1), (a, m - 2), (1.0 - 4.0 * a * a, m - 1)), 4,
           squared_sum_gauge(), ((4.0, (1, 1, 0)), (1.0, (0, 0, 1))), meta_b=True),
    Family("semilinear-triple",
           lambda m, a: ((a, 1), (a, m - 2), (1.0 - 2.0 * a * a, m - 1)), 5,
           semilinear_gauge(), ((2.0, (1, 1, 0)), (1.0, (0, 0, 1))), meta_b=True),
    # into the Euclidean ball: m-extremal but not an m-geodesic
    Family("ball-power-pair",
           lambda m, a: ((a, m - 2), (math.sqrt(max(0.0, 1.0 - a * a)), m - 1)), 4,
           Ball(2), None),
)}

power_pair_map = FAMILIES["power-pair"].build
power_pair_geodesic = FAMILIES["power-pair-geodesic"].build
squared_sum_triple_map = FAMILIES["squared-sum-triple"].build
semilinear_triple_map = FAMILIES["semilinear-triple"].build
ball_power_pair_map = FAMILIES["ball-power-pair"].build


def compose_with_blaschke(f: MapSpec, B: BlaschkeProduct) -> MapSpec:
    """f o B.  For convex targets, weak m-extremality composes to weak
    (m * deg B)-extremality."""
    if B.degree == 0:
        raise ValueError("composition with a constant Blaschke product is degenerate")
    inner = Blaschke(B)
    comps = [Subst(c, inner) for c in f.components]
    meta = dict(f.meta)
    if meta.get("extremal_m") is not None:
        meta["extremal_m"] = meta["extremal_m"] * B.degree
    meta["construction"] = "blaschke_composition"
    return MapSpec(comps, meta)
