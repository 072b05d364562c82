"""Certificates for left inverses, the monomial left-inverse constructions,
properness profiles, and lookups of the named families (declared with their
slack inequalities in maps.py).
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cplane import BlaschkeProduct
from .domains import Ball, Domain, boundary_samples, minkowski_many
from .errors import NotCommensurableError, PreconditionError
from .mapspec import MapSpec, MultiPoly, monomial_map
from .maps import (FAMILIES, Ball3Params, Family, ball3_normal_form,
                   power_pair_slack, semilinear_slack, squared_sum_slack)
from .policy import DEFAULT_POLICY, NumericPolicy

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of a left-inverse verification run.

    boundary_sup_estimate is a sampled necessary bound, never a proof; the
    sampled_bound flag keeps that distinction visible in serialized reports.
    """

    map: MapSpec
    domain: Domain
    left_inverse: MultiPoly
    blaschke: BlaschkeProduct
    m: int
    residual_composition: float
    boundary_sup_estimate: float
    sample_counts: dict
    verdict: str
    seed: int
    sampled_bound: bool = True
    policy: NumericPolicy = field(default=DEFAULT_POLICY)

    def to_json(self) -> dict:
        return {
            "map": self.map.to_json(),
            "domain": self.domain.to_json(),
            "left_inverse": self.left_inverse.to_json(),
            "blaschke": self.blaschke.to_json(),
            "m": self.m,
            "residual_composition": self.residual_composition,
            "boundary_sup_estimate": self.boundary_sup_estimate,
            "sample_counts": dict(self.sample_counts),
            "verdict": self.verdict,
            "seed": self.seed,
            "sampled_bound": self.sampled_bound,
            "policy": self.policy.to_json(),
        }


def verify_left_inverse(f: MapSpec, F: MultiPoly, B: BlaschkeProduct,
                        dom: Domain, m: int, seed: int | None = None,
                        policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Check that F is an m-left inverse of f on dom.

    Three checks: the composition F(f(lam)) matches B on a circle grid, the
    sampled sup of |F| over the gauge boundary stays below 1, and B is a
    non-constant Blaschke product of degree at most m - 1.  Certified needs
    residual <= 1e-9 and sup <= 1 + 1e-9; Refuted fires on residual > 1e-4
    or a sampled |F| > 1 + 1e-6; anything else is Inconclusive.
    """
    if f.dim != dom.dim or F.nvars != f.dim:
        raise ValueError(
            f"dimension mismatch: map {f.dim}, domain {dom.dim}, inverse {F.nvars}")
    if seed is None:
        seed = policy.seed
    grid = np.exp(2j * np.pi * np.arange(policy.verification_grid) / policy.verification_grid)
    comp = F(f.eval_many(grid)) - B(grid)
    residual = float(np.max(np.abs(comp)))

    Z = boundary_samples(dom, policy.boundary_samples, seed, policy)
    sup = float(np.max(np.abs(F(Z))))

    degree_ok = 1 <= B.degree <= m - 1
    if residual > 1e-4 or sup > 1.0 + 1e-6:
        verdict = REFUTED
    elif residual <= 1e-9 and sup <= 1.0 + 1e-9 and degree_ok:
        verdict = CERTIFIED
    else:
        verdict = INCONCLUSIVE
    return Certificate(
        map=f, domain=dom, left_inverse=F, blaschke=B, m=m,
        residual_composition=residual, boundary_sup_estimate=sup,
        sample_counts={"circle_grid": policy.verification_grid,
                       "boundary": policy.boundary_samples},
        verdict=verdict, seed=seed, sampled_bound=True, policy=policy)


# ---------------------------------------------------------------------------
# closed-form left inverses
# ---------------------------------------------------------------------------

def ball3_left_inverse(a: float) -> MultiPoly:
    """F(z) = (z1**2 + 2 sqrt(1-a^2) z2) / (2 - a^2); satisfies
    F(a lam, sqrt(1-a^2) lam^2) = lam^2 for the alpha = 0 normal form."""
    if not (0 <= a < 1):
        raise ValueError("a must lie in [0, 1)")
    den = 2.0 - a * a
    return MultiPoly(((1.0 / den, (2, 0)),
                      (2.0 * math.sqrt(1.0 - a * a) / den, (0, 1))))


def monomial_left_inverse(p, a):
    """Monomial left inverse at a boundary point with nonzero coordinates.

    Sets v_j = p_j |a_j|**(2 p_j) and reconstructs integers m_j with
    v = c * m (rational ratios, denominator cap 64, tolerance 1e-9), then
    returns (F, m) with F(z) = prod (z_j / a_j)**m_j.  The sup of |F| over
    the ellipsoid is at most 1 by a supporting-hyperplane argument; here
    that is only sampled, never proved.
    """
    p = tuple(float(v) for v in p)
    a = tuple(complex(v) for v in a)
    if len(p) != len(a):
        raise ValueError("p and a must have equal length")
    if any(v == 0 for v in a):
        raise PreconditionError("all coordinates of a must be nonzero")
    gauge = sum(abs(v) ** (2 * pj) for v, pj in zip(a, p))
    if abs(gauge - 1.0) > 1e-10:
        raise PreconditionError(f"a is not a boundary point: gauge {gauge}")
    v = [pj * abs(aj) ** (2 * pj) for pj, aj in zip(p, a)]
    fracs = []
    for vj in v:
        fr = Fraction(vj / v[0]).limit_denominator(64)
        if abs(float(fr) - vj / v[0]) > 1e-9:
            raise NotCommensurableError(
                f"ratio {vj / v[0]} is not rational with denominator <= 64")
        fracs.append(fr)
    L = math.lcm(*(fr.denominator for fr in fracs))
    ms = [int(fr * L) for fr in fracs]
    g = math.gcd(*ms)
    ms = [mj // g for mj in ms]
    coeff = 1.0 / np.prod([aj ** mj for aj, mj in zip(a, ms)])
    F = MultiPoly(((complex(coeff), tuple(ms)),))
    return F, tuple(ms)


def monomial_curve_left_inverse(p, a, powers) -> MultiPoly:
    """Left inverse for the monomial curve lam -> (a_j lam^{m_j}).

    With m = lcm(m_j) and b_j = a_j**(m/m_j),
        F(z) = sum_j p_j m_j b_j**(2 p_j m_j / m - 1) z_j**(m/m_j) / norm,
    normalized so F(a_1 lam^{m_1}, ...) = lam^m exactly.  Requires positive
    coordinates and the convexity-type constraint 2 p_j m_j >= m.
    """
    p = tuple(float(v) for v in p)
    powers = tuple(int(v) for v in powers)
    a = tuple(float(v) for v in a)
    if not (len(p) == len(a) == len(powers)):
        raise ValueError("p, a and powers must have equal length")
    if any(v <= 0 or v > 1 for v in a):
        raise PreconditionError("coordinates of a must lie in (0, 1]")
    if any(v < 1 for v in powers):
        raise ValueError("powers must be positive integers")
    m = math.lcm(*powers)
    bad = [j for j, (pj, mj) in enumerate(zip(p, powers)) if 2 * pj * mj < m - 1e-12]
    if bad:
        raise PreconditionError(
            f"constraint 2 p_j m_j >= lcm fails at indices {bad} (lcm {m})")
    b = [aj ** (m / mj) for aj, mj in zip(a, powers)]
    weights = [pj * mj * bj ** (2.0 * pj * mj / m - 1.0)
               for pj, mj, bj in zip(p, powers, b)]
    norm = sum(w * bj for w, bj in zip(weights, b))
    terms = []
    for j, (w, mj) in enumerate(zip(weights, powers)):
        exps = [0] * len(p)
        exps[j] = m // mj
        terms.append((w / norm, tuple(exps)))
    return MultiPoly(tuple(terms))


def ball_monomial_coefficients(m: int, b: float) -> tuple:
    """(a, c, d) for the curve (a lam, b lam^m) in the ball: a = sqrt(1-b^2),
    c = 1/((a^2 + m b^2) a^(m-2)), d = m b/(a^2 + m b^2).  Identity
    c a^m + d b = 1 holds for every b in (0, 1)."""
    if m < 3:
        raise ValueError("need m >= 3")
    if not (0 < b < 1):
        raise ValueError("b must lie in (0, 1)")
    a = math.sqrt(1.0 - b * b)
    den = a * a + m * b * b
    c = 1.0 / (den * a ** (m - 2))
    d = m * b / den
    return a, c, d


def ball_monomial_certificate(m: int, b: float, seed: int | None = None,
                              policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Certificate that (a lam, b lam^m) is an (m+1)-geodesic of the ball.

    Valid for b in (0, 1/(m-1)]: the multiplier coefficients satisfy c <= 1
    and d <= 1 there (d exceeds 1 as soon as b does), giving the global max
    of Re F on the sphere at the curve. F(z) = c z1^m + d z2, B = lam^m.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    if not (0 < b <= 1.0 / (m - 1)):
        raise ValueError(f"b out of range (0, 1/{m - 1}]")
    a, c, d = ball_monomial_coefficients(m, b)
    ident = c * a ** m + d * b
    if abs(ident - 1.0) > 1e-12:
        raise ArithmeticError(f"multiplier identity failed: {ident}")
    if c > 1.0 + 1e-12 or d > 1.0 + 1e-12:
        raise ArithmeticError(f"coefficient bound failed: c={c}, d={d}")
    f = monomial_map([(a, 1), (b, m)], {
        "family": "ball-monomial", "m": m + 1, "a": a, "b": b,
        "extremal_m": m + 1, "geodesic": True, "domain": Ball(2).to_json(),
    })
    F = MultiPoly(((c, (m, 0)), (d, (0, 1))))
    B = BlaschkeProduct.monomial(m)
    return verify_left_inverse(f, F, B, Ball(2), m + 1, seed=seed, policy=policy)


# ---------------------------------------------------------------------------
# properness profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileResult:
    rows: tuple                 # (zeta complex, r, defect)
    gamma_hat: float
    almost_proper: bool
    max_final_defect: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("zeta_re,zeta_im,r,defect\n")
        for zeta, r, defect in self.rows:
            buf.write(f"{zeta.real:.17g},{zeta.imag:.17g},{r:.17g},{defect:.17g}\n")
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat,
            "almost_proper": self.almost_proper,
            "max_final_defect": self.max_final_defect,
            "n_rows": len(self.rows),
        }


def properness_profile(f: MapSpec, dom: Domain, n_rays: int = 16,
                       n_radii: int = 12,
                       policy: NumericPolicy = DEFAULT_POLICY) -> ProfileResult:
    """Radial boundary-defect table 1 - gauge(f(r zeta)) and Hopf-type ratio.

    Radii approach 1 geometrically with the last value pinned to 0.999; the
    Hopf estimate gamma_hat is the min of defect/(1-r).  A map is flagged
    almost proper when the worst defect at the final radius is <= 1e-2.
    """
    if n_rays < 1 or n_radii < 2:
        raise ValueError("need at least one ray and two radii")
    zetas = np.exp(2j * np.pi * np.arange(n_rays) / n_rays)
    radii = 1.0 - np.logspace(-1, -3, n_radii)
    radii[-1] = 0.999
    rows = []
    gamma_hat = np.inf
    max_final = 0.0
    for zeta in zetas:
        lam = radii * zeta
        vals = f.eval_many(lam)
        gauges = minkowski_many(dom, vals, policy)
        defects = 1.0 - gauges
        if not np.all(np.isfinite(defects)):
            raise ArithmeticError(f"profile evaluation failed along ray {zeta}")
        for r, defect in zip(radii, defects):
            rows.append((complex(zeta), float(r), float(defect)))
            gamma_hat = min(gamma_hat, defect / (1.0 - r))
        max_final = max(max_final, float(defects[-1]))
    return ProfileResult(tuple(rows), float(gamma_hat),
                         bool(max_final <= 1e-2), max_final)


# ---------------------------------------------------------------------------
# the named families by name (the registry is maps.FAMILIES)
# ---------------------------------------------------------------------------

def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {tuple(FAMILIES)}")
    return FAMILIES[name]


def family_map(name: str, m: int, a: float) -> MapSpec:
    return _family(name).build(m, a)


def family_domain(name: str) -> Domain:
    return _family(name).domain


def family_certificate_inputs(name: str, m: int, a: float):
    """(f, F, B, dom, m) for the geodesic families; raises PreconditionError
    for the families that provably have no left inverse."""
    fam = _family(name)
    f = fam.build(m, a)
    if fam.left_inverse is None:
        raise PreconditionError(fam.refusal(m, a)["reason"])
    return f, MultiPoly(fam.left_inverse), BlaschkeProduct.monomial(m - 1), fam.domain, m


def ball3_certificate(a: float, seed: int | None = None,
                      policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """End-to-end certificate for the three-point ball normal form at alpha=0."""
    g = ball3_normal_form(Ball3Params(a, 0.0), n=2)
    F = ball3_left_inverse(a)
    B = BlaschkeProduct.monomial(2)
    return verify_left_inverse(g, F, B, Ball(2), 3, seed=seed, policy=policy)
