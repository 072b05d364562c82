"""Certificates for left inverses, the closed-form left inverses with the
certify inputs built from them, and properness profiles.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .cplane import BlaschkeProduct
from .domains import (Ball, Domain, Ellipsoid, boundary_samples, grid_axes,
                      minkowski_many, moduli_boundary)
from .errors import PreconditionError
from .mapspec import MapSpec, MultiPoly, monomial_map
from .maps import MAX_M, Ball3Params, ball3_normal_form
from .policy import DEFAULT_POLICY, NumericPolicy

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# circle grid on which verify_left_inverse checks the image and the composition
VERIFICATION_GRID = 1024
MAX_DIM = 8  # most coordinates certify takes: a zoom round has at most max(count, 3**8) points


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of a left-inverse verification run.

    sampled_bound false: boundary_sup_estimate is a proved bound on U(r) = sum |c_a| r^a,
    so on |F|, on the boundary, from the tangent plane at boundary_sup_point, the image
    point where U is largest.  True: the max of U found, at |boundary_sup_point|; the zoom
    refines the best grid point only, so a second local maximum can hide a larger sup.
    """

    map: MapSpec
    domain: Domain
    left_inverse: MultiPoly
    blaschke: BlaschkeProduct
    m: int
    residual_composition: float
    boundary_sup_estimate: float
    boundary_sup_point: np.ndarray
    boundary_samples: int       # the moduli grid's size bound, the policy's boundary_samples
    verdict: str
    sampled_bound: bool = True
    refutation_witness: np.ndarray | None = None  # a point with |F| > 1 + 1e-6, if one refuted F

    def to_json(self) -> dict:
        return {
            "map": self.map.to_json(),
            "domain": self.domain.to_json(),
            "left_inverse": self.left_inverse.to_json(),
            "blaschke": self.blaschke.to_json(),
            "m": self.m,
            "residual_composition": self.residual_composition,
            "boundary_sup_estimate": self.boundary_sup_estimate,
            "boundary_sup_point": [[z.real, z.imag] for z in self.boundary_sup_point],
            "sample_counts": {"circle_grid": VERIFICATION_GRID,
                              "boundary": self.boundary_samples},
            "verdict": self.verdict,
            "sampled_bound": self.sampled_bound,
            **({} if self.refutation_witness is None else
               {"refutation_witness": [[z.real, z.imag] for z in self.refutation_witness]}),
        }


def _zoom(fn, axes, vals):
    """(x, fn(x)) for the best x of the tensor grid on axes (vals in C order),
    refined on grids as fine per axis (odd, at least 3) centred on the best
    point, each two spacings of the last wide (at most half of it), until
    narrower than 1e-5."""
    side = len(axes[0]) if axes else 1
    width = 2.0 * (axes[0][1] - axes[0][0]) if side > 1 else np.pi
    offsets = np.linspace(-0.5, 0.5, max(3, side - 1 + side % 2))
    while True:
        i = int(np.argmax(vals))
        x = np.array([a[j] for a, j in zip(axes, np.unravel_index(i, [len(a) for a in axes]))])
        if not axes or width < 1e-5:
            return x, float(vals[i])
        axes = [c + width * offsets for c in x]
        vals, width = fn(axes), width * min(0.5, 2.0 / (len(offsets) - 1))


def _tangent_bound(U: MultiPoly, p, moduli):
    """(bound, row) with U(r) = sum c_a r^a <= bound on the boundary of the ellipsoid
    sum r_j**(2 p_j) < 1, anchored at the row of moduli where U is largest; (inf, 0)
    unless U is concave in s = r**(2p).  That boundary is the simplex sum s_j = 1; a
    term c s**b, c >= 0, b = a / (2p) >= 0 and sum b <= 1, is a weighted geometric mean,
    so concave, and g = grad U(s0), summed as c b_j s**(b - e_j) to stay finite at a
    vertex, gives U(s) <= U(s0) - g.s0 + max_j g_j.  Rounding adds gamma_k times the
    magnitudes, k the roundings along one path, an exponent's counted as |log s0_j|."""
    n, q = len(p), 2.0 * np.asarray(p)
    b = np.array([e + (0,) * (n - len(e)) for _, e in U.terms]) / q
    if (b < 0).any() or (b.sum(axis=1) > 1.0).any():
        return np.inf, 0
    c, row = np.array([t.real for t, _ in U.terms]), int(np.argmax(U(moduli)))
    s0 = moduli[row] ** q
    with np.errstate(all="ignore"):  # a non-finite bound proves nothing
        g = np.where(b > 0, c[:, None] * b * np.prod(s0 ** (b[:, None] - np.eye(n)), axis=2),
                     0.0).sum(axis=0)
        value = c @ np.prod(s0 ** b, axis=1)
        ku = (3 * n + len(c) + 4 + np.abs(np.log(s0[s0 > 0])).sum()) * 2.0 ** -53
        return float(value - g @ s0 + g.max() + ku / (1.0 - ku) * (value + g @ s0 + g.max())), row


def verify_left_inverse(f: MapSpec, F: MultiPoly, B: BlaschkeProduct,
                        dom: Domain, m: int,
                        policy: NumericPolicy = DEFAULT_POLICY) -> Certificate:
    """Check that F is an m-left inverse of f on dom.

    f, F and dom share one dimension of at most MAX_DIM, else ValueError; f
    must map the circle grid into the closed domain (max gauge at most
    1 + 1e-9), else PreconditionError.  Then three checks: the composition
    F(f(lam)) matches B on a circle grid; U(r) = sum |c_a| r^a, which bounds
    |F| on a complete Reinhardt domain, stays below 1 on the moduli boundary
    h(r) = 1; B is non-constant of degree at most m - 1.  Certified needs
    residual <= 1e-9 and U <= 1 + 1e-9; Refuted fires on residual > 1e-4 or
    |F| > 1 + 1e-6 at a boundary point, reported as the refutation witness;
    anything else is Inconclusive.  Certified from `_tangent_bound` (sampled_bound
    false) when it proves U <= 1 + 1e-9 and the other two checks pass; else U is
    maximised on the boundary_samples grid and zoomed, and |F| checked on the grid and
    at the U-argmax, phased by a phase search unless every c_a is a nonnegative real.
    """
    if f.dim != dom.dim or F.nvars != f.dim or dom.dim > MAX_DIM:
        raise ValueError(f"need one dimension of at most {MAX_DIM}: "
                         f"map {f.dim}, domain {dom.dim}, inverse {F.nvars}")
    grid = np.exp(2j * np.pi * np.arange(VERIFICATION_GRID) / VERIFICATION_GRID)
    image = f.eval_many(grid)
    gauge = float(np.max(minkowski_many(dom, image)))
    if gauge > 1.0 + 1e-9:
        raise PreconditionError(f"the map leaves the domain: gauge {gauge} on the circle grid")
    residual = float(np.max(np.abs(F(image) - B(grid))))
    degree_ok = 1 <= B.degree <= m - 1

    U, count = MultiPoly([(abs(c), e) for c, e in F.terms]), policy.boundary_samples
    cert = functools.partial(Certificate, map=f, domain=dom, left_inverse=F, blaschke=B, m=m,
                             residual_composition=residual, boundary_samples=count)
    provable = dom.p is not None and residual <= 1e-9 and degree_ok
    bound, row = _tangent_bound(U, dom.p, np.abs(image)) if provable else (np.inf, 0)
    if bound <= 1.0 + 1e-9:
        return cert(boundary_sup_estimate=bound, boundary_sup_point=image[row],
                    verdict=CERTIFIED, sampled_bound=False)
    R, theta = boundary_samples(dom, count), grid_axes(count, dom.dim - 1, np.pi / 2)
    angles, sup = _zoom(lambda ax: U(moduli_boundary(dom, ax)), theta, U(R))
    witness = point = moduli_boundary(dom, angles[:, None])[0]
    seen = sup
    if any(c.imag != 0 or c.real < 0 for c, _ in F.terms):
        mesh = lambda ax: np.stack(np.meshgrid(*ax, indexing="ij"), -1).reshape(-1, dom.dim)
        size = lambda ax: np.abs(F(point * np.exp(1j * mesh(ax))))
        phases = grid_axes(count, dom.dim, 2 * np.pi, endpoint=False)
        phase, seen = _zoom(size, phases, size(phases))
        point, on_grid = point * np.exp(1j * phase), np.abs(F(R))
        witness = point if seen >= on_grid.max() else R[np.argmax(on_grid)]
        seen = max(seen, float(on_grid.max()))

    if residual > 1e-4 or seen > 1.0 + 1e-6:
        verdict = REFUTED
    elif residual <= 1e-9 and sup <= 1.0 + 1e-9 and degree_ok:
        verdict = CERTIFIED
    else:
        verdict = INCONCLUSIVE
    return cert(boundary_sup_estimate=sup, boundary_sup_point=point, verdict=verdict,
                refutation_witness=witness if seen > 1.0 + 1e-6 else None)


# ---------------------------------------------------------------------------
# closed-form left inverses
# ---------------------------------------------------------------------------

def monomial_curve_left_inverse(p, a, powers) -> MultiPoly:
    """Left inverse for the monomial curve lam -> (a_j lam^{m_j}).

    With m = lcm(m_j),
        F(z) = sum_j p_j m_j a_j**(2 p_j - m/m_j) z_j**(m/m_j) / sum_k p_k m_k a_k**(2 p_k),
    normalized so F(a_1 lam^{m_1}, ...) = lam^m exactly.  Needs equal lengths
    and powers >= 1; each builder below checks the ranges its certificate needs.
    """
    p = tuple(float(v) for v in p)
    powers = tuple(int(v) for v in powers)
    a = tuple(float(v) for v in a)
    if not (len(p) == len(a) == len(powers)):
        raise ValueError("p, a and powers must have equal length")
    if any(v < 1 for v in powers):
        raise ValueError("powers must be positive integers")
    m = math.lcm(*powers)
    # x_j = a_j / 2**e <= 1, the powers of 2**e kept apart and shifted by the
    # largest, top: for a tiny curve sum_k p_k m_k a_k**(2 p_k) underflows
    e = math.frexp(max(a))[1]
    x = [math.ldexp(aj, -e) for aj in a]
    top = max(2.0 * e * pj for pj in p)
    norm = sum(pk * mk * xk ** (2.0 * pk) * 2.0 ** (2.0 * e * pk - top)
               for pk, mk, xk in zip(p, powers, x))
    terms = []
    for j, (pj, mj, xj) in enumerate(zip(p, powers, x)):
        exps = tuple(m // mj if k == j else 0 for k in range(len(p)))
        # the power of two goes in last, by ldexp: only an unrepresentable c_j overflows
        shift = 2.0 * e * pj - top - e * m / mj
        c = pj * mj * xj ** (2.0 * pj - m / mj) / norm * 2.0 ** (shift % 1.0)
        try:
            terms.append((math.ldexp(c, math.floor(shift)), exps))
        except OverflowError:
            size = math.log10(c) + math.floor(shift) * math.log10(2.0)
            raise PreconditionError(f"left-inverse coefficient {j} (exponents {exps}) is about "
                                    f"1e{size:.1f}, beyond the float range") from None
    return MultiPoly(tuple(terms))


def ball3_inputs(a: float) -> tuple:
    """Certify inputs for the three-point ball normal form at alpha = 0, a in [0, 1)."""
    g = ball3_normal_form(Ball3Params(a, 0.0), n=2)
    if not (0 <= a < 1):
        raise ValueError("a must lie in [0, 1)")
    F = monomial_curve_left_inverse((1, 1), (a, math.sqrt(1.0 - a * a)), (1, 2))
    return g, F, BlaschkeProduct.monomial(2), Ball(2), 3


def monomial_curve_inputs(p, a, powers) -> tuple:
    """Certify inputs for lam -> (a_j lam^{m_j}) as an (L+1)-geodesic of the
    ellipsoid sum |z_j|**(2 p_j) < 1, L = lcm(m_j), with B = lam^L; needs
    a_j in (0, 1] and 2 p_j m_j >= L.  An L above 64 is refused first."""
    L = math.lcm(*(int(v) for v in powers))
    if L > 64:
        raise ValueError(f"lcm of the powers is {L}; at most 64 is supported")
    dom = Ellipsoid(p)
    if any(v <= 0 or v > 1 for v in a):
        raise PreconditionError("coordinates of a must lie in (0, 1]")
    bad = [j for j, (pj, mj) in enumerate(zip(p, powers)) if 2 * pj * mj < L - 1e-12]
    if bad:
        raise PreconditionError(f"constraint 2 p_j m_j >= lcm fails at indices {bad} (lcm {L})")
    f = monomial_map(zip(a, powers), {"extremal_m": L + 1, "geodesic": True,
                                      "domain": dom.to_json()})
    return f, monomial_curve_left_inverse(p, a, powers), BlaschkeProduct.monomial(L), dom, L + 1


def ball_monomial_inputs(m: int, b: float) -> tuple:
    """Certify inputs for (a lam, b lam^m), a = sqrt(1-b^2), as an
    (m+1)-geodesic of the ball, with the monomial curve's F = c z1^m + d z2.

    Valid for b in (0, 1/(m-1)] although 2 p_j m_j >= m fails: c <= 1 and
    d <= 1 there (d exceeds 1 as soon as b does), giving the global max of
    Re F on the sphere at the curve. B = lam^m.
    """
    if not 3 <= m <= MAX_M:
        raise ValueError(f"need 3 <= m <= {MAX_M}")
    if not (0 < b <= 1.0 / (m - 1)):
        raise ValueError(f"b out of range (0, 1/{m - 1}]")
    a = math.sqrt(1.0 - b * b)
    F = monomial_curve_left_inverse((1, 1), (a, b), (1, m))
    c, d = (t.real for t, _ in F.terms)
    ident = c * a ** m + d * b
    if abs(ident - 1.0) > 1e-12:
        raise ArithmeticError(f"multiplier identity failed: {ident}")
    if c > 1.0 + 1e-12 or d > 1.0 + 1e-12:
        raise ArithmeticError(f"coefficient bound failed: c={c}, d={d}")
    f = monomial_map([(a, 1), (b, m)], {
        "family": "ball-monomial", "m": m + 1, "a": a, "b": b,
        "extremal_m": m + 1, "geodesic": True, "domain": Ball(2).to_json(),
    })
    return f, F, BlaschkeProduct.monomial(m), Ball(2), m + 1


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
                       n_radii: int = 12) -> ProfileResult:
    """Radial boundary-defect table 1 - gauge(f(r zeta)) and Hopf-type ratio.

    Radii approach 1 geometrically, the last pinned to 0.999; gamma_hat, the
    Hopf estimate, is the min of defect/(1-r).  A map is almost proper when
    the worst defect at the final radius is <= 1e-2.  f and dom share one
    dimension, else ValueError; a defect below -1e-9 raises PreconditionError.
    """
    if f.dim != dom.dim:
        raise ValueError(f"need one dimension: map {f.dim}, domain {dom.dim}")
    if n_rays < 1 or n_radii < 2:
        raise ValueError("need at least one ray and two radii")
    zetas = np.exp(2j * np.pi * np.arange(n_rays) / n_rays)
    radii = 1.0 - np.logspace(-1, -3, n_radii)
    radii[-1] = 0.999
    rows = []
    gamma_hat = np.inf
    max_final = -np.inf
    for zeta in zetas:
        lam = radii * zeta
        vals = f.eval_many(lam)
        gauges = minkowski_many(dom, vals)
        defects = 1.0 - gauges
        if not np.all(np.isfinite(defects)):
            raise ArithmeticError(f"profile evaluation failed along ray {zeta}")
        if defects.min() < -1e-9:
            raise PreconditionError(f"map leaves the domain: gauge {gauges.max()} on ray {zeta}")
        for r, defect in zip(radii, defects):
            rows.append((complex(zeta), float(r), float(defect)))
            gamma_hat = min(gamma_hat, defect / (1.0 - r))
        max_final = max(max_final, float(defects[-1]))
    return ProfileResult(tuple(rows), float(gamma_hat),
                         bool(max_final <= 1e-2), max_final)
