"""Bounded domains used as targets: disc, polydisc, ball, complex ellipsoids
and two hand-rolled gauge domains.

Each domain carries integer scaling weights k and a signed membership defect
d(z) (negative inside, zero on the boundary).  The weighted Minkowski gauge

    h(z) = inf { t > 0 : (z_1/t^{k_1}, ..., z_n/t^{k_n}) inside }

satisfies h(lam^{k} z) = |lam| h(z).  Every domain here is a complete
Reinhardt domain, so h depends on the moduli |z_j| alone.  `minkowski_many`
takes the moduli, rejects non-finite points, gives 0 on zero rows and hands
the other rows to the domain's own formula: a closed form for the disc, the
polydisc, the ball, ellipsoids whose exponents 2 p_j k_j agree and the two
quadratic gauges, and Newton in log t for every other ellipsoid.
"""
from __future__ import annotations

import numpy as np

from .errors import GaugeError

# iteration cap of the gauge's Newton loop
MAX_ITER = 200
MAX_SAMPLES = 1_000_000  # most points boundary_samples gives, checked before any is made


class Domain:
    """Base: subclasses define dim, weights, defect_many and _gauge."""

    dim: int
    weights: tuple
    name: str
    p = None  # power exponents of an ellipsoid sum |z_j|**(2 p_j) < 1, when it is one

    def defect_many(self, Z: np.ndarray) -> np.ndarray:
        """Defect of the rows of points Z, or of their moduli |Z|: the same bits either way."""
        raise NotImplementedError

    def _gauge(self, A: np.ndarray) -> np.ndarray:
        """Gauge of the rows of moduli A = |z|, all finite and none all zero."""
        raise NotImplementedError

    def defect(self, z) -> float:
        Z = np.asarray(z, dtype=complex).reshape(1, self.dim)
        return float(self.defect_many(Z)[0])

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.name} dim={self.dim} k={self.weights}>"


def _row_max(A):
    """Maximum of each row of A, one elementwise pass per column.

    numpy reduces slowly along a short contiguous axis; the rows here have
    n = dim entries and the columns hundreds or thousands."""
    out = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        np.maximum(out, A[:, j], out=out)
    return out


def _row_sum(A):
    """Sum of each row of A in coordinate order (a_0 + a_1) + a_2 + ...,
    one elementwise pass per column."""
    out = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        out += A[:, j]
    return out


def _radii(A, weights):
    """Row maximum tau of q_j = |z_j|**(1/k_j), and q / tau in [0, 1].

    h(z) / tau depends on q / tau alone, so every gauge below works on numbers
    of order one whatever the magnitude of z."""
    k = np.asarray(weights, dtype=float)
    if np.all(k == 1):
        q = A
    else:
        # split off the binary exponent first: A ** (1 / k) directly would
        # turn the rounding of 1 / k into |log A| ulps
        mant, e = np.frexp(A)
        e1 = np.floor(e / k)
        q = np.ldexp((mant * np.exp2(e - e1 * k)) ** (1.0 / k), e1.astype(int))
    tau = _row_max(q)
    return tau, q / tau[:, None]


def _ellipsoid_gauge(A, p, weights):
    """Gauge of sum_j |z_j|**(2 p_j) < 1 with weights k.

    With c_j = 2 p_j k_j and t = tau e^u the boundary equation reads
    sum_j rho_j**c_j e^{-c_j u} = 1: a closed form when the c_j agree, else
    Newton on phi(u) = log sum_j exp(c_j (log rho_j - u)).  phi is convex and
    decreasing with phi(0) >= 0 (some rho_j is 1), so the iterates climb
    monotonically to the root; the max-shifted log-sum-exp keeps every term
    finite.  A step of at most 1e-15 is a relative step of t.
    """
    k = np.asarray(weights, dtype=float)
    c = 2.0 * np.asarray(p, dtype=float) * k
    tau, rho = _radii(A, weights)
    # a ratio rho_j below the float range still counts when c_j is small
    lost = (rho == 0) & (A > 0)
    if np.all(c == c[0]) and not lost.any():
        return tau * _row_sum(rho ** c[0]) ** (1.0 / c[0])
    with np.errstate(divide="ignore"):
        logrho = np.log(rho)  # -inf at zero coordinates
        logrho[lost] = (np.log(A) / k - np.log(tau)[:, None])[lost]
    L = c * logrho
    u = np.zeros(tau.shape[0])
    for _ in range(MAX_ITER):
        e = L - c * u[:, None]
        top = _row_max(e)
        w = np.exp(e - top[:, None])
        S = _row_sum(w)
        step = (top + np.log(S)) * S / (w @ c)
        u += step
        if step.max() <= 1e-15:
            return tau * np.exp(u)
    raise GaugeError(f"gauge Newton did not converge in {MAX_ITER} steps")


def _positive_root(A, quad):
    """Gauge (b + sqrt(b**2 + 4a)) / 2 of {quad(|z1|, |z2|) + |z3| < 1}, weights (1, 1, 1).

    Here quad is homogeneous of degree 2, a = quad(|z1|, |z2|) and b = |z3|;
    t**2 - b t - a is the defect at z / t times t**2."""
    tau, B = _radii(A, (1, 1, 1))
    a = quad(B[:, 0], B[:, 1])
    b = B[:, 2]
    return tau * 0.5 * (b + np.sqrt(b * b + 4.0 * a))


def _whole(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _weights(dim: int, weights) -> tuple:
    """The scaling weights k, integers >= 1, one per coordinate; all 1 when omitted."""
    if not _whole(dim):
        raise ValueError(f"the dimension n must be an integer, not {dim!r}")
    if dim < 1:
        raise ValueError(f"a domain needs at least one coordinate, not {dim}")
    k = (1,) * dim if weights is None else tuple(weights)
    if len(k) != dim:
        raise ValueError(f"{len(k)} weights k for a domain of dimension {dim}")
    if not all(_whole(v) and v >= 1 for v in k):
        raise ValueError(f"the weights k must be integers >= 1, not {list(k)}")
    return tuple(int(v) for v in k)


class Ellipsoid(Domain):
    """Complex ellipsoid sum |z_j|**(2 p_j) < 1."""

    def __init__(self, p, weights=None):
        self.p = tuple(float(v) for v in p)
        if len(self.p) == 0 or any(v <= 0 for v in self.p):
            raise ValueError("ellipsoid exponents must be positive")
        self.dim = len(self.p)
        self.weights = _weights(self.dim, weights)
        self.name = "ellipsoid"

    def defect_many(self, Z):
        # a scalar exponent per column: a broadcast row's bits vary with layout
        A = np.abs(Z)
        out = A[:, 0] ** (2.0 * self.p[0])
        for j in range(1, self.dim):
            out += A[:, j] ** (2.0 * self.p[j])
        return out - 1.0

    def _gauge(self, A):
        return _ellipsoid_gauge(A, self.p, self.weights)

    def to_json(self):
        return {"type": "ellipsoid", "p": list(self.p), "k": list(self.weights)}


class Ball(Ellipsoid):
    def __init__(self, n: int, weights=None):
        k = _weights(n, weights)
        super().__init__((1.0,) * len(k), k)
        self.name = "ball"

    def defect_many(self, Z):
        return _row_sum(np.abs(Z) ** 2) - 1.0

    def to_json(self):
        return {"type": "ball", "n": self.dim, "k": list(self.weights)}


class Polydisc(Domain):
    def __init__(self, n: int, weights=None):
        self.weights = _weights(n, weights)
        self.dim = len(self.weights)
        self.name = "polydisc"

    def defect_many(self, Z):
        return _row_max(np.abs(Z)) - 1.0

    def _gauge(self, A):
        return _radii(A, self.weights)[0]

    def to_json(self):
        return {"type": "polydisc", "n": self.dim, "k": list(self.weights)}


class UnitDisc(Ball):
    def __init__(self):
        super().__init__(1)
        self.name = "unit_disc"

    def defect_many(self, Z):
        return np.abs(Z[:, 0]) - 1.0

    def _gauge(self, A):
        return A[:, 0]

    def to_json(self):
        return {"type": "unit_disc"}


class CustomGauge(Domain):
    """Domain given by a vectorized defect function of |z| (it gets points or their
    moduli, as `Domain.defect_many` does) and its closed-form gauge.

    `gauge` is required: the gauge of rows of moduli |z| (all finite, none all
    zero), as `Domain._gauge` takes them.  `p` gives the power exponents when
    the domain is the ellipsoid sum |z_j|**(2 p_j) < 1.
    """

    def __init__(self, defect_many, dim: int, weights, name: str, gauge, p=None):
        self._fn = defect_many
        self._closed_form = gauge
        self.p = p
        self.weights = _weights(dim, weights)
        self.dim = dim
        self.name = name

    def defect_many(self, Z):
        return self._fn(Z)

    def _gauge(self, A):
        return self._closed_form(A)

    def to_json(self):
        return {"type": self.name}


def squared_sum_gauge() -> CustomGauge:
    """{ (|z1| + |z2|)**2 + |z3| < 1 }, balanced for weights (1,1,1)."""

    def d(Z):
        A = np.abs(Z)
        return (A[:, 0] + A[:, 1]) ** 2 + A[:, 2] - 1.0

    return CustomGauge(d, 3, (1, 1, 1), "squared_sum_gauge",
                       gauge=lambda A: _positive_root(A, lambda x, y: (x + y) ** 2))


def semilinear_gauge() -> CustomGauge:
    """{ |z1|**2 + |z2|**2 + |z3| < 1 }: the ellipsoid p = (1, 1, 1/2), on a closed-form gauge."""

    def d(Z):
        A = np.abs(Z)
        return A[:, 0] ** 2 + A[:, 1] ** 2 + A[:, 2] - 1.0

    return CustomGauge(d, 3, (1, 1, 1), "semilinear_gauge",
                       gauge=lambda A: _positive_root(A, lambda x, y: x * x + y * y),
                       p=(1.0, 1.0, 0.5))


def domain_from_json(d: dict) -> Domain:
    t = d["type"]
    if t == "ellipsoid":
        if not all(_whole(v) or isinstance(v, float) for v in d["p"]):
            raise ValueError(f"the exponents p must be real numbers, not {d['p']}")
        return Ellipsoid(d["p"], d.get("k"))
    if t == "ball":
        return Ball(d["n"], d.get("k"))
    if t == "polydisc":
        return Polydisc(d["n"], d.get("k"))
    if t == "unit_disc":
        return UnitDisc()
    if t == "squared_sum_gauge":
        return squared_sum_gauge()
    if t == "semilinear_gauge":
        return semilinear_gauge()
    raise ValueError(f"unknown domain type {t!r}")


def minkowski_many(dom: Domain, Z) -> np.ndarray:
    """Vectorized weighted Minkowski gauge: validate, then the domain's formula."""
    if np.shape(Z)[-1:] != (dom.dim,):
        raise ValueError(f"points of shape {np.shape(Z)} for a domain of dimension {dom.dim}")
    # C order, as the masked copies below make it: Newton's bits depend on layout
    A = np.ascontiguousarray(np.abs(Z), dtype=float).reshape(-1, dom.dim)
    if not np.isfinite(A).all():
        raise GaugeError("gauge of a point with a non-finite coordinate")
    active = _row_max(A) > 0
    if active.size and active.all():
        return dom._gauge(A)  # no zero rows: no masked copies
    out = np.zeros(A.shape[0])
    if active.any():
        out[active] = dom._gauge(A[active])
    return out


def minkowski_value(dom: Domain, z) -> float:
    """Weighted Minkowski gauge of a single point."""
    Z = np.asarray(z, dtype=complex).reshape(1, dom.dim)
    return float(minkowski_many(dom, Z)[0])


def moduli_boundary(dom: Domain, axes) -> np.ndarray:
    """Zero-phase boundary points rho / h(rho)**k, rho on the unit sphere's positive orthant
    at each combination (C order) of hyperspherical angles on dim - 1 axes; |cos| and |sin|
    fold an angle outside [0, pi/2] back into the orthant."""
    rho, s = np.empty(tuple(len(a) for a in axes) + (dom.dim,)), 1.0
    for i, t in enumerate(np.ix_(*axes)):
        rho[..., i] = s * np.abs(np.sin(np.pi / 2 - t))  # cos t, exactly 0 at pi/2: hits the axes
        s = s * np.abs(np.sin(t))
    rho[..., -1] = s
    h, k = minkowski_many(dom, rho.reshape(-1, dom.dim))[:, None], np.asarray(dom.weights, float)
    return rho.reshape(-1, dom.dim) / (h if (k == 1).all() else h ** k)


def grid_axes(count: int, k: int, stop: float, endpoint: bool = True) -> list:
    """linspace(0, stop) on each of k axes, with the most points per axis (at least
    one) that keep the tensor grid within count points."""
    side = max(1, round(count ** (1.0 / k))) if k else 1
    return [np.linspace(0.0, stop, side - (side ** k > count), endpoint=endpoint)] * k


def boundary_samples(dom: Domain, count: int) -> np.ndarray:
    """Deterministic grid of at most count zero-phase boundary points."""
    if count < 1:
        raise ValueError(f"boundary sample count must be at least 1, got {count}")
    if count > MAX_SAMPLES:
        raise ValueError(f"boundary sample count must be at most {MAX_SAMPLES}, got {count}")
    return moduli_boundary(dom, grid_axes(count, dom.dim - 1, np.pi / 2))


def sn_membership(p) -> tuple:
    """Decide membership of an exponent vector in the scaled-half class.

    The class is generated from (1/2, ..., 1/2) by repeatedly multiplying all
    entries by a common factor c >= 1 and adjoining coordinates equal to 1.
    Equivalently: p belongs iff there is B >= 1 with every coordinate either
    in [1, B] or equal to B/2.  Closed form: min(p) >= 1/2 and either
    min(p) >= 1, or all sub-unit coordinates share one value v with
    2 v >= max(p).

    Returns (True, witness) where witness = (b_1, ..., b_K) realizes every
    coordinate inside {b_1, ..., b_{K-1}} union {b_K / 2}, or (False, reason).
    """
    p = tuple(float(v) for v in p)
    if len(p) == 0:
        raise ValueError("empty exponent vector")
    mn, mx = min(p), max(p)
    if mn < 0.5:
        return (False, "min(p) < 1/2")
    big = sorted({v for v in p if v >= 1.0})
    small = [v for v in p if v < 1.0]
    if not small:
        B = 2.0 * max(mx, 1.0)
        return (True, tuple(big) + (B,))
    v = small[0]
    if any(abs(u - v) > 0 for u in small):
        return (False, "sub-unit coordinates differ")
    if 2.0 * v < mx:
        return (False, "2*min < max")
    B = 2.0 * v
    return (True, tuple(big) + (B,))
