"""Scalar building blocks on the unit disc.

Moebius factors m_a(z) = (z - a)/(1 - conj(a) z), finite Blaschke products,
Lagrange interpolation and the Schur reduction that peels one Blaschke
degree per step.  Evaluation takes numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDataError
from .policy import DEFAULT_POLICY, NumericPolicy


def moebius(alpha, lam):
    """(lam - alpha) / (1 - conj(alpha) lam), the disc automorphism sending alpha to 0."""
    return (lam - alpha) / (1.0 - np.conj(alpha) * lam)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product ``unimodular_factor * prod_j m_{zeros[j]}``.

    Degree equals the number of zeros (with multiplicity).  The representation
    by zeros is exact under Schur reduction.
    """

    unimodular_factor: complex = 1.0 + 0.0j
    zeros: tuple = ()

    def __post_init__(self):
        if not abs(abs(self.unimodular_factor) - 1.0) <= 1e-12:
            raise ValueError("leading factor must be unimodular")
        if not all(abs(z) < 1.0 for z in self.zeros):
            raise ValueError("Blaschke zeros must lie strictly inside the disc")
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, lam):
        out = np.full(np.shape(lam), self.unimodular_factor, dtype=complex)
        for z in self.zeros:
            out = out * moebius(z, lam)
        return out

    @staticmethod
    def monomial(degree: int) -> "BlaschkeProduct":
        """lambda**degree as a Blaschke product."""
        return BlaschkeProduct(1.0, (0.0,) * degree)

    def to_json(self) -> dict:
        return {
            "factor": [self.unimodular_factor.real, self.unimodular_factor.imag],
            "zeros": [[z.real, z.imag] for z in self.zeros],
        }

    @staticmethod
    def from_json(d: dict) -> "BlaschkeProduct":
        zeta = complex(d["factor"][0], d["factor"][1])
        zeros = tuple(complex(a, b) for a, b in d["zeros"])
        return BlaschkeProduct(zeta, zeros)


def trimmed(coeffs):
    """A coefficient sequence without its trailing exact zeros; one coefficient is kept."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def disc_data(nodes, values):
    """Interpolation data (nodes, values) as complex arrays, one value row per
    node.  The one node rule: nodes nonempty, finite, inside the open disc and
    pairwise at least 1e-8 apart.  Values must be finite.  Else ValueError."""
    x = np.asarray(nodes, dtype=complex)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("need a flat list of at least one node")
    if not np.isfinite(x).all():
        raise ValueError("nodes must be finite")
    if np.abs(x).max() >= 1:
        raise ValueError("nodes must lie inside the open disc")
    if np.count_nonzero(np.abs(x[:, None] - x) < 1e-8) > len(x):  # the diagonal counts len(x)
        raise ValueError("nodes must be distinct, at least 1e-8 apart")
    w = np.asarray(values, dtype=complex)
    if len(w) != len(x):
        raise ValueError(f"need as many values as nodes: {len(w)} values for {len(x)} nodes")
    if not np.isfinite(w).all():
        raise ValueError("values must be finite")
    return x, w


def lagrange_polynomial(nodes, values) -> np.ndarray:
    """Ascending coefficients, trailing exact zeros stripped, of the interpolant of
    degree <= m - 1 through data (nodes, values) at m nodes that `disc_data` accepts.
    The monomial basis loses accuracy fast with m: a miss above 1e-9 max(1, max |values|)
    is refused."""
    x, values = disc_data(nodes, values)
    nodes = x.tolist()
    acc = [0j]
    for j, wj in enumerate(values):
        basis, denom = np.ones(1, dtype=complex), 1.0 + 0.0j
        for k, xk in enumerate(nodes):
            if k != j:
                basis = np.convolve(basis, (-xk, 1.0))
                denom *= nodes[j] - xk
        scale = complex(wj) / denom
        term = trimmed([scale * complex(v) for v in basis])
        # the longer list keeps its tail as is: adding 0 would flip a -0.0
        hi, lo = (acc, term) if len(acc) >= len(term) else (term, acc)
        acc = trimmed([a + b for a, b in zip(hi, lo)] + hi[len(lo):])
    acc = np.asarray(acc)
    miss = float(np.max(np.abs(np.polyval(acc[::-1], x) - values), initial=0.0))
    if not miss <= 1e-9 * float(np.max(np.abs(values), initial=1.0)):
        raise ValueError(f"the interpolant through {len(nodes)} nodes misses the data by {miss:.3g}")
    return acc


def blaschke_degree_of_data(nodes, values, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Minimal degree of a finite Blaschke product through the data.

    Runs the node-value Schur recursion: a step on pivot (x0, w0) maps the
    other values w at x to m_{w0}(w) / m_{x0}(x).  Every pivot keeps the
    inertia of the Pick matrix (the reduced one is congruent to a Schur
    complement), so each step scores all pivots in one array and takes the
    one that leaves the smallest max |w'|.  Terminates when the values form a
    unimodular constant (degree = steps taken) or when the data is exhausted
    (each leftover interior value costs one more degree).  Raises
    ValueError on data that `disc_data` refuses, and InfeasibleDataError
    when a value leaves the closed disc: no closed-disc holomorphic
    interpolant exists at all.
    """
    x, w = disc_data(nodes, values)
    # D[i, j] = m_{x_i}(x_j), with 1 on the diagonal so that W[i, i] = 0
    D = moebius(x[:, None], x) + np.eye(len(x))
    top = float(np.abs(w).max())
    while True:
        steps = len(x) - len(w)
        if top > 1.0 + policy.unimodular_tol:
            raise InfeasibleDataError(f"value of modulus {top} after {steps} reductions")
        if top >= 1.0 - policy.unimodular_tol:
            # an interior point of modulus one forces a unimodular constant
            if np.abs(w - w[np.abs(w).argmax()]).max() <= 1e-8:
                return steps
            raise InfeasibleDataError("distinct values of modulus one at interior nodes")
        if len(w) == 1:
            # one interior value: a degree-1 product through it always exists
            return steps + 1
        W = moebius(w[:, None], w) / D
        score = np.abs(W).max(axis=1)
        pivot = int(score.argmin())
        # drop the pivot: the last node takes its place
        w = W[pivot]
        w[pivot], D[pivot], D[:, pivot] = w[-1], D[-1], D[:, -1]
        top, w, D = float(score[pivot]), w[:-1], D[:-1, :-1]
