"""Expression trees for holomorphic maps of the closed disc into C^n.

A MapSpec is a tuple of scalar expressions (one per coordinate) plus a
free-form metadata dict recording claims (family name, extremality level,
target domain).  Expressions evaluate through numpy, so a whole grid of
lambda values is one call.  Everything serializes to JSON for the CLI.
"""
from __future__ import annotations

import cmath

import numpy as np

from .cplane import BlaschkeProduct, ComplexPolynomial, moebius


def cauchy_coeffs(fn, center: complex, radius: float, count: int) -> np.ndarray:
    """Taylor coefficients of fn at center: trapezoidal Cauchy integral on a circle."""
    th = 2.0 * np.pi * np.arange(count) / count
    ring = center + radius * np.exp(1j * th)
    vals = np.asarray(fn(ring), dtype=complex)
    return np.fft.fft(vals) / count * radius ** (-np.arange(count, dtype=float))


class Expr:
    """Scalar expression in one disc variable."""

    def __call__(self, lam):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class Const(Expr):
    def __init__(self, value):
        self.value = complex(value)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.full(lam.shape, self.value)
        return complex(self.value) if out.ndim == 0 else out

    def to_json(self):
        return {"op": "const", "value": [self.value.real, self.value.imag]}


class Var(Expr):
    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        return complex(lam) if lam.ndim == 0 else lam

    def to_json(self):
        return {"op": "var"}


class Moebius(Expr):
    def __init__(self, alpha):
        self.alpha = complex(alpha)

    def __call__(self, lam):
        return moebius(self.alpha, np.asarray(lam, dtype=complex))

    def to_json(self):
        return {"op": "moebius", "alpha": [self.alpha.real, self.alpha.imag]}


class Polynomial(Expr):
    def __init__(self, coeffs):
        self.poly = coeffs if isinstance(coeffs, ComplexPolynomial) else ComplexPolynomial(tuple(coeffs))

    def __call__(self, lam):
        return self.poly(lam)

    def to_json(self):
        return {"op": "poly", "coeffs": [[c.real, c.imag] for c in self.poly.coeffs]}


class IntPow(Expr):
    def __init__(self, base: Expr, k: int):
        if int(k) != k or k < 0:
            raise ValueError("integer power must be a nonnegative integer")
        self.base, self.k = base, int(k)

    def __call__(self, lam):
        return self.base(lam) ** self.k

    def to_json(self):
        return {"op": "intpow", "k": self.k, "base": self.base.to_json()}


class RatioPower(Expr):
    """((1 - conj(alpha) lam) / (1 - conj(alpha0) lam)) ** s, principal branch.

    Both numerator and denominator have nonnegative real part on the closed
    disc when |alpha|, |alpha0| <= 1, so the principal logarithms never jump;
    the value at lam = 0 is exactly 1.
    """

    def __init__(self, alpha, alpha0, s: float):
        self.alpha, self.alpha0, self.s = complex(alpha), complex(alpha0), float(s)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(1.0 - np.conj(self.alpha) * lam) - np.log(1.0 - np.conj(self.alpha0) * lam)
            out = np.exp(self.s * logs)
        # radial limit 0 at a boundary zero of the numerator
        out = np.where(np.isnan(out), 0.0, out)
        return complex(out) if out.ndim == 0 else out

    def to_json(self):
        return {"op": "ratio_power", "alpha": [self.alpha.real, self.alpha.imag],
                "alpha0": [self.alpha0.real, self.alpha0.imag], "s": self.s}


class Sum(Expr):
    def __init__(self, terms):
        self.terms = tuple(terms)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.zeros(lam.shape, dtype=complex)
        for t in self.terms:
            out = out + t(lam)
        return complex(out) if out.ndim == 0 else out

    def to_json(self):
        return {"op": "sum", "terms": [t.to_json() for t in self.terms]}


class Product(Expr):
    def __init__(self, factors):
        self.factors = tuple(factors)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.ones(lam.shape, dtype=complex)
        for f in self.factors:
            out = out * f(lam)
        return complex(out) if out.ndim == 0 else out

    def to_json(self):
        return {"op": "product", "factors": [f.to_json() for f in self.factors]}


class Subst(Expr):
    """outer(inner(lam)); inner must map the closed disc into itself."""

    def __init__(self, outer: Expr, inner: Expr):
        self.outer, self.inner = outer, inner

    def __call__(self, lam):
        return self.outer(self.inner(lam))

    def to_json(self):
        return {"op": "subst", "outer": self.outer.to_json(), "inner": self.inner.to_json()}


class Blaschke(Expr):
    def __init__(self, product: BlaschkeProduct):
        self.product = product

    def __call__(self, lam):
        return self.product(np.asarray(lam, dtype=complex))

    def to_json(self):
        return {"op": "blaschke", **self.product.to_json()}


class MoebiusQuotient(Expr):
    """inner(lam) / m_alpha(lam)**k with the removable singularity filled in.

    Away from alpha this is a plain division.  Within rho/2 of alpha the
    value comes from the Taylor expansion of inner(lam) (1 - conj(alpha) lam)**k
    around alpha, whose coefficients are recovered by a trapezoidal Cauchy
    integral on a circle of radius rho (spectrally accurate for maps
    holomorphic past that circle).
    """

    _N = 64

    def __init__(self, inner: Expr, alpha, k: int):
        if int(k) != k or not 0 <= k < self._N:
            raise ValueError(f"integer power must be a nonnegative integer below {self._N}")
        self.inner, self.alpha, self.k = inner, complex(alpha), int(k)
        if abs(self.alpha) >= 1:
            raise ValueError("quotient point must be inside the open disc")
        self.rho = min(0.3, 0.5 * (1.0 - abs(self.alpha)))
        self._coeffs = None

    def _series(self):
        if self._coeffs is None:
            def lifted(ring):
                vals = np.asarray(self.inner(ring), dtype=complex)
                return vals * (1.0 - np.conj(self.alpha) * ring) ** self.k
            self._coeffs = cauchy_coeffs(lifted, self.alpha, self.rho, self._N)
        return self._coeffs

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        scalar = lam.ndim == 0
        lam = np.atleast_1d(lam)
        out = np.empty(lam.shape, dtype=complex)
        near = np.abs(lam - self.alpha) < 0.5 * self.rho
        if (~near).any():
            lf = lam[~near]
            out[~near] = self.inner(lf) / moebius(self.alpha, lf) ** self.k
        if near.any():
            c = self._series()
            u = lam[near] - self.alpha
            acc = np.zeros(u.shape, dtype=complex)
            for t in range(self._N - 1, self.k - 1, -1):
                acc = acc * u + c[t]
            out[near] = acc
        return complex(out[0]) if scalar else out

    def to_json(self):
        return {"op": "moebius_quotient", "alpha": [self.alpha.real, self.alpha.imag],
                "k": self.k, "inner": self.inner.to_json()}


def _finite_number(v):
    """A JSON number as a float, or an [re, im] pair as a complex; ValueError
    on NaN, on infinity and on a list that is not a pair."""
    if isinstance(v, (list, tuple)):
        real, imag = v
        x = complex(real, imag)
    else:
        x = float(v)
    if not cmath.isfinite(x):
        raise ValueError(f"non-finite number {v!r} in a map")
    return x


def expr_from_json(d: dict) -> Expr:
    op = d["op"]
    if op == "const":
        return Const(_finite_number(d["value"]))
    if op == "var":
        return Var()
    if op == "moebius":
        return Moebius(_finite_number(d["alpha"]))
    if op == "poly":
        return Polynomial([_finite_number(c) for c in d["coeffs"]])
    if op == "intpow":
        return IntPow(expr_from_json(d["base"]), d["k"])
    if op == "ratio_power":
        return RatioPower(_finite_number(d["alpha"]), _finite_number(d["alpha0"]),
                          _finite_number(d["s"]))
    if op == "sum":
        return Sum(tuple(expr_from_json(t) for t in d["terms"]))
    if op == "product":
        return Product(tuple(expr_from_json(t) for t in d["factors"]))
    if op == "subst":
        return Subst(expr_from_json(d["outer"]), expr_from_json(d["inner"]))
    if op == "blaschke":
        return Blaschke(BlaschkeProduct.from_json(d))
    if op == "moebius_quotient":
        return MoebiusQuotient(expr_from_json(d["inner"]), _finite_number(d["alpha"]), d["k"])
    raise ValueError(f"unknown expression op {op!r}")


class MapSpec:
    """Holomorphic map of the closed disc into C^n, as component expressions."""

    def __init__(self, components, meta: dict | None = None):
        self.components = tuple(components)
        self.meta = dict(meta or {})

    @property
    def dim(self) -> int:
        return len(self.components)

    def __call__(self, lam):
        lam_arr = np.asarray(lam, dtype=complex)
        vals = [np.broadcast_to(np.asarray(c(lam_arr), dtype=complex), lam_arr.shape)
                for c in self.components]
        out = np.stack(vals, axis=-1)
        return out[0] if np.ndim(lam) == 0 and out.ndim == 2 else out

    def eval_many(self, lams) -> np.ndarray:
        lams = np.asarray(lams, dtype=complex).reshape(-1)
        return self(lams)

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components], "meta": self.meta}

    @staticmethod
    def from_json(d: dict) -> "MapSpec":
        return MapSpec(tuple(expr_from_json(c) for c in d["components"]), d.get("meta"))


def monomial_map(coeffs_and_powers, meta=None) -> MapSpec:
    """Map with components c_j * lam**t_j."""
    comps = []
    for c, t in coeffs_and_powers:
        coeff = [0.0] * t + [c]
        comps.append(Polynomial(coeff))
    return MapSpec(comps, meta)


class MultiPoly:
    """Sparse polynomial on C^n: list of (coefficient, exponent tuple)."""

    def __init__(self, terms):
        self.terms = tuple((complex(c), tuple(int(e) for e in exps)) for c, exps in terms)

    @property
    def nvars(self) -> int:
        return max((len(e) for _, e in self.terms), default=0)

    def __call__(self, Z):
        Z = np.asarray(Z, dtype=complex)
        single = Z.ndim == 1
        pts = Z.reshape(1, -1) if single else Z
        out = np.zeros(pts.shape[0], dtype=complex)
        for c, exps in self.terms:
            term = np.full(pts.shape[0], c)
            for j, e in enumerate(exps):
                if e:
                    term = term * pts[:, j] ** e
            out += term
        return complex(out[0]) if single else out

    def to_json(self):
        return {"terms": [[[c.real, c.imag], list(e)] for c, e in self.terms]}

    @staticmethod
    def from_json(d) -> "MultiPoly":
        return MultiPoly([(_finite_number(c), tuple(e)) for c, e in d["terms"]])

    def __repr__(self):
        return f"MultiPoly({self.terms!r})"
