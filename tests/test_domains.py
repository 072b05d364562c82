"""Gauge domains: Minkowski functionals, membership, boundary sampling, exponent class."""

import hashlib
import json
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import domains
from geodisc.domains import (Ball, CustomGauge, Ellipsoid, Polydisc,
                             UnitDisc, boundary_samples, domain_from_json,
                             minkowski_many, minkowski_value, semilinear_gauge,
                             sn_membership, squared_sum_gauge)
from geodisc.errors import GaugeError


def random_point(rng, n, scale=1.0):
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


# ---------------------------------------------------------------------------
# Minkowski functional oracles
# ---------------------------------------------------------------------------

def test_minkowski_frozen_ellipsoid_value():
    # For E(1/2, 1) at (0.3, 0.4i) the gauge solves 0.3/t + 0.16/t^2 = 1,
    # hence t = (0.3 + sqrt(0.73)) / 2.
    dom = Ellipsoid((0.5, 1.0))
    got = minkowski_value(dom, np.array([0.3, 0.4j]))
    assert got == pytest.approx((0.3 + np.sqrt(0.73)) / 2, abs=1e-12)


def test_minkowski_frozen_weighted_value():
    # weight 2 on a single coordinate: |z / t^2| = 1 at t = sqrt(|z|)
    dom = Ellipsoid((1.0,), weights=(2,))
    assert minkowski_value(dom, np.array([0.25])) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("make,error", [
    (lambda: Ellipsoid((1.0,), weights=(1, 2)), "2 weights k for a domain of dimension 1"),
    (lambda: Ball(2, weights=(1,)), "1 weights k for a domain of dimension 2"),
    (lambda: Polydisc(2, weights=(1, 1, 1)), "3 weights k for a domain of dimension 2"),
    (lambda: Ball(0), "a domain needs at least one coordinate, not 0"),
    (lambda: Polydisc(-2), "a domain needs at least one coordinate, not -2"),
])
def test_domain_refuses_weights_unlike_its_dimension(make, error):
    # Ellipsoid((1,), (1, 2)) used to load, and its gauge at 0.9 read 1.18
    with pytest.raises(ValueError, match=f"^{error}$"):
        make()


@pytest.mark.parametrize("make,error", [
    (lambda: Ball(2.7), "the dimension n must be an integer, not 2.7"),
    (lambda: Polydisc(True), "the dimension n must be an integer, not True"),
    (lambda: Ball(2, weights=(1.5, 1)), r"the weights k must be integers >= 1, not \[1.5, 1\]"),
    (lambda: Polydisc(2, weights=(True, 1)), r"the weights k must be integers >= 1, not \[True, 1\]"),
    (lambda: Ellipsoid((1.0, 2.0), weights=(0, 1)), r"the weights k must be integers >= 1, not \[0, 1\]"),
    (lambda: domain_from_json({"type": "ellipsoid", "p": [1, "x"]}),
     r"the exponents p must be real numbers, not \[1, 'x'\]"),
    (lambda: domain_from_json({"type": "ellipsoid", "p": [False, 1]}),
     r"the exponents p must be real numbers, not \[False, 1\]"),
], ids=["n-float", "n-bool", "k-float", "k-bool", "k-zero", "p-str", "p-bool"])
def test_domain_refuses_untyped_dimension_weights_and_exponents(make, error):
    # Ball(2.7) used to load as Ball(2), Polydisc(True) as Polydisc(1) and
    # k = (1.5, 1) as weights; a weight 0 loaded and failed at the gauge
    with pytest.raises(ValueError, match=f"^{error}$"):
        make()


@pytest.mark.parametrize("weights,error", [
    ((0, 1, 1), r"the weights k must be integers >= 1, not \[0, 1, 1\]"),
    ((1, 1), "2 weights k for a domain of dimension 3"),
], ids=["zero", "short"])
def test_custom_gauge_checks_its_weights(weights, error):
    # a custom gauge took its weights as given, and a weight 0 failed only at
    # the gauge's own check
    sq = squared_sum_gauge()
    with pytest.raises(ValueError, match=f"^{error}$"):
        CustomGauge(sq.defect_many, 3, weights, "custom", gauge=sq._gauge)


def test_domain_takes_numpy_integers():
    # and keeps Python ints, so that to_json stays serializable
    dom = Polydisc(np.int64(2), weights=np.array([1, 2]))
    assert json.dumps(dom.to_json()) == '{"type": "polydisc", "n": 2, "k": [1, 2]}'
    assert json.dumps(Ball(np.int32(3)).to_json()) == '{"type": "ball", "n": 3, "k": [1, 1, 1]}'


def test_minkowski_ball_and_polydisc_closed_forms():
    rng = np.random.default_rng(201)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        z = random_point(rng, n, scale=0.8)
        assert minkowski_value(Ball(n), z) == pytest.approx(np.linalg.norm(z), abs=1e-10)
        assert minkowski_value(Polydisc(n), z) == pytest.approx(np.max(np.abs(z)), abs=1e-10)
    assert minkowski_value(UnitDisc(), np.array([0.3 - 0.4j])) == pytest.approx(0.5, abs=1e-12)


def test_minkowski_homogeneity_weighted():
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = rng.uniform(0.4, 2.5, size=n)
        k = tuple(int(v) for v in rng.integers(1, 4, size=n))
        dom = Ellipsoid(tuple(p), weights=k)
        z = random_point(rng, n, scale=0.7)
        lam = rng.uniform(0.1, 1.5) * np.exp(2j * np.pi * rng.uniform())
        zl = np.array([lam ** k[j] * z[j] for j in range(n)])
        assert abs(minkowski_value(dom, zl) - abs(lam) * minkowski_value(dom, z)) <= 1e-9


def test_minkowski_membership_consistency():
    rng = np.random.default_rng(203)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        dom = Ellipsoid(tuple(rng.uniform(0.4, 2.0, size=n)),
                        weights=tuple(int(v) for v in rng.integers(1, 3, size=n)))
        z = random_point(rng, n, scale=0.6)
        h = minkowski_value(dom, z)
        d = dom.defect(z)
        if d < 0:
            assert h < 1.0 - 1e-10 or h == pytest.approx(1.0, abs=1e-9)
        if h < 1.0 - 1e-10:
            assert d < 0


def test_minkowski_many_matches_scalar():
    rng = np.random.default_rng(204)
    dom = Ellipsoid((0.5, 1.5))
    Z = random_point(rng, 2 * 40, scale=0.7).reshape(40, 2)
    vec = minkowski_many(dom, Z)
    for i in range(40):
        assert vec[i] == pytest.approx(minkowski_value(dom, Z[i]), abs=1e-10)


def test_custom_gauges_scale_linearly():
    rng = np.random.default_rng(205)
    for dom in (squared_sum_gauge(), semilinear_gauge()):
        for _ in range(50):
            z = random_point(rng, dom.dim, scale=0.5)
            t = rng.uniform(0.2, 2.0)
            h0 = minkowski_value(dom, z)
            h1 = minkowski_value(dom, t * z)
            assert abs(h1 - t * h0) < 1e-9


# ---------------------------------------------------------------------------
# Gauge kernel: extreme magnitudes, non-finite input, fast paths vs bisection
# ---------------------------------------------------------------------------

def bisection_gauge(dom):
    """Gauge of rows of moduli A by bisection on t of dom's defect at
    A_j / t**k_j: the slow oracle the closed forms and Newton are checked
    against."""
    k = np.asarray(dom.weights, dtype=float)

    def inside(A, t):  # overflow to inf is fine for bracketing
        return dom.defect_many(A / t[:, None] ** k) < 0

    def gauge(A):
        hi, _ = domains._radii(A, dom.weights)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(2200):
                grow = ~inside(A, hi)
                if not grow.any():
                    break
                hi[grow] *= 2.0
            else:
                raise GaugeError("no outer bracket after 2200 doublings")
            lo = hi / 2.0
            for _ in range(2200):
                shrink = inside(A, lo)
                if not shrink.any():
                    break
                hi[shrink] = lo[shrink]
                lo[shrink] /= 2.0
            else:
                raise GaugeError("no inner bracket after 2200 halvings")
            for _ in range(domains.MAX_ITER):
                mid = 0.5 * (lo + hi)
                shrink = inside(A, mid)
                hi[shrink] = mid[shrink]
                lo[~shrink] = mid[~shrink]
                if np.all(hi - lo <= 1e-15 * hi):
                    return 0.5 * (lo + hi)
        raise GaugeError(f"gauge bisection did not converge in {domains.MAX_ITER} steps")

    return gauge


def bisected(dom, name="bisected"):
    """dom's defect with the bisection oracle as its gauge."""
    return CustomGauge(dom.defect_many, dom.dim, dom.weights, name, gauge=bisection_gauge(dom))


def test_minkowski_extreme_magnitudes():
    # sqrt(sum |z|^2) underflows to 0 at 1e-300 and overflows at 1e200
    assert minkowski_value(Ball(2), [1e-300, 0]) == 1e-300
    assert minkowski_value(Ball(2), [1e200, 1e200]) == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)


def test_minkowski_small_exponent_keeps_underflowed_ratio():
    # |z1| / |z2| = 1e-400 underflows, yet (1e-400)**(2 p) = 1e-8 moves h by 5e-7
    mpmath.mp.dps = 50
    for dom in (Ellipsoid((0.01, 1.0)), Ellipsoid((0.01, 0.01))):
        z = np.array([1e-200, 1e200])
        assert abs(minkowski_value(dom, z) - mp_gauge(dom, z)) <= 1e-14 * mp_gauge(dom, z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_minkowski_rejects_non_finite(bad):
    for dom in (UnitDisc(), Ball(2), Polydisc(2), Ellipsoid((1.0, 2.0)),
                Ellipsoid((0.5, 1.5), weights=(1, 2)), squared_sum_gauge(), semilinear_gauge(),
                bisected(Ball(2), "bisected ball")):
        z = np.zeros(dom.dim, dtype=complex)
        z[-1] = bad
        with pytest.raises(GaugeError):
            minkowski_value(dom, z)


def mp_gauge(dom, z):
    """Reference gauge at 50 digits: closed form, or bisection on t."""
    a = [mpmath.mpf(abs(complex(v))) for v in z]
    k = dom.weights
    if max(a) == 0:
        return mpmath.mpf(0)
    if isinstance(dom, (Polydisc, UnitDisc)):
        return max(aj ** (mpmath.mpf(1) / kj) for aj, kj in zip(a, k))
    if dom.name in ("squared_sum_gauge", "semilinear_gauge"):
        quad = (a[0] + a[1]) ** 2 if dom.name == "squared_sum_gauge" else a[0] ** 2 + a[1] ** 2
        return (a[2] + mpmath.sqrt(a[2] ** 2 + 4 * quad)) / 2
    p = dom.p if isinstance(dom, Ellipsoid) else (1.0,) * dom.dim
    # rho_j = |z_j|^(1/k_j) / tau in log form, so no ratio underflows
    logq = [mpmath.log(aj) / kj if aj > 0 else None for aj, kj in zip(a, k)]
    logtau = max(v for v in logq if v is not None)

    def defect(u):  # at t = tau e^u
        return sum(mpmath.exp(2 * mpmath.mpf(pj) * kj * (lq - logtau - u))
                   for lq, pj, kj in zip(logq, p, k) if lq is not None) - 1

    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    while defect(hi) >= 0:
        hi *= 2
    for _ in range(180):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if defect(mid) >= 0 else (lo, mid)
    return mpmath.exp(logtau + (lo + hi) / 2)


weights_st = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@st.composite
def gauge_domains(draw):
    kind = draw(st.sampled_from(["disc", "ball", "polydisc", "ellipsoid", "squared_sum",
                                 "semilinear"]))
    if kind == "disc":
        return UnitDisc()
    if kind == "squared_sum":
        return squared_sum_gauge()
    if kind == "semilinear":
        return semilinear_gauge()
    k = tuple(draw(weights_st))
    if draw(st.booleans()):
        k = (1,) * len(k)
    if kind == "ball":
        return Ball(len(k), weights=k)
    if kind == "polydisc":
        return Polydisc(len(k), weights=k)
    p = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]),
                      min_size=len(k), max_size=len(k)))
    return Ellipsoid(p, weights=k)


@st.composite
def gauge_cases(draw):
    dom = draw(gauge_domains())
    z = []
    for _ in range(dom.dim):
        if draw(st.integers(0, 4)) == 0:
            z.append(0j)
        else:
            modulus = 10.0 ** draw(st.floats(-300, 300))
            z.append(modulus * np.exp(1j * draw(st.floats(0, 2 * np.pi))))
    lam = 10.0 ** draw(st.floats(-3, 3)) * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    return dom, np.array(z), lam


@settings(max_examples=300, deadline=None)
@given(gauge_cases())
def test_minkowski_property_matches_reference(case):
    mpmath.mp.dps = 50
    dom, z, lam = case
    h = minkowski_value(dom, z)
    ref = mp_gauge(dom, z)
    if ref == 0:
        assert h == 0.0
        return
    assert abs(h - ref) <= 1e-14 * ref
    # homogeneity h(lam^k z) = |lam| h(z), where lam^k z stays in the float range
    zl = z * lam ** np.asarray(dom.weights)
    if np.all(np.isfinite(zl)) and np.all((np.abs(zl) > 1e-300) | (z == 0)):
        assert abs(minkowski_value(dom, zl) - abs(lam) * h) <= 1e-14 * abs(lam) * h


def test_minkowski_whole_zero_rows():
    for dom in (UnitDisc(), Ball(3, weights=(1, 2, 3)), Polydisc(2), Ellipsoid((0.5, 2.0)),
                squared_sum_gauge(), semilinear_gauge()):
        Z = np.zeros((3, dom.dim), dtype=complex)
        Z[1] = 0.5
        h = minkowski_many(dom, Z)
        assert h[0] == 0.0 and h[2] == 0.0 and h[1] > 0


ORACLE_DOMAINS = [
    Ball(3), Polydisc(3, weights=(1, 2, 3)), UnitDisc(),
    Ellipsoid((0.5, 0.5)), Ellipsoid((1.0, 2.0)), Ellipsoid((0.75, 1.5, 2.5)),
    Ellipsoid((0.7, 1.3, 2.1), weights=(1, 2, 3)), Ball(2, weights=(1, 2)),
    squared_sum_gauge(), semilinear_gauge(),
]


@pytest.mark.parametrize("dom", ORACLE_DOMAINS, ids=lambda d: f"{d.name}{d.weights}")
def test_minkowski_fast_paths_match_bisection(dom):
    # the same defect, its gauge found by bisection on t
    slow_dom = bisected(dom)
    rng = np.random.default_rng(207)
    Z = rng.standard_normal((10_000, dom.dim)) + 1j * rng.standard_normal((10_000, dom.dim))
    Z *= 10.0 ** rng.uniform(-5, 5, size=(10_000, 1))
    Z[rng.uniform(size=Z.shape) < 0.05] = 0
    fast = minkowski_many(dom, Z)
    slow = minkowski_many(slow_dom, Z)
    assert np.array_equal(fast == 0, slow == 0)
    nz = slow > 0
    assert np.max(np.abs(fast[nz] - slow[nz]) / slow[nz]) <= 4e-15


@pytest.mark.parametrize("dom", ORACLE_DOMAINS, ids=lambda d: f"{d.name}{d.weights}")
def test_minkowski_unmasked_path_matches_masked_bits(dom):
    # without zero rows the gauge sees the input itself, not masked copies;
    # the bits must be those the masked path gives the same rows, whatever
    # the input's memory order, and the input must stay as it was.  The gauge
    # reads moduli only: real points, signed or not, give the bits of complex
    # points of the same moduli.
    rng = np.random.default_rng(311)
    # above about 4,096 rows numpy's broadcast power buffers an F-ordered input
    Z = rng.standard_normal((6000, dom.dim)) + 1j * rng.standard_normal((6000, dom.dim))
    zero = rng.uniform(size=6000) < 0.1
    Z[zero] = 0
    rows = Z[~zero]
    A = np.abs(rows)
    inputs = (Z, rows, np.asfortranarray(rows), A, -A, np.asfortranarray(A))
    before = [arr.copy() for arr in inputs]
    masked = minkowski_many(dom, Z)
    assert np.all(masked[zero] == 0)
    for arr in inputs[1:]:
        assert minkowski_many(dom, arr).tobytes() == masked[~zero].tobytes()
    # small integer points, e.g. [[1, 0], [0, 2], [1, 1]]
    ints = np.vstack([np.diag(np.arange(1, dom.dim + 1)), np.ones(dom.dim, dtype=int)])
    assert minkowski_many(dom, ints).tobytes() == minkowski_many(dom, ints.astype(complex)).tobytes()
    assert all(np.array_equal(arr, old) for arr, old in zip(inputs, before))


def test_bisection_fallback_handles_tiny_and_huge_gauges():
    ball = bisected(Ball(2), "bisected ball")
    assert minkowski_value(ball, [1e-300, 0]) == pytest.approx(1e-300, rel=1e-15)
    assert minkowski_value(ball, [1e200, 1e200]) == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)


# ---------------------------------------------------------------------------
# Boundary sampling
# ---------------------------------------------------------------------------

def test_boundary_samples_sit_on_boundary():
    dom = Ellipsoid((0.5, 1.0), weights=(1, 2))
    Z = boundary_samples(dom, 500)
    g = minkowski_many(dom, Z)
    assert np.max(np.abs(g - 1.0)) < 1e-9


def test_boundary_samples_deterministic():
    # a grid, not a draw: the same call gives the same bits, and count only
    # bounds the number of points
    dom = Ball(3)
    Z1 = boundary_samples(dom, 200)
    assert np.array_equal(Z1, boundary_samples(dom, 200))
    assert Z1.shape == (196, 3)
    assert boundary_samples(dom, 1).shape == (1, 3)
    assert boundary_samples(Ball(2), 200).shape == (200, 2)
    assert not np.iscomplexobj(Z1) and np.all(Z1 >= 0)


GRID_DOMAINS = {"ball2": lambda: Ball(2), "ball3": lambda: Ball(3), "polydisc3": lambda: Polydisc(3),
                "unit_disc": UnitDisc, "ellipsoid_half": lambda: Ellipsoid((0.5, 0.5)),
                "ellipsoid_weighted": lambda: Ellipsoid((0.5, 1.0), weights=(1, 2)),
                "ellipsoid_newton": lambda: Ellipsoid([1, 2], weights=(1, 2)),
                "ellipsoid3": lambda: Ellipsoid((0.75, 1.0, 2.0)),
                "squared_sum": squared_sum_gauge, "semilinear": semilinear_gauge,
                "bisected_ball": lambda: bisected(Ball(2), "bisected ball")}


@pytest.mark.parametrize("name", list(GRID_DOMAINS))
def test_boundary_grid_holds_the_axes_and_sits_on_the_boundary(name):
    dom = GRID_DOMAINS[name]()
    Z = boundary_samples(dom, 500)
    assert np.max(np.abs(dom.defect_many(Z))) <= 1e-12
    # every domain here meets the j-th axis at the unit vector e_j; the grid
    # hits the axis exactly (zeros elsewhere), the gauge to rounding
    for e in np.eye(dom.dim):
        on_axis = Z[(Z[:, e == 0] == 0).all(axis=1)] @ e
        assert np.min(np.abs(on_axis - 1.0)) <= 1e-12


# sha256 of the grid boundary_samples(dom, count).tobytes() (numpy 2.4,
# x86-64): every certify report's sup starts from the best of these points,
# so a faster grid must keep every bit
BOUNDARY_DIGESTS = {
    ("ball2", 12345): "271e9b5da6a2c8963d59689a530066fcf66695951b77a0fa72860d34bbba46a8",
    ("ball2", 7): "ef0315198f28819aaa8c8888e57d4b2eda6eec1656a146b6a60d27c4f52cba8f",
    ("polydisc2", 12345): "03e27d0fc9af48ee66f49773022df7e3b613bb0ebeae1a1230a1c70f4bc2f724",
    ("polydisc2", 7): "a0b257d35d8b76212b05df1fe01f9d76a376a6c45ee4a4e5e4cac94df9a45b9d",
    ("ellipsoid_half", 12345): "c7f31e91322684bde3fdc2d607557d313523ae266116eb981e62ae5bcdc6c9e2",
    ("ellipsoid_half", 7): "1bd65e05914dfd19f32e864a50d05b453f9317f7f9d91a23210e1b89ec59f098",
    ("ellipsoid_newton", 12345): "aebe8824c9b5649c07831919af4810b502a6d5f74f10cce35aec2c87c6eed545",
    ("ellipsoid_newton", 7): "3b35218b834a8df04113d7bb0620a2640b46897c7e7a8b57779cf6947c39b2ab",
    ("squared_sum", 12345): "e2393704a876cb09004c25d2fa248f0da5046cfb4a04449c79536555261a3785",
    ("squared_sum", 7): "9e616a4bebb6109dbaec91221d2f51c1ec6a95ff32616718ae8b45fa42437b94",
    ("semilinear", 12345): "ccc2fda69562a4099c4c82c5bde7f740e0f42a80191fef845c30eade6da3856c",
    ("semilinear", 7): "9e616a4bebb6109dbaec91221d2f51c1ec6a95ff32616718ae8b45fa42437b94",
}
DIGEST_DOMAINS = {"ball2": lambda: Ball(2), "polydisc2": lambda: Polydisc(2),
                  "ellipsoid_half": lambda: Ellipsoid((0.5, 0.5)),
                  "ellipsoid_newton": lambda: Ellipsoid([1, 2], weights=(1, 2)),
                  "squared_sum": squared_sum_gauge, "semilinear": semilinear_gauge}


@pytest.mark.parametrize("name, count", sorted(BOUNDARY_DIGESTS))
def test_boundary_samples_bits_pinned(name, count):
    Z = boundary_samples(DIGEST_DOMAINS[name](), count)
    assert hashlib.sha256(Z.tobytes()).hexdigest() == BOUNDARY_DIGESTS[(name, count)]


@pytest.mark.parametrize("k", range(9))
def test_grid_axes_take_the_most_points_within_count(k):
    # the one sizing rule of certify's moduli and phase grids (a zoom round
    # is as fine per axis as the grid it starts from)
    for count in (1, 2, 7, 100, 255, 256, 2000, 4096, 100_000):
        axes = domains.grid_axes(count, k, np.pi / 2)
        assert len(axes) == k
        if k:
            side = len(axes[0])
            assert 1 <= side and side ** k <= count < (side + 1) ** k
            assert axes[0][0] == 0.0 and (side == 1 or axes[0][-1] == np.pi / 2)


@pytest.mark.parametrize("count", [0, -3])
def test_boundary_samples_refuse_counts_below_one(count):
    with pytest.raises(ValueError, match=f"at least 1, got {count}$"):
        boundary_samples(Ball(2), count)


def test_boundary_samples_refuse_counts_past_the_cap():
    count = domains.MAX_SAMPLES + 1
    with pytest.raises(ValueError, match=f"at most {domains.MAX_SAMPLES}, got {count}$"):
        boundary_samples(Ball(2), count)


@pytest.mark.parametrize("shape", [(4, 3), (6,), (2, 3, 1), ()])
def test_minkowski_many_refuses_points_of_another_dimension(shape):
    # reshape(-1, 2) used to read 4 points of C^3 as 6 points of C^2
    with pytest.raises(ValueError, match="for a domain of dimension 2$"):
        minkowski_many(Ball(2), np.full(shape, 0.1 + 0j))


# ---------------------------------------------------------------------------
# Reductions over the coordinates, column by column
# ---------------------------------------------------------------------------

def reduction_domains(n):
    """Every domain type in dimension n, with unit and mixed weights."""
    ramp = tuple(1 + j % 3 for j in range(n))
    mixed_p = tuple((0.5, 1.0, 2.0, 0.75)[j % 4] for j in range(n))
    doms = [Polydisc(n), Polydisc(n, ramp), Ball(n), Ball(n, ramp),
            Ellipsoid((0.8,) * n), Ellipsoid(mixed_p), Ellipsoid(mixed_p, ramp)]
    if n == 1:
        doms.append(UnitDisc())
    if n == 3:
        doms += [squared_sum_gauge(), semilinear_gauge()]
    return doms


def reduction_points(rng, n):
    """C-ordered rows: moduli over 1e-200..1e200, zero coordinates, zero rows."""
    Z = (rng.normal(size=(600, n)) + 1j * rng.normal(size=(600, n))) * 10.0 ** rng.integers(-3, 4, size=(600, 1))
    Z[:40] *= 10.0 ** rng.choice([-200, 200], size=(40, 1))
    Z[40:80] *= rng.integers(0, 2, size=(40, n))
    Z[80:90] = 0.0
    return Z


@pytest.mark.parametrize("n", range(1, 11))
def test_column_reductions_match_axis_reductions(n, monkeypatch):
    # Reference: the same formulas with numpy's axis reductions.  numpy sums
    # a C-ordered row of 8 or more entries pairwise, so from n = 8 on the
    # coordinate-order sum may differ in the last bits.
    rng = np.random.default_rng(2600 + n)
    Z = reduction_points(rng, n)
    for dom in reduction_domains(n):
        with np.errstate(over="ignore", invalid="ignore"):  # defects of the 1e200 rows
            got = (dom.defect_many(Z), minkowski_many(dom, Z))
            with monkeypatch.context() as mp:
                mp.setattr(domains, "_row_max", lambda A: A.max(axis=1))
                mp.setattr(domains, "_row_sum", lambda A: A.sum(axis=1))
                want = (dom.defect_many(Z), minkowski_many(dom, Z))
            for g, w in zip(got, want):
                if n <= 7:
                    assert np.array_equal(g, w), dom
                else:
                    ulps = 4 * np.spacing(np.maximum(np.abs(g), np.abs(w)))
                    assert np.all((g == w) | (np.abs(g - w) <= ulps)), dom


LAYOUT_DOMAINS = {"ellipsoid12": lambda: Ellipsoid((1, 2)), "ellipsoid3": lambda: Ellipsoid((0.75, 1.5, 2.5)),
                  "ellipsoid_weighted": lambda: Ellipsoid((0.5, 1.0), weights=(1, 2)),
                  "ball": lambda: Ball(3), "polydisc": lambda: Polydisc(2), "unit_disc": UnitDisc,
                  "squared_sum": squared_sum_gauge, "semilinear": semilinear_gauge}


@pytest.mark.parametrize("name", sorted(LAYOUT_DOMAINS))
def test_defect_bits_ignore_layout_and_length(name):
    # the falsifier's screen takes a move's defect at a few gathered rows for
    # the bits of its full scoring on a column-major stack.  A broadcast
    # exponent row once gave the C- and F-ordered copies below different bits
    # in 2,267 of the 100,000 rows of Ellipsoid((1, 2))
    dom = LAYOUT_DOMAINS[name]()
    rng = np.random.default_rng(2611)
    Z = 0.5 * (rng.normal(size=(100_000, dom.dim)) + 1j * rng.normal(size=(100_000, dom.dim)))
    want = dom.defect_many(np.ascontiguousarray(Z))
    F = np.asfortranarray(Z)
    assert np.array_equal(dom.defect_many(F), want)
    assert np.array_equal(dom.defect_many(Z[::3]), want[::3])
    chunks = [dom.defect_many(Z[i:i + 512]) for i in range(0, len(Z), 512)]
    assert np.array_equal(np.concatenate(chunks), want)
    for size in (1, 2, 3, 7, 16, 64, 4096):
        rows = rng.choice(len(Z), size=size, replace=False)
        assert np.array_equal(dom.defect_many(F[rows]), want[rows])
        assert np.array_equal(dom.defect_many(Z[rows]), want[rows])


@pytest.mark.parametrize("name", sorted(LAYOUT_DOMAINS))
def test_defect_of_moduli_has_the_bits_of_the_points(name):
    # the falsifier scores moves on planes of moduli, not on complex points
    dom = LAYOUT_DOMAINS[name]()
    rng = np.random.default_rng(2612)
    Z = 0.5 * (rng.normal(size=(20_000, dom.dim)) + 1j * rng.normal(size=(20_000, dom.dim)))
    Z[:50] = 0.0
    for points in (Z, np.asfortranarray(Z), Z[::3], Z[1::7], Z[rng.choice(len(Z), size=777)]):
        assert np.array_equal(dom.defect_many(np.abs(points)), dom.defect_many(points))
    F = np.asfortranarray(np.abs(Z))  # a column-major stack of moduli, as the full scoring builds
    for rows in (slice(None, None, 5), rng.choice(len(Z), size=64, replace=False)):
        assert np.array_equal(dom.defect_many(F[rows]), dom.defect_many(Z[rows]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_ellipsoid_rejects_nonpositive_exponents():
    for p in ((), (0.5, 0.0), (-1.0,)):
        with pytest.raises(ValueError, match="exponents must be positive"):
            Ellipsoid(p)


def test_domain_json_round_trip():
    rng = np.random.default_rng(206)
    domains = [
        UnitDisc(),
        Ball(3),
        Polydisc(2),
        Ellipsoid((0.5, 1.25), weights=(1, 2)),
        squared_sum_gauge(),
        semilinear_gauge(),
    ]
    for dom in domains:
        back = domain_from_json(dom.to_json())
        z = random_point(rng, dom.dim, scale=0.5)
        assert back.dim == dom.dim
        assert minkowski_value(back, z) == pytest.approx(minkowski_value(dom, z), abs=1e-12)


# ---------------------------------------------------------------------------
# Exponent class membership
# ---------------------------------------------------------------------------

def sn_oracle(p):
    """Brute force over the bounded union representation of the class.

    A vector lies in the class exactly when its distinct values can be
    realized as {b_1, ..., b_{k-1}, b_k / 2} with 1 <= b_i <= b_k.  At most
    one distinct value can play the halved role, so enumerating that choice
    (including "none") over the distinct values is an exhaustive search.
    Exact rational arithmetic throughout.
    """
    vals = set(Fraction(x) for x in p)
    for halved in [None, *sorted(vals)]:
        rest = vals - ({halved} if halved is not None else set())
        if any(v < 1 for v in rest):
            continue
        if halved is None:
            return True
        bk = 2 * halved
        if bk >= 1 and all(bk >= v for v in rest):
            return True
    return False


def sn_witness_valid(p, witness) -> bool:
    """Check that a witness tuple realizes membership exactly."""
    if len(witness) == 0:
        return False
    bk = witness[-1]
    head = witness[:-1]
    if any(not (1.0 <= b <= bk) for b in head):
        return False
    if bk < 1.0:
        return False
    allowed_low = bk / 2.0
    for v in p:
        if any(abs(v - b) <= 1e-12 for b in head):
            continue
        if abs(v - allowed_low) <= 1e-12:
            continue
        return False
    return True


def test_sn_spec_examples():
    member, witness = sn_membership((0.5, 0.5))
    assert member and sn_witness_valid((0.5, 0.5), witness)
    member, _ = sn_membership((1.0, 2.0))
    assert member
    member, reason = sn_membership((0.5, 1.5))
    assert not member
    assert reason == "2*min < max"


def test_sn_matches_oracle_quarter_grid():
    grid = [Fraction(j, 4) for j in range(2, 13)]
    for n in (2, 3):
        for p in product(grid, repeat=n):
            got, detail = sn_membership(tuple(float(v) for v in p))
            want = sn_oracle(p)
            assert got == want, f"disagreement at {p}"
            if got:
                assert sn_witness_valid(tuple(float(v) for v in p), detail)


def test_sn_rejects_empty():
    with pytest.raises(ValueError):
        sn_membership(())
