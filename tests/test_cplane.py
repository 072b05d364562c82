"""Oracle and property tests for Moebius maps, Blaschke products and the Schur recursion."""

import numpy as np
import pytest

from geodisc.cplane import (BlaschkeProduct, blaschke_degree_of_data,
                            lagrange_polynomial, moebius)
from geodisc.errors import InfeasibleDataError
from geodisc.mapspec import Polynomial


def unit_circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def random_blaschke(rng, degree, rmax=0.75):
    zeros = tuple(rng.uniform(0.05, rmax, size=degree)
                  * np.exp(2j * np.pi * rng.uniform(size=degree)))
    return BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), zeros)


def random_nodes(rng, m, rmax=0.8, gap=0.1):
    # rejection-sample until the nodes are pairwise well separated
    while True:
        nodes = rng.uniform(0.0, rmax, size=m) * np.exp(2j * np.pi * rng.uniform(size=m))
        gaps = [abs(nodes[i] - nodes[j]) for i in range(m) for j in range(i + 1, m)]
        if not gaps or min(gaps) > gap:
            return tuple(nodes)


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------

def test_moebius_frozen_values():
    assert moebius(0.5, 0.0) == pytest.approx(-0.5)
    assert moebius(0.5, 0.5) == 0.0
    # alpha = 0 is the identity
    assert moebius(0.0, 0.3 - 0.2j) == pytest.approx(0.3 - 0.2j)


def test_moebius_is_disc_automorphism():
    rng = np.random.default_rng(101)
    for _ in range(200):
        alpha = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        lam = rng.uniform(0, 0.999) * np.exp(2j * np.pi * rng.uniform())
        w = moebius(alpha, lam)
        assert abs(w) < 1.0
        # m_{-alpha} inverts m_alpha
        back = moebius(-alpha, w)
        assert abs(back - lam) < 1e-12


def test_moebius_preserves_circle():
    rng = np.random.default_rng(102)
    zeta = unit_circle(64)
    for _ in range(25):
        alpha = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        vals = moebius(alpha, zeta)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

def test_blaschke_frozen_value():
    b = BlaschkeProduct(np.exp(1j * np.pi / 4), (0.3, -0.2 + 0.1j))
    got = complex(b(0.4 - 0.2j))
    assert got == pytest.approx(0.1016290419326307 - 0.11650158465447907j, abs=1e-14)


def test_blaschke_modulus_dichotomy():
    rng = np.random.default_rng(103)
    zeta = unit_circle(128)
    for _ in range(40):
        b = random_blaschke(rng, int(rng.integers(1, 6)))
        on_circle = b(zeta)
        assert np.max(np.abs(np.abs(on_circle) - 1.0)) < 1e-12
        lam = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        assert abs(b(lam)) < 1.0


def test_blaschke_vanishes_at_zeros():
    b = BlaschkeProduct(1.0, (0.5, -0.3j))
    assert abs(b(0.5)) < 1e-15
    assert abs(b(-0.3j)) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_blaschke_refuses_non_finite(bad):
    # NaN compares False both ways, so a guard written as "reject if > 1e-12"
    # would let it through
    with pytest.raises(ValueError, match="unimodular"):
        BlaschkeProduct(bad, (0.5,))
    with pytest.raises(ValueError, match="strictly inside"):
        BlaschkeProduct(1.0, (0.5, bad))


def test_lagrange_polynomial_interpolates():
    rng = np.random.default_rng(104)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        nodes = random_nodes(rng, m)
        vals = rng.normal(size=m) + 1j * rng.normal(size=m)
        poly = Polynomial(lagrange_polynomial(nodes, vals))
        got = poly(np.asarray(nodes))
        assert np.max(np.abs(got - vals)) < 1e-10
        assert len(poly.coeffs) <= m


@pytest.mark.parametrize("count", [2, 4])
def test_lagrange_polynomial_refuses_a_value_count_unlike_the_node_count(count):
    # two values at three nodes used to interpolate 0 at the third node
    with pytest.raises(ValueError, match=f"^need as many values as nodes: {count} values for 3 nodes$"):
        lagrange_polynomial([0.0, 0.4, -0.4], [0.1] * count)


@pytest.mark.parametrize("m", [24, 40, 48])
def test_lagrange_polynomial_refuses_a_result_that_misses_the_data(m):
    # lam**2 at m nodes on |lam| = 0.9: the monomial basis misses it by
    # 3.8e-12 at m = 24, 8.8e-8 at 40 and 6e-6 at 48, against 1e-9
    nodes = 0.9 * unit_circle(m)
    if m == 24:
        assert np.max(np.abs(Polynomial(lagrange_polynomial(nodes, nodes ** 2))(nodes) - nodes ** 2)) < 1e-11
        return
    with pytest.raises(ValueError, match=f"^the interpolant through {m} nodes misses the data by "):
        lagrange_polynomial(nodes, nodes ** 2)


def test_lagrange_polynomial_refuses_repeated_nodes():
    # the basis denominator used to divide by zero
    with pytest.raises(ValueError, match="^nodes must be distinct, at least 1e-8 apart$"):
        lagrange_polynomial([0.0, 0.5, 0.5], [0.1, 0.2, 0.2])


def test_complex_polynomial_strips_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0 + 0j, 2.0 + 0j)


# ---------------------------------------------------------------------------
# Minimal Blaschke degree of data
# ---------------------------------------------------------------------------

def test_degree_of_data_spec_cases():
    # degree-1 data: lam itself
    assert blaschke_degree_of_data((0.0, 0.3, 0.6), (0.0, 0.3, 0.6)) == 1
    # data of lam^2 at two nodes: no Moebius map fits, a degree-2 product does
    assert blaschke_degree_of_data((0.0, 0.5), (0.0, 0.25)) == 2
    # constant interior data at m nodes needs the full degree m
    assert blaschke_degree_of_data((0.1, 0.5, -0.3), (0.2, 0.2, 0.2)) == 3


def test_degree_of_data_recovers_sampled_degree():
    rng = np.random.default_rng(106)
    for trial in range(60):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(d + 1, 8))
        b = random_blaschke(rng, d)
        nodes = random_nodes(rng, m)
        vals = tuple(b(z) for z in nodes)
        assert blaschke_degree_of_data(nodes, vals) == d, f"trial {trial}"


def test_degree_of_data_rejects_outside_values():
    with pytest.raises(InfeasibleDataError):
        blaschke_degree_of_data((0.0, 0.5), (0.0, 1.3))


@pytest.mark.parametrize("nodes, values, match", [
    ((0.0, 0.5, 0.5), (0.0, 0.1, 0.2), "distinct"),
    ((0.0, 0.5, 0.5), (0.0, 0.1, 0.1), "distinct"),
    ((0.0, 0.5), (0.0, 0.1, 0.2), "as many"),
    ((), (), "at least one"),
    ((1.5, 0.5), (0.1, 0.2), "open disc"),
    ((1.0, 0.5), (0.1, 0.2), "open disc"),
    ((np.nan, 0.5), (0.1, 0.2), "finite"),
    ((0.0, 0.5), (0.1, np.inf), "finite"),
])
def test_degree_of_data_refuses_malformed_data(nodes, values, match):
    # `geodisc schur` hands its input straight to the recursion
    with pytest.raises(ValueError, match=match):
        blaschke_degree_of_data(nodes, values)


# ---------------------------------------------------------------------------
# Pseudo-hyperbolic distance |m_a(b)|
# ---------------------------------------------------------------------------

def test_poincare_moebius_invariance():
    # |m_a(b)| is symmetric and invariant under every disc automorphism m_alpha
    rng = np.random.default_rng(107)
    for _ in range(100):
        a, b = (rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2))
        alpha = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        d0 = abs(moebius(a, b))
        d1 = abs(moebius(moebius(alpha, a), moebius(alpha, b)))
        assert abs(d0 - d1) < 1e-11
        assert abs(abs(moebius(b, a)) - d0) < 1e-13
