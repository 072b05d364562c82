"""Left-inverse certificates, slack inequalities and radial properness profiles."""

import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodisc.certify import (CERTIFIED, INCONCLUSIVE, REFUTED, ball3_inputs, ball_monomial_inputs,
                             monomial_curve_inputs, monomial_curve_left_inverse,
                             properness_profile, verify_left_inverse)
from geodisc import certify, cli
from geodisc.cplane import BlaschkeProduct
from geodisc.domains import Ball, Ellipsoid, minkowski_many, minkowski_value
from geodisc.errors import PreconditionError
from geodisc.maps import (FAMILIES, power_pair_slack, semilinear_slack,
                          squared_sum_slack)
from geodisc.mapspec import MapSpec, MultiPoly, Polynomial, monomial_map

from test_cplane import unit_circle
from test_domains import GRID_DOMAINS


# ---------------------------------------------------------------------------
# Monomial left inverses
# ---------------------------------------------------------------------------

def test_monomial_curve_left_inverse_composes_to_power():
    p = (1.0, 1.0)
    powers = (1, 2)
    a = (0.6, 0.7)
    F = monomial_curve_left_inverse(p, a, powers)
    for lam in (0.4, -0.3 + 0.2j):
        z = np.array([a[0] * lam, a[1] * lam ** 2])
        assert complex(F(z[None, :])[0]) == pytest.approx(lam ** 2, abs=1e-12)


def test_monomial_curve_constraint_guard():
    with pytest.raises(PreconditionError):
        monomial_curve_inputs((0.5, 0.5), (0.6, 0.7), (1, 3))


@st.composite
def monomial_curves(draw):
    n = draw(st.integers(1, 3))
    p = [draw(st.floats(0.5, 3.0)) for _ in range(n)]
    a = [10.0 ** draw(st.floats(-6.0, 0.0)) for _ in range(n)]
    powers = [draw(st.integers(1, 4)) for _ in range(n)]
    return p, a, powers


@settings(max_examples=300, deadline=None)
@given(monomial_curves())
def test_monomial_curve_left_inverse_composes_to_lcm_power(curve):
    # F(a_j lam^{m_j}) = lam^L holds whether or not 2 p_j m_j >= L: the
    # constraint decides the sup of |F|, not the composition
    p, a, powers = curve
    L = math.lcm(*powers)
    F = monomial_curve_left_inverse(p, a, powers)
    lams = np.array([0.9, -0.5 + 0.3j, 0.7j, np.exp(2.0j), 1e-3 - 2e-3j])
    Z = np.stack([aj * lams ** mj for aj, mj in zip(a, powers)], axis=-1)
    assert np.max(np.abs(F(Z) - lams ** L)) <= 1e-12


@pytest.mark.parametrize("p,a,powers", [
    ((1, 1), (1e-200, 1e-200), (1, 1)),
    ((1, 1), (1e-300, 1e-300), (1, 1)),
    ((1, 2), (1e-200, 1e-200), (1, 1)),
    ((0.7, 1.3, 2.1), (0.3, 1e-150, 0.9), (1, 2, 3)),
    # c_1 = 6.80e307 is representable, the 2**1026 it was once scaled by is not
    ((1, 1), (7e-155, 7e-155), (1, 2)),
])
def test_monomial_curve_left_inverse_of_a_tiny_curve(p, a, powers):
    # every coefficient is representable, though sum_k p_k m_k a_k**(2 p_k)
    # and a_j**(L / m_j) are not; compared with 40-digit arithmetic
    L = math.lcm(*powers)
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in a]
        norm = mpmath.fsum(pk * mk * xk ** (2 * mpmath.mpf(pk)) for pk, mk, xk in zip(p, powers, x))
        want = [pj * mj * xj ** (2 * mpmath.mpf(pj) - mpmath.mpf(L) / mj) / norm
                for pj, mj, xj in zip(p, powers, x)]
    got = [c for c, _ in monomial_curve_left_inverse(p, a, powers).terms]
    for c, w in zip(got, want):
        assert c.imag == 0.0 and abs(c.real - float(w)) <= 1e-14 * float(w)


# the two closed forms the shared formula replaced, kept as references:
# F = (z1^2 + 2 sqrt(1-a^2) z2) / (2 - a^2) for the ball3 curve
# (a lam, sqrt(1-a^2) lam^2), and F = c z1^m + d z2 with
# c = 1/((a^2 + m b^2) a^(m-2)), d = m b/(a^2 + m b^2) for the
# ball_monomial curve (a lam, b lam^m), a = sqrt(1-b^2)
def ball3_reference(a):
    den = 2.0 - a * a
    return {(2, 0): 1.0 / den, (0, 1): 2.0 * math.sqrt(1.0 - a * a) / den}


def ball_monomial_reference(m, b):
    a = math.sqrt(1.0 - b * b)
    den = a * a + m * b * b
    return {(m, 0): 1.0 / (den * a ** (m - 2)), (0, 1): m * b / den}


def ball_monomial_coefficients(m, b):
    """(a, c, d): a = sqrt(1-b^2) and the coefficients of the shared F = c z1^m + d z2."""
    a = math.sqrt(1.0 - b * b)
    (c, _), (d, _) = monomial_curve_left_inverse((1, 1), (a, b), (1, m)).terms
    return a, c.real, d.real


def assert_terms_match(F, reference):
    got = {e: c for c, e in F.terms}
    assert set(got) == set(reference)
    for e, c in reference.items():
        assert got[e].imag == 0.0
        assert abs(got[e].real - c) <= 1e-15 * abs(c)


def test_shared_left_inverse_matches_the_ball3_closed_form():
    for a in np.linspace(0.0, 0.999, 200):
        assert_terms_match(ball3_inputs(float(a))[1], ball3_reference(float(a)))


def test_shared_left_inverse_matches_the_ball_monomial_closed_form():
    for m in range(3, 10):
        for b in np.linspace(1e-3, 1.0 / (m - 1), 40):
            assert_terms_match(ball_monomial_inputs(m, float(b))[1],
                               ball_monomial_reference(m, float(b)))


def test_monomial_curve_inputs_match_ball3():
    # (0.6 lam, 0.8 lam^2) is the three-point ball normal form at a = 0.6;
    # the CLI test certifies both forms
    f, F, B, dom, m = monomial_curve_inputs((1.0, 1.0), (0.6, 0.8), (1, 2))
    g, G, B3, _, m3 = ball3_inputs(0.6)
    assert (F.to_json(), B.to_json(), m) == (G.to_json(), B3.to_json(), m3)
    assert dom.to_json()["p"] == [1.0, 1.0]
    circle = unit_circle(64)
    assert np.max(np.abs(f.eval_many(circle) - g.eval_many(circle))) <= 1e-15
    assert (f.meta["extremal_m"], f.meta["geodesic"]) == (3, True)


def test_monomial_curve_inputs_refuse_lcm_above_64():
    # lcm(5, 13) = 65: refused before the left inverse or B = lam^65 is built
    with pytest.raises(ValueError, match="lcm of the powers is 65"):
        monomial_curve_inputs((1.0, 1.0), (0.6, 0.8), (5, 13))
    assert monomial_curve_inputs((40.0, 40.0), (0.6, 0.8), (64, 32))[4] == 65


# ---------------------------------------------------------------------------
# Ball certificates
# ---------------------------------------------------------------------------

def test_ball_monomial_coefficients_frozen():
    a, c, d = ball_monomial_coefficients(3, 0.5)
    assert a == pytest.approx(np.sqrt(0.75), abs=1e-15)
    assert d == pytest.approx(1.0, abs=1e-15)
    assert c == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-15)


def test_ball_monomial_identity_random():
    rng = np.random.default_rng(502)
    for _ in range(50):
        m = int(rng.integers(3, 9))
        b = rng.uniform(1e-3, 1.0 / (m - 1))
        a, c, d = ball_monomial_coefficients(m, b)
        assert abs(c * a ** m + d * b - 1.0) < 1e-14
        assert d <= 1.0 + 1e-12
    # sharpness: past the threshold the hyperplane coefficient exceeds one
    for m in (3, 4, 6):
        b = 1.0 / (m - 1) + 0.05
        _, _, d = ball_monomial_coefficients(m, b)
        assert d > 1.0


def test_ball_monomial_certificate_certifies():
    cert = verify_left_inverse(*ball_monomial_inputs(3, 0.5))
    assert cert.verdict == CERTIFIED
    assert cert.residual_composition <= 1e-9
    assert cert.m == 4
    assert cert.sampled_bound is True


def test_ball3_certificate_certifies():
    cert = verify_left_inverse(*ball3_inputs(0.3))
    assert cert.verdict == CERTIFIED
    assert cert.residual_composition <= 1e-9
    F = ball3_inputs(0.3)[1]
    nf_terms = {tuple(mono): coeff for coeff, mono in
                ((complex(*c), tuple(e)) for c, e in F.to_json()["terms"])}
    aa = 0.3 * 0.3
    assert nf_terms[(2, 0)] == pytest.approx(1.0 / (2 - aa), abs=1e-14)
    assert nf_terms[(0, 1)] == pytest.approx(2 * np.sqrt(1 - aa) / (2 - aa), abs=1e-14)


# Criterion 5's 23 instances: (instance, verdict, max of U(r) = sum |c_a| r^a
# on the moduli boundary).  Every built-in F has nonnegative coefficients,
# so this is the sup of |F| on the boundary: 1 up to rounding.
CRITERION_5_PINS = [
    (("power-pair-geodesic", 3, 0.25), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 3, 0.5), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 3, 0.75), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 4, 0.25), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 4, 0.5), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 4, 0.75), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 5, 0.25), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 5, 0.5), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 5, 0.75), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 6, 0.25), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 6, 0.5), "certified", 1.0000000000000002),
    (("power-pair-geodesic", 6, 0.75), "certified", 1.0000000000000002),
    (("squared-sum-triple", 4, 0.3), "certified", 1.0000000000000002),
    (("squared-sum-triple", 5, 0.3), "certified", 1.0000000000000002),
    (("semilinear-triple", 5, 0.3), "certified", 1.0000000000000002),
    (("semilinear-triple", 6, 0.3), "certified", 1.0000000000000002),
    (("ball3", 0.0), "certified", 1.0000000000000002),
    (("ball3", 0.3), "certified", 1.0000000000000002),
    (("ball3", 0.6), "certified", 1.0),
    (("ball3", 0.9), "certified", 1.0000000000000004),
    (("ball-monomial", 3), "certified", 1.0),
    (("ball-monomial", 4), "certified", 1.0),
    (("ball-monomial", 5), "certified", 1.0),
]


def criterion_5_certificate(instance):
    name, *args = instance
    if name == "ball3":
        inputs = ball3_inputs(args[0])
    elif name == "ball-monomial":
        inputs = ball_monomial_inputs(args[0], 1.0 / (args[0] - 1))
    else:
        inputs = FAMILIES[name].certificate_inputs(*args)
    return verify_left_inverse(*inputs)


@pytest.mark.parametrize("instance,verdict,sup", CRITERION_5_PINS,
                         ids=[" ".join(map(str, pin[0])) for pin in CRITERION_5_PINS])
def test_criterion_5_certificates_pinned(instance, verdict, sup):
    cert = criterion_5_certificate(instance)
    assert cert.verdict == verdict
    assert cert.boundary_sup_estimate == pytest.approx(sup, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# General verification
# ---------------------------------------------------------------------------

def test_verify_left_inverse_refutes_oversized_functional():
    f, F, B, dom, m = FAMILIES["power-pair-geodesic"].certificate_inputs(3, 0.5)
    bad = MultiPoly([(3.0, (1, 0)), (3.0, (0, 1))])
    cert = verify_left_inverse(f, bad, B, dom, m)
    assert cert.verdict == REFUTED


def test_verify_left_inverse_refuses_map_leaving_domain():
    # (2 lam, 0) leaves the ball, yet z1 / 2 composes to lam with a sup of
    # 1/2: without the image check this was certified
    f = monomial_map([(2.0, 1), (0.0, 0)])
    F = MultiPoly([(0.5, (1, 0))])
    with pytest.raises(PreconditionError, match="leaves the domain: gauge 2.0"):
        verify_left_inverse(f, F, BlaschkeProduct.monomial(1), Ball(2), 2)


def test_verify_left_inverse_degree_gate():
    # perfect composition but the claimed extremality order is too small:
    # a degree-2 product is not admissible for m = 2
    f, F, B, dom, _ = FAMILIES["power-pair-geodesic"].certificate_inputs(3, 0.5)
    cert = verify_left_inverse(f, F, B, dom, 2)
    assert cert.verdict != CERTIFIED
    # constant product is never an admissible witness either
    cert = verify_left_inverse(f, F, BlaschkeProduct(1.0, ()), dom, 3)
    assert cert.verdict != CERTIFIED


# ---------------------------------------------------------------------------
# The bound on the moduli boundary
# ---------------------------------------------------------------------------

def squared_sum_perturbed(eps, a=0.3):
    # squared-sum-triple's F = 4 z1 z2 + z3 plus eps (z1^3 - a^2 z2), which
    # vanishes on f = (a lam, a lam^3, (1 - 4 a^2) lam^4)
    f, F, B, dom, m = FAMILIES["squared-sum-triple"].certificate_inputs(5, a)
    return f, MultiPoly(F.terms + ((eps, (3, 0, 0)), (-eps * a * a, (0, 1, 0)))), B, dom, m


def test_moduli_bound_refutes_what_random_samples_certified():
    # 100,000 random boundary samples saw a sup of 0.99999778 here and
    # certified; the true sup is past the refute threshold
    f, G, B, dom, m = squared_sum_perturbed(5e-5)
    cert = verify_left_inverse(f, G, B, dom, m)
    assert cert.verdict == REFUTED
    assert cert.residual_composition <= 1e-12
    z = np.asarray(cert.boundary_sup_point)
    assert abs(minkowski_value(dom, z) - 1.0) <= 1e-12
    assert abs(G(z)) > 1.0 + 1e-6
    assert cert.boundary_sup_estimate >= abs(G(z))


def test_moduli_bound_does_not_certify_a_sup_just_past_one():
    # the true sup is at least 1 + 2.4e-7: inside the refute band, past the certify band
    cert = verify_left_inverse(*squared_sum_perturbed(3e-6))
    assert cert.verdict != CERTIFIED
    assert cert.boundary_sup_estimate > 1.0 + 2e-7


def test_phase_search_finds_the_witness_of_a_signed_functional():
    # F = z1 - z2 composes with (lam/2, -lam/2) to lam, but vanishes at zero
    # phases on the diagonal; its sup on the sphere is sqrt(2)
    f = monomial_map([(0.5, 1), (-0.5, 1)])
    F = MultiPoly([(1.0, (1, 0)), (-1.0, (0, 1))])
    cert = verify_left_inverse(f, F, BlaschkeProduct.monomial(1), Ball(2), 2)
    assert cert.verdict == REFUTED
    assert cert.residual_composition == 0.0
    z = np.asarray(cert.boundary_sup_point)
    assert abs(minkowski_value(Ball(2), z) - 1.0) <= 1e-12
    assert abs(F(z)) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert cert.boundary_sup_estimate == pytest.approx(np.sqrt(2), abs=1e-12)


def random_boundary_points(dom, count=100_000, seed=0):
    # the oracle: Gaussian complex directions scaled to gauge 1
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((count, dom.dim)) + 1j * rng.standard_normal((count, dom.dim))
    return Z / minkowski_many(dom, Z)[:, None] ** np.asarray(dom.weights, dtype=float)


@pytest.mark.parametrize("instance", [pin[0] for pin in CRITERION_5_PINS],
                         ids=[" ".join(map(str, pin[0])) for pin in CRITERION_5_PINS])
def test_moduli_bound_dominates_random_samples_on_criterion_5(instance):
    cert = criterion_5_certificate(instance)
    Z = random_boundary_points(cert.domain)
    assert cert.boundary_sup_estimate >= np.max(np.abs(cert.left_inverse(Z))) - 1e-12


@pytest.mark.parametrize("name", list(GRID_DOMAINS))
def test_moduli_bound_dominates_random_samples_on_nonnegative_functionals(name):
    dom = GRID_DOMAINS[name]()
    rng = np.random.default_rng(sorted(GRID_DOMAINS).index(name))
    Z = random_boundary_points(dom)
    f = monomial_map([(0.0, 1)] * dom.dim)  # any map inside the domain: only the sup is read
    for _ in range(3):
        F = MultiPoly([(rng.uniform(0.1, 1.0), tuple(rng.integers(0, 4, dom.dim)))
                       for _ in range(4)] + [(0.5, (1,) * dom.dim)])
        cert = verify_left_inverse(f, F, BlaschkeProduct.monomial(1), dom, 2)
        assert cert.boundary_sup_estimate >= np.max(np.abs(F(Z))) - 1e-12
        # the reported point is on the boundary, and with nonnegative
        # coefficients |F| there is the bound itself
        z = np.asarray(cert.boundary_sup_point)
        assert abs(minkowski_value(dom, z) - 1.0) <= 1e-12
        assert abs(F(z)) == pytest.approx(cert.boundary_sup_estimate, rel=1e-14)


# ---------------------------------------------------------------------------
# The tangent-plane proof
# ---------------------------------------------------------------------------

SAMPLED_FAMILIES = ("squared-sum-triple", "ball-monomial")  # out of the proof's scope


@pytest.mark.parametrize("instance", [pin[0] for pin in CRITERION_5_PINS],
                         ids=[" ".join(map(str, pin[0])) for pin in CRITERION_5_PINS])
def test_tangent_bound_proves_the_concave_certificates(instance):
    # squared-sum-triple's domain is no ellipsoid, and ball-monomial's z1^m has
    # sum b = m/2 > 1: those five stay sampled, the other 18 are proved
    cert = criterion_5_certificate(instance)
    assert cert.verdict == CERTIFIED
    assert cert.sampled_bound is (instance[0] in SAMPLED_FAMILIES)
    assert cert.boundary_sup_estimate <= 1.0 + 1e-9
    assert cert.refutation_witness is None
    if not cert.sampled_bound:
        # the anchor is a point of the curve, on the boundary
        z = np.asarray(cert.boundary_sup_point)
        assert abs(minkowski_value(cert.domain, z) - 1.0) <= 1e-12
        image = cert.map.eval_many(unit_circle(certify.VERIFICATION_GRID))
        assert (image == z).all(axis=1).any()


def mp_tangent_bound(F, p, s0):
    """U(s0) - g.s0 + max_j g_j at 50 digits, U = sum |c| s^(a/(2p)), g = grad U(s0)."""
    with mpmath.workdps(50):
        s0 = [mpmath.mpf(float(v)) for v in s0]
        value, g = mpmath.mpf(0), [mpmath.mpf(0)] * len(p)
        for c, e in F.terms:
            b = [mpmath.mpf(int(ej)) / (2 * mpmath.mpf(pj)) for ej, pj in zip(e, p)]
            value += abs(c) * mpmath.fprod(sj ** bj for sj, bj in zip(s0, b))
            for j, bj in enumerate(b):
                if bj > 0:
                    g[j] += abs(c) * bj * mpmath.fprod(
                        sk ** (bk - (k == j)) for k, (sk, bk) in enumerate(zip(s0, b)))
        return value - mpmath.fsum(gj * sj for gj, sj in zip(g, s0)) + max(g)


@pytest.mark.parametrize("instance", [pin[0] for pin in CRITERION_5_PINS
                                      if pin[0][0] not in SAMPLED_FAMILIES],
                         ids=[" ".join(map(str, pin[0])) for pin in CRITERION_5_PINS
                              if pin[0][0] not in SAMPLED_FAMILIES])
def test_tangent_bound_covers_its_value_at_50_digits(instance):
    # the float bound, rounding term included, is at least the exact
    # tangent-plane value at the reported anchor, and that value is at most 1 + 1e-9
    cert = criterion_5_certificate(instance)
    p = cert.domain.p
    s0 = np.abs(np.asarray(cert.boundary_sup_point)) ** (2.0 * np.asarray(p))
    exact = mp_tangent_bound(cert.left_inverse, p, s0)
    assert exact <= cert.boundary_sup_estimate <= 1.0 + 1e-9
    assert cert.boundary_sup_estimate - exact <= 1e-13


@st.composite
def concave_functionals(draw):
    """(p, terms): an ellipsoid's exponents and a left inverse whose U is
    concave in the power coordinates, every a / (2p) summing to at most 1."""
    n = draw(st.integers(1, 4))
    p = tuple(draw(st.floats(0.25, 4.0)) for _ in range(n))
    exps = [tuple(draw(st.integers(0, math.ceil(2 * pj))) for pj in p)
            for _ in range(draw(st.integers(1, 5)))]
    exps = [e for e in exps if sum(ej / (2 * pj) for ej, pj in zip(e, p)) <= 1.0]
    assume(exps)
    coeffs = [complex(draw(st.floats(0.01, 2.0)), draw(st.floats(-1.0, 1.0))) for _ in exps]
    return p, list(zip(coeffs, exps))


@settings(max_examples=25, deadline=None)
@given(concave_functionals())
def test_tangent_bound_is_sound_on_random_concave_functionals(functional):
    # anchored at the best of 1,024 random boundary moduli, as certify anchors
    # at the best image point, the bound is never below the sampled grid's
    # sup nor below |F| at 100,000 random boundary points; 1e-12 absorbs their
    # own rounding (the points sit on the boundary to the gauge's accuracy)
    p, terms = functional
    dom, F = Ellipsoid(p), MultiPoly(terms)
    U = MultiPoly([(abs(c), e) for c, e in F.terms])
    Z = random_boundary_points(dom)
    bound, _ = certify._tangent_bound(U, dom.p, np.abs(Z[:1024]))
    f = monomial_map([(0.0, 1)] * dom.dim)  # composes to 0: the sampled path runs
    sampled = verify_left_inverse(f, F, BlaschkeProduct.monomial(1), dom, 2)
    assert sampled.sampled_bound is True
    if np.isfinite(bound):
        assert bound >= sampled.boundary_sup_estimate - 1e-12
        assert bound >= np.max(np.abs(F(Z))) - 1e-12


def test_tangent_bound_declines_non_concave_and_infinite_slopes():
    # sum b = 2 > 1 (no proof attempted); s**(1/2) at a vertex s0 = 0 has an
    # infinite slope, so the bound is not finite and certify falls back
    U = MultiPoly([(1.0, (2, 2))])
    assert certify._tangent_bound(U, (1.0, 1.0), np.array([[0.6, 0.8]])) == (np.inf, 0)
    bound, _ = certify._tangent_bound(MultiPoly([(1.0, (1, 0))]), (1.0, 1.0),
                                      np.array([[0.0, 1.0]]))
    assert not np.isfinite(bound)


def test_tangent_bound_falls_back_to_the_sampled_path_off_the_max():
    # F = z1 + z2 has sup sqrt(2) on the sphere: the tangent plane at the
    # curve's s0 = (1/4, 1/4) gives 5/4 > 1, and the sampled path refutes
    cert = verify_left_inverse(*diagonal_functional(1.0))
    assert cert.verdict == REFUTED
    assert cert.sampled_bound is True
    assert cert.boundary_sup_estimate == pytest.approx(np.sqrt(2), abs=1e-12)


def test_squared_sum_regressions_stay_on_the_sampled_path():
    refuted = verify_left_inverse(*squared_sum_perturbed(5e-5))
    short = verify_left_inverse(*squared_sum_perturbed(3e-6))
    assert (refuted.verdict, short.verdict) == (REFUTED, INCONCLUSIVE)
    assert refuted.sampled_bound and short.sampled_bound


def oversized_functional():
    f, _, B, dom, m = FAMILIES["power-pair-geodesic"].certificate_inputs(3, 0.5)
    return f, MultiPoly([(3.0, (1, 0)), (3.0, (0, 1))]), B, dom, m


def diagonal_functional(sign):
    # F = z1 + sign z2 composes with (lam/2, sign lam/2) to lam
    return (monomial_map([(0.5, 1), (sign * 0.5, 1)]), MultiPoly([(1.0, (1, 0)), (sign, (0, 1))]),
            BlaschkeProduct.monomial(1), Ball(2), 2)


# the refuted cases above, each with |F| > 1 + 1e-6 at a boundary point
REFUTED_BY_A_POINT = {
    "oversized": oversized_functional,
    "squared-sum 5e-5": lambda: squared_sum_perturbed(5e-5),
    "signed": lambda: diagonal_functional(-1.0),
    "inside the ball": lambda: diagonal_functional(1.0),
}


@pytest.mark.parametrize("name", list(REFUTED_BY_A_POINT))
def test_refutation_reports_its_witness(name):
    f, F, B, dom, m = REFUTED_BY_A_POINT[name]()
    cert = verify_left_inverse(f, F, B, dom, m)
    assert cert.verdict == REFUTED
    z = np.asarray(cert.refutation_witness)
    assert abs(F(z)) > 1.0 + 1e-6
    assert abs(minkowski_value(dom, z) - 1.0) <= 1e-12
    assert cert.to_json()["refutation_witness"] == [[v.real, v.imag] for v in z]


def test_refutation_on_the_residual_alone_reports_no_witness():
    # B = lam^2 does not match F(f) = lam^3, yet |F| <= 1 on the boundary
    f, F, _, dom, m = FAMILIES["power-pair-geodesic"].certificate_inputs(4, 0.5)
    cert = verify_left_inverse(f, F, BlaschkeProduct.monomial(2), dom, m)
    assert cert.verdict == REFUTED
    assert cert.refutation_witness is None
    assert "refutation_witness" not in cert.to_json()


def test_family_inputs_refuse_non_geodesic_families():
    with pytest.raises(PreconditionError):
        FAMILIES["power-pair"].certificate_inputs(4, 0.5)
    with pytest.raises(PreconditionError):
        FAMILIES["ball-power-pair"].certificate_inputs(4, 0.5)


def test_family_registry_matches_schemas_and_builders():
    # the schemas list the family names by hand; they must follow the registry
    enums = [cli._load_schema("certify")["oneOf"][0]["properties"]["family"]["enum"],
             cli._load_schema("family")["properties"]["name"]["enum"],
             cli._load_schema("profile")["properties"]["family"]["properties"]["name"]["enum"]]
    for enum in enums:
        assert enum == list(FAMILIES)
    for name, fam in FAMILIES.items():
        f = fam.build(5, 0.3)
        assert f.meta["family"] == name
        assert f.meta["domain"] == fam.domain.to_json()


def test_certify_forms_match_schema_branches():
    # the schema's oneOf branches and the CLI's table list the forms in step
    branches = cli._load_schema("certify")["oneOf"]
    assert [branch["required"][0] for branch in branches] == list(cli.CERTIFY_FORMS)


def test_star_import_binds_no_module():
    namespace = {}
    exec("from geodisc import *", namespace)
    assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert "verify_left_inverse" in namespace and "moebius" in namespace


# ---------------------------------------------------------------------------
# Slack inequalities and counting
# ---------------------------------------------------------------------------

def test_slack_frozen_values():
    assert power_pair_slack(0.5) == pytest.approx(-0.25, abs=1e-15)
    assert squared_sum_slack(0.25) == pytest.approx(-4.0 / 45.0, abs=1e-12)
    assert semilinear_slack(1.0, 1.0, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_slack_signs_on_grids():
    for a in np.linspace(0.01, 0.99, 99):
        assert power_pair_slack(float(a)) < 0
    for a in np.linspace(0.005, 0.495, 99):
        assert squared_sum_slack(float(a)) < 0
    rng = np.random.default_rng(503)
    for _ in range(99):
        al, be = rng.uniform(0, 1 - 1e-6, size=2)
        c = rng.uniform(0.05, 0.95)
        assert semilinear_slack(float(al), float(be), float(c)) < 0


# ---------------------------------------------------------------------------
# Properness profiles
# ---------------------------------------------------------------------------

def test_profile_family_map_is_almost_proper():
    fam = FAMILIES["power-pair"]
    prof = properness_profile(fam.build(3, 0.5), fam.domain)
    assert prof.almost_proper
    assert prof.gamma_hat > 0
    assert prof.max_final_defect <= 1e-2
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "zeta_re,zeta_im,r,defect"
    assert len(csv.splitlines()) == 1 + len(prof.rows)


def test_profile_flags_interior_constant():
    const = MapSpec([Polynomial([0.2]), Polynomial([0.1])])
    prof = properness_profile(const, Ellipsoid((0.5, 0.5)))
    assert not prof.almost_proper
    assert prof.max_final_defect > 1e-2
