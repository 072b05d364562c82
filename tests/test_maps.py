"""Normal forms and counterexample families: ellipsoid forms, ball three-point maps, factors."""

import mpmath
import numpy as np
import pytest

from geodisc.domains import Ball, Ellipsoid, minkowski_many
from geodisc.errors import (DegenerateInstanceError, InfeasibleDataError,
                            PreconditionError)
from geodisc.maps import (Ball3Params, EdigarianForm, as_mapspec,
                          ball3_equivalent_params, ball3_normal_form,
                          ball3_solve_params, ball3_verify_params,
                          ball_power_pair_map, compose_with_blaschke,
                          divide_moebius_powers, edigarian_check,
                          edigarian_complete, edigarian_normalize,
                          FAMILIES, multiply_moebius_powers,
                          power_pair_geodesic, power_pair_map,
                          semilinear_triple_map, squared_sum_triple_map)
from geodisc.cplane import BlaschkeProduct, moebius
from geodisc.mapspec import (Blaschke, IntPow, MapSpec, MultiPoly, Polynomial,
                             Product, expr_from_json)

from test_cplane import unit_circle


def random_edigarian(rng):
    n = int(rng.integers(1, 4))
    steps = int(rng.integers(1, 4))
    p = rng.uniform(0.5, 2.5, size=n)
    alpha = (rng.uniform(0.05, 0.7, size=(steps, n))
             * np.exp(2j * np.pi * rng.uniform(size=(steps, n))))
    a_raw = rng.uniform(0.3, 1.2, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    r = rng.integers(0, 2, size=(steps, n))
    return edigarian_normalize(a_raw, p, alpha, r)


# ---------------------------------------------------------------------------
# Ellipsoid normal form
# ---------------------------------------------------------------------------

def test_edigarian_single_factor_is_moebius():
    # one component, one step: completion recovers alpha0 = alpha and the map
    # collapses to the Moebius factor itself
    form = edigarian_normalize((1.0,), (1.0,), ((0.5,),), ((1,),))
    assert form.alpha0 == pytest.approx((0.5,))
    assert abs(abs(form.a[0]) - 1.0) < 1e-12
    for lam in (0.2, -0.3 + 0.1j, 0.6j):
        got = complex(as_mapspec(form)(lam)[0])
        assert got == pytest.approx(form.a[0] * moebius(0.5, lam), abs=1e-12)


def test_edigarian_completion_identity_random():
    rng = np.random.default_rng(401)
    zeta = unit_circle(256)
    for trial in range(25):
        form = random_edigarian(rng)
        assert edigarian_check(form) < 1e-12, f"trial {trial}"
        vals = as_mapspec(form)(zeta)
        gauge = np.sum(np.abs(vals) ** (2 * np.asarray(form.p)[None, :]), axis=1)
        assert np.max(np.abs(gauge - 1.0)) < 1e-10, f"trial {trial}"
        # interior values stay in the closure (flat instances with no Moebius
        # factor are gauge-constant, so equality is admissible)
        inner = as_mapspec(form)(0.5 * zeta[:32])
        gi = np.sum(np.abs(inner) ** (2 * np.asarray(form.p)[None, :]), axis=1)
        assert np.max(gi) <= 1.0 + 1e-12


def test_edigarian_complete_requires_on_scale_amplitudes():
    form = edigarian_normalize((0.7, 0.9), (1.0, 1.5), ((0.4, 0.2j),), ((1, 0),))
    doubled = tuple(2.0 * v for v in form.a)
    with pytest.raises(InfeasibleDataError):
        edigarian_complete(doubled, form.p, form.alpha, form.r)


def test_edigarian_degenerate_on_circle_root():
    with pytest.raises(DegenerateInstanceError):
        edigarian_normalize((1.0,), (1.0,), (((1 - 1e-10) + 0j,),), ((1,),))


def test_edigarian_rejects_bad_multiplicities():
    with pytest.raises(ValueError):
        EdigarianForm((1.0,), (1.0,), ((0.5,),), (0.5,), ((2,),))


@pytest.mark.parametrize("k,inner", [
    (-1, {"op": "var"}),
    (70, {"op": "intpow", "k": 70, "base": {"op": "var"}}),
    (1.5, {"op": "var"})], ids=["negative", "past_the_series", "fractional"])
def test_moebius_quotient_refuses_bad_powers(k, inner):
    # near alpha the value comes from Taylor coefficients k..63: k = -1 read
    # a wrapped-around one (lam^2 came out -7.0e14+1.4e15j at 0.01), k = 70
    # read none (lam^70 / lam^70 came out 0 at 0.01), and k = 1.5 became 1
    doc = {"op": "moebius_quotient", "alpha": [0.0, 0.0], "k": k, "inner": inner}
    with pytest.raises(ValueError, match="integer power must be a nonnegative integer below 64"):
        _one_component(doc)
    ok = {"op": "moebius_quotient", "alpha": [0.0, 0.0], "k": 3,
          "inner": {"op": "intpow", "k": 3, "base": {"op": "var"}}}
    assert _one_component(ok)(0.01) == pytest.approx([1.0], abs=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["a", "p", "alpha", "alpha0"])
def test_edigarian_form_refuses_non_finite(field, bad):
    args = {"a": (1.0,), "p": (1.0,), "alpha": ((0.5,),), "alpha0": (0.5,), "r": ((1,),)}
    EdigarianForm(**args)
    args[field] = ((bad,),) if field == "alpha" else (bad,)
    with pytest.raises(ValueError, match="finite"):
        EdigarianForm(**args)


def test_edigarian_json_round_trip():
    rng = np.random.default_rng(402)
    form = random_edigarian(rng)
    back = EdigarianForm.from_json(form.to_json())
    lam = np.array([0.1, -0.2 + 0.3j, 0.55])
    assert np.max(np.abs(as_mapspec(back)(lam) - as_mapspec(form)(lam))) < 1e-14


def normal_form_reference(form, lam):
    """Component j of EdigarianForm's docstring formula, evaluated directly."""
    out = []
    for j in range(form.n):
        acc = form.a[j]
        for k in range(form.m - 1):
            akj = form.alpha[k][j]
            if form.r[k][j]:
                acc *= -akj if abs(akj) >= 1 - 1e-12 else moebius(akj, lam)
            ratio = (1 - np.conj(akj) * lam) / (1 - np.conj(form.alpha0[k]) * lam)
            acc *= ratio ** (1.0 / form.p[j])
        out.append(acc)
    return np.asarray(out)


def test_edigarian_as_mapspec_matches_eval():
    rng = np.random.default_rng(403)
    form = random_edigarian(rng)
    spec = as_mapspec(form)
    lam = 0.3 - 0.25j
    assert np.max(np.abs(np.asarray(spec(lam)) - normal_form_reference(form, lam))) < 1e-12


# ---------------------------------------------------------------------------
# Three-point ball normal form
# ---------------------------------------------------------------------------

def test_ball3_forward_frozen_instance():
    alpha, beta, gamma = ball3_equivalent_params(np.sqrt(0.5), 0.5)
    assert alpha * alpha == pytest.approx(0.6, abs=1e-12)
    assert beta * beta == pytest.approx(0.4, abs=1e-12)
    assert complex(gamma) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ball3_solver_round_trip():
    for p, q in ((0.3, 0.7), (0.5, 0.5), (0.85, 0.2), (0.1, 0.9)):
        b, c = ball3_solve_params(p, q)
        assert 0 < b < 1
        alpha, beta, gamma = ball3_equivalent_params(b, c)
        assert beta * beta == pytest.approx(p, abs=1e-9)
        assert complex(gamma) == pytest.approx(q, abs=1e-9)
        assert ball3_verify_params(b, c, p, q) < 1e-9


def test_ball3_solver_rejects_out_of_range():
    with pytest.raises(ValueError):
        ball3_solve_params(1.5, 0.5)


def mp_ball3_inverse(p, q):
    """(b, c) at 50 digits: the root of F(c) = m_q(c) - c m_p(c m_q(c)) in
    (0, q) by a bracketing solver, then b = sqrt(-m_q(c) / c)."""
    with mpmath.workdps(50):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        m_q = lambda c: (c - q) / (1 - q * c)
        F = lambda c: m_q(c) - c * (c * m_q(c) - p) / (1 - p * c * m_q(c))
        c = mpmath.findroot(F, (mpmath.mpf(0), q), solver="anderson")
        return float(mpmath.sqrt(-m_q(c) / c)), float(c)


def test_ball3_solver_matches_mpmath_oracle():
    rng = np.random.default_rng(414)
    edges = (1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6)
    pairs = [(p, q) for p in edges for q in edges]
    pairs += [tuple(float(v) for v in row) for row in rng.uniform(0, 1, size=(200, 2))]
    for p, q in pairs:
        b, c = ball3_solve_params(p, q)
        b_star, c_star = mp_ball3_inverse(p, q)
        assert abs(b - b_star) <= 1e-12 and abs(c - c_star) <= 1e-12, (p, q, b - b_star, c - c_star)


def test_ball3_normal_form_values_and_boundary():
    nf = ball3_normal_form(Ball3Params(0.6, 0.25))
    got = np.asarray(nf(0.7))
    want = np.array([0.6 * 0.7, 0.8 * 0.7 * moebius(0.25, 0.7)])
    assert np.max(np.abs(got - want)) < 1e-13
    vals = nf.eval_many(unit_circle(128))
    assert np.max(np.abs(np.linalg.norm(vals, axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Counterexample families
# ---------------------------------------------------------------------------

def test_power_pair_values_and_boundary_behavior():
    f = power_pair_map(4, 0.5)
    assert np.asarray(f(0.5)) == pytest.approx(np.array([0.125, 0.0625]))
    assert f.meta["geodesic"] is False
    dom = Ellipsoid((0.5, 0.5))
    gauge = minkowski_many(dom, f.eval_many(unit_circle(128)))
    assert np.max(np.abs(gauge - 1.0)) < 1e-12

    g = power_pair_geodesic(3, 0.25)
    assert np.asarray(g(0.5)) == pytest.approx(np.array([0.0625, 0.1875]))
    assert g.meta["geodesic"] is True


def test_triple_family_values():
    s = squared_sum_triple_map(4, 0.3)
    assert s.meta["b"] == pytest.approx(1 - 4 * 0.3 ** 2)
    assert np.asarray(s(0.4)) == pytest.approx(np.array([0.12, 0.048, 0.04096]))
    t = semilinear_triple_map(5, 0.3)
    assert t.meta["b"] == pytest.approx(1 - 2 * 0.3 ** 2)
    assert t.meta["extremal_m"] == 5


def test_ball_power_pair_boundary():
    f = ball_power_pair_map(4, 0.5)
    vals = f.eval_many(unit_circle(64))
    assert np.max(np.abs(np.linalg.norm(vals, axis=1) - 1.0)) < 1e-12


def test_family_parameter_guards():
    with pytest.raises(ValueError):
        power_pair_map(2, 0.5)
    with pytest.raises(ValueError):
        power_pair_map(4, 1.5)
    with pytest.raises(ValueError):
        squared_sum_triple_map(3, 0.3)
    with pytest.raises(ValueError):
        semilinear_triple_map(4, 0.3)


# each family's minimum m and largest accepted a; the smallest accepted a is
# the least positive double.  These are the parameter ranges the paper states:
# a in (0, 1), (0, 1/2), (0, 1/sqrt(2)) and (0, 1) rounded to doubles.
FAMILY_RANGES = {"power-pair": (3, 0.9999999999999999),
                 "power-pair-geodesic": (3, 0.9999999999999999),
                 "squared-sum-triple": (4, 0.49999999999999994),
                 "semilinear-triple": (5, 0.7071067811865475),
                 "ball-power-pair": (4, 0.9999999999999999)}
A_GRID = sorted(set(np.linspace(-0.2, 1.2, 57).tolist()) | {
    0.0, 5e-324, 0.5, 1.0 / np.sqrt(2), 1.0,
    *(float(np.nextafter(a, d)) for a in (0.0, 0.5, 1.0 / np.sqrt(2), 1.0) for d in (-1, 2))})


def family_cases(name):
    """(m, a, accepted) over m in [min_m - 1, min_m + 3] and the a grid."""
    min_m, a_max = FAMILY_RANGES[name]
    return [(m, a, m >= min_m and 0 < a <= a_max)
            for m in range(min_m - 1, min_m + 4) for a in A_GRID]


def test_family_ranges_cover_the_registry():
    assert list(FAMILY_RANGES) == list(FAMILIES)
    for name, fam in FAMILIES.items():
        assert fam.min_m == FAMILY_RANGES[name][0]


@pytest.mark.parametrize("name", list(FAMILY_RANGES))
def test_family_accepts_exactly_its_range(name):
    fam = FAMILIES[name]
    for m, a, accepted in family_cases(name):
        if accepted:
            f = fam.build(m, a)
            assert f.meta["extremal_m"] == m
            assert f.meta["geodesic"] is (fam.left_inverse is not None)
            assert f.meta["domain"] == fam.domain.to_json()
            assert ("b" in f.meta) is fam.meta_b
        else:
            with pytest.raises(ValueError, match="needs m >="):
                fam.build(m, a)


@pytest.mark.parametrize("name", list(FAMILY_RANGES))
def test_family_maps_circle_to_boundary(name):
    fam = FAMILIES[name]
    circle = unit_circle(256)
    for m, a, accepted in family_cases(name):
        if accepted:
            gauge = minkowski_many(fam.domain, fam.build(m, a).eval_many(circle))
            assert np.max(np.abs(gauge - 1.0)) <= 1e-12, (m, a)


@pytest.mark.parametrize("name", [n for n in FAMILY_RANGES if FAMILIES[n].left_inverse])
def test_family_left_inverse_composes_to_power(name):
    fam = FAMILIES[name]
    F = MultiPoly(fam.left_inverse)
    circle = unit_circle(256)
    for m, a, accepted in family_cases(name):
        if accepted:
            comp = F(fam.build(m, a).eval_many(circle))
            assert np.max(np.abs(comp - circle ** (m - 1))) <= 1e-12, (m, a)


# ---------------------------------------------------------------------------
# Factor manipulation
# ---------------------------------------------------------------------------

def test_divide_multiply_round_trip():
    dom = Ellipsoid((0.5, 0.5))
    f = power_pair_map(4, 0.5)
    h, tag = divide_moebius_powers(f, 0.0, (1, 1), dom)
    assert tag == "interior"
    assert np.asarray(h(0.3)) == pytest.approx(np.array([0.15, 0.045]))
    back = multiply_moebius_powers(h, 0.0, (1, 1))
    for lam in (0.3, -0.2 + 0.4j):
        assert np.max(np.abs(np.asarray(back(lam)) - np.asarray(f(lam)))) < 1e-13


def test_divide_full_order_hits_boundary_tag():
    dom = Ellipsoid((0.5, 0.5))
    f = power_pair_map(4, 0.5)
    h, tag = divide_moebius_powers(f, 0.0, (2, 3), dom)
    assert tag == "boundary"
    assert np.asarray(h(0.0)) == pytest.approx(np.array([0.5, 0.5]))


def test_divide_rejects_insufficient_vanishing():
    dom = Ellipsoid((0.5, 0.5))
    f = power_pair_map(4, 0.5)
    with pytest.raises(PreconditionError):
        divide_moebius_powers(f, 0.0, (3, 3), dom)


def test_compose_with_blaschke_is_composition():
    f = power_pair_geodesic(3, 0.5)
    B = BlaschkeProduct(1.0, (0.3, -0.2j))
    g = compose_with_blaschke(f, B)
    assert g.meta["extremal_m"] == f.meta["extremal_m"] * 2
    for lam in (0.0, 0.4, -0.3 + 0.3j):
        want = np.asarray(f(complex(B(lam))))
        assert np.max(np.abs(np.asarray(g(lam)) - want)) < 1e-12


# ---------------------------------------------------------------------------
# Map expressions from JSON
# ---------------------------------------------------------------------------

def _one_component(expr):
    return MapSpec.from_json({"components": [expr]})


# each number slot of a map document: x -> the document loaded with x there
NUMBER_SLOTS = {
    "const": lambda x: _one_component({"op": "const", "value": [x, 0.0]}),
    "poly": lambda x: _one_component({"op": "poly", "coeffs": [[0.0, 0.0], [0.5, x]]}),
    "moebius": lambda x: _one_component({"op": "moebius", "alpha": [x, 0.0]}),
    "ratio_power_alpha": lambda x: _one_component(
        {"op": "ratio_power", "alpha": [x, 0.0], "alpha0": [0.2, 0.0], "s": 0.5}),
    "ratio_power_s": lambda x: _one_component(
        {"op": "ratio_power", "alpha": [0.5, 0.0], "alpha0": [0.2, 0.0], "s": x}),
    "multipoly_term": lambda x: MultiPoly.from_json(
        {"terms": [[[1.0, 0.0], [2, 0]], [[x, 0.0], [0, 1]]]}),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("slot", list(NUMBER_SLOTS))
def test_map_json_refuses_non_finite(slot, bad):
    # a NaN constant used to load and evaluate to nan
    load = NUMBER_SLOTS[slot]
    load(0.5)
    with pytest.raises(ValueError, match="non-finite"):
        load(bad)


def _disc_and_circle_points(seed):
    """1,024 circle points and 1,000 random points of the open disc."""
    rng = np.random.default_rng(seed)
    disc = np.sqrt(rng.uniform(size=1000)) * np.exp(2j * np.pi * rng.uniform(size=1000))
    return np.concatenate([unit_circle(1024), 0.999 * disc])


def _bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("value", [0.0, 1.0, 0.3 - 0.7j, -2.5e-8 + 1e3j])
def test_const_loads_as_a_degree_zero_polynomial(value):
    lam = _disc_and_circle_points(1)
    node = expr_from_json({"op": "const", "value": [value.real, value.imag]})
    assert isinstance(node, Polynomial)
    assert np.array_equal(_bits(node(lam)), _bits(np.full(lam.shape, complex(value))))
    assert node.to_json() == {"op": "poly", "coeffs": [[value.real, value.imag]]}


def test_var_loads_as_the_polynomial_lam():
    lam = _disc_and_circle_points(2)
    node = expr_from_json({"op": "var"})
    assert isinstance(node, Polynomial)
    assert np.array_equal(_bits(node(lam)), _bits(lam))
    assert node.to_json() == {"op": "poly", "coeffs": [[0.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.3 + 0.4j, 0.999j])
def test_moebius_loads_as_a_degree_one_blaschke_product(alpha):
    lam = _disc_and_circle_points(3)
    node = expr_from_json({"op": "moebius", "alpha": [alpha.real, alpha.imag]})
    assert isinstance(node, Blaschke) and node.product.degree == 1
    assert np.array_equal(_bits(node(lam)), _bits(moebius(alpha, lam)))
    assert node.to_json() == {"op": "blaschke", "factor": [1.0, 0.0],
                              "zeros": [[alpha.real, alpha.imag]]}


@pytest.mark.parametrize("alpha", [1.0, 1.5, -1j])
def test_moebius_off_the_open_disc_is_refused_at_load(alpha):
    # m_alpha has a pole in the closed disc: such a map used to load and
    # evaluate to nan or inf
    with pytest.raises(ValueError, match="inside the disc"):
        _one_component({"op": "moebius", "alpha": [alpha.real, alpha.imag]})


# one component of every node kind, each on a different path of the tree
EVERY_NODE = {"components": [
    {"op": "const", "value": [0.1, -0.2]},
    {"op": "intpow", "k": 3, "base": {"op": "sum", "terms": [
        {"op": "var"}, {"op": "moebius", "alpha": [0.2, 0.1]}]}},
    {"op": "product", "factors": [
        {"op": "ratio_power", "alpha": [0.5, 0.5], "alpha0": [0.1, 0.0], "s": 0.75},
        {"op": "poly", "coeffs": [[1.0, 0.0], [0.0, 0.5]]}]},
    {"op": "subst", "outer": {"op": "poly", "coeffs": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
     "inner": {"op": "blaschke", "factor": [0.0, 1.0], "zeros": [[0.3, 0.0], [0.0, -0.4]]}},
    {"op": "moebius_quotient", "alpha": [0.25, 0.0], "k": 1, "inner": {
        "op": "product", "factors": [{"op": "var"}, {"op": "moebius", "alpha": [0.25, 0.0]}]}},
]}


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (2, 0, 5)])
def test_mapspec_shape_is_the_points_shape_plus_the_dimension(shape):
    f = MapSpec.from_json(EVERY_NODE)
    rng = np.random.default_rng(7)
    lam = 0.9 * (rng.uniform(-0.7, 0.7, size=shape) + 1j * rng.uniform(-0.7, 0.7, size=shape))
    got = f(lam)
    assert got.shape == shape + (5,) and got.dtype == complex
    # each point's value is the bits of that point evaluated alone
    for idx in np.ndindex(*shape):
        assert np.array_equal(_bits(got[idx]), _bits(f(lam[idx])))
    assert np.array_equal(_bits(f.eval_many(lam)), _bits(got.reshape(-1, 5)))


def test_mapspec_scalar_point_gives_one_row():
    f = MapSpec.from_json(EVERY_NODE)
    row = f(0.3 - 0.1j)
    assert row.shape == (5,)
    assert row[0] == 0.1 - 0.2j
    assert abs(row[4] - (0.3 - 0.1j)) < 1e-13  # lam m_alpha / m_alpha, through the quotient


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_multiply_moebius_powers_is_one_blaschke_product(k):
    f = power_pair_map(4, 0.5)
    mu = -0.35 + 0.45j
    g = multiply_moebius_powers(f, mu, (k, 0))
    head = g.components[0].factors[0]
    assert isinstance(head, Blaschke) and head.product.zeros == (mu,) * k
    assert not any(isinstance(node, IntPow) for node in g.components[0].factors)
    assert g.components[1] is f.components[1]
    lam = _disc_and_circle_points(k)
    want = f(lam) * np.stack([((lam - mu) / (1 - np.conj(mu) * lam)) ** k,
                              np.ones_like(lam)], axis=-1)
    assert np.max(np.abs(g(lam) - want)) <= 1e-14


def test_multiply_moebius_powers_refuses_a_negative_power():
    with pytest.raises(ValueError, match="nonnegative"):
        multiply_moebius_powers(power_pair_map(4, 0.5), 0.2, (1, -1))


# ---------------------------------------------------------------------------
# MultiPoly evaluation: float64 on real data, complex otherwise
# ---------------------------------------------------------------------------

def test_multipoly_real_path_matches_complex_evaluation():
    # exponents up to 64, the largest lcm certify takes
    rng = np.random.default_rng(64)
    X = rng.uniform(-1.2, 1.2, size=(2000, 3))
    X[:50] = 0.0
    for _ in range(20):
        terms = [(rng.standard_normal(), tuple(rng.integers(0, 65, size=3))) for _ in range(6)]
        F = MultiPoly(terms)
        got = F(X)
        assert got.dtype == np.float64
        scale = sum(abs(c) * np.prod(np.abs(X) ** np.array(e), axis=1) for c, e in terms)
        assert np.all(np.abs(got - F(X.astype(complex))) <= 1e-14 * scale)


def test_multipoly_complex_coefficient_or_points_give_complex_values():
    X = np.array([[0.5, -0.25], [1.0, 2.0]])
    real = MultiPoly([(2.0, (1, 0)), (-1.0, (0, 3))])
    assert real(X).dtype == np.float64
    assert real(X.astype(complex)).dtype == np.complex128
    assert MultiPoly([(1j, (1, 0)), (-1.0, (0, 3))])(X).dtype == np.complex128
    assert np.array_equal(real(X), real(X.astype(complex)).real)


def test_multipoly_single_point_returns_python_complex():
    F = MultiPoly([(2.0, (1, 0)), (-1.0, (0, 3))])
    for z in ([0.5, -0.25], [0.5 + 0j, -0.25], np.array([1, 2])):
        assert type(F(z)) is complex
    assert F([0.5, -0.25]) == 2.0 * 0.5 + 0.25 ** 3
    assert type(MultiPoly([(1j, (1, 1))])([1.0, 2.0])) is complex
