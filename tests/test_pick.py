"""Pick matrices, the disc extremality decision and the falsifier."""

import hashlib
import json

import numpy as np
import pytest

from geodisc import pick
from geodisc.cplane import BlaschkeProduct, blaschke_degree_of_data, disc_data, lagrange_polynomial
from geodisc.domains import (Ball, Ellipsoid, Polydisc, UnitDisc, minkowski_many,
                             semilinear_gauge, squared_sum_gauge)
from geodisc.errors import InfeasibleDataError
from geodisc.mapspec import Blaschke, MapSpec, Polynomial, Product
from geodisc.maps import ball_power_pair_map, power_pair_map, squared_sum_triple_map
from geodisc.pick import (GRID, INDEFINITE, POSITIVE_DEFINITE, SINGULAR_PSD, FalsifierResult,
                          classify_pick, falsify_weak_extremality, grid_lsq, pick_matrix,
                          polydisc_test)
from geodisc.policy import DEFAULT_POLICY

from test_cplane import random_blaschke, random_nodes, unit_circle


# ---------------------------------------------------------------------------
# Pick matrix and classification
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("nodes, values", [
    ((0.0, 0.5), (0.0, NAN)),
    ((0.0, 0.5), (0.0, complex(0.1, NAN))),
    ((0.0, 0.5), (INF, 0.0)),
    ((0.0, NAN), (0.0, 0.5)),
    ((complex(NAN, 0.1), 0.5), (0.0, 0.5)),
])
def test_pick_data_refuses_non_finite(nodes, values):
    with pytest.raises(ValueError, match="finite"):
        classify_pick(nodes, values)


def test_pick_matrix_frozen_entries():
    M = pick_matrix((0.0, 0.5), (0.0, 0.9))
    want = np.array([[1.0, 1.0], [1.0, 0.19 / 0.75]])
    assert np.max(np.abs(M - want)) < 1e-14


def test_pick_matrix_hermitian():
    rng = np.random.default_rng(301)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        nodes = random_nodes(rng, m)
        vals = tuple(rng.uniform(0, 0.9, size=m) * np.exp(2j * np.pi * rng.uniform(size=m)))
        M = pick_matrix(nodes, vals)
        assert np.max(np.abs(M - M.conj().T)) < 1e-13


def test_classify_trichotomy():
    # interior data scaled well inside: positive definite
    v = classify_pick((0.0, 0.4, -0.3 + 0.2j), (0.05, 0.1 - 0.05j, -0.02 + 0.08j))
    assert v.tag == POSITIVE_DEFINITE
    assert v.null_dim == 0
    assert v.forced_degree is None

    # data of a degree-1 Blaschke product: singular PSD with rank 1
    b = BlaschkeProduct(1.0, (0.3,))
    nodes = (0.0, 0.5, -0.25j)
    v = classify_pick(nodes, tuple(b(z) for z in nodes))
    assert v.tag == SINGULAR_PSD
    assert v.rank == 1 and v.null_dim == 2
    assert v.forced_degree == 1


def test_disc_weak_extremality_decision():
    # the disc decision is read off the verdict: singular PSD of rank >= 1 is
    # extremal data, positive definite is not, indefinite data has no disc map
    b = BlaschkeProduct(1.0, (0.3, -0.4))
    nodes = (0.0, 0.5, 0.25j)
    v = classify_pick(nodes, tuple(b(z) for z in nodes))
    assert (v.tag, v.rank, v.null_dim, v.forced_degree) == (SINGULAR_PSD, 2, 1, 2)
    v = classify_pick((0.0, 0.5), (0.0, 0.25))
    assert (v.tag, v.rank, v.null_dim, v.forced_degree) == (POSITIVE_DEFINITE, 2, 0, None)

    # the classic infeasible pair: the recursion stops before it can count
    v = classify_pick((0.0, 0.5), (0.0, 0.9))
    assert v.tag == INDEFINITE
    assert v.rank is None and v.null_dim is None
    assert v.min_eigenvalue < 0
    assert v.forced_degree is None


def test_classify_blaschke_rank_sweep():
    # criterion 1's radii, degrees 1..6 at up to 8 nodes; the 0.9-scaled copy
    # of each set is strictly contractive data, so positive definite
    rng = np.random.default_rng(302)
    for trial in range(2000):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(d + 1, 9))
        b = random_blaschke(rng, d, rmax=0.72)
        nodes = random_nodes(rng, m, rmax=0.75, gap=0.08)
        vals = tuple(b(z) for z in nodes)
        v = classify_pick(nodes, vals)
        assert v.tag == SINGULAR_PSD, f"trial {trial}"
        assert v.rank == blaschke_degree_of_data(nodes, vals) == d, f"trial {trial}"
        assert v.null_dim == m - d
        v = classify_pick(nodes, tuple(0.9 * w for w in vals))
        assert (v.tag, v.rank, v.null_dim) == (POSITIVE_DEFINITE, m, 0), f"trial {trial}"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_clustered_positive_definite(n):
    # 0.9 B at n nodes within about 0.01 of one point: the Pick matrix's
    # smallest eigenvalue sits far below 1e-10 of its norm, but the data is
    # strictly contractive, so it is positive definite
    rng = np.random.default_rng(310 + n)
    for trial in range(200):
        t = rng.uniform(0.0, 2.0 * np.pi)
        nodes = tuple(0.5 * np.exp(1j * t)
                      + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        b = random_blaschke(rng, n)
        v = classify_pick(nodes, tuple(0.9 * b(z) for z in nodes))
        assert (v.tag, v.rank, v.null_dim) == (POSITIVE_DEFINITE, n, 0), f"trial {trial}"


# ---------------------------------------------------------------------------
# Polydisc reduction
# ---------------------------------------------------------------------------

def test_polydisc_test_matches_componentwise_degrees():
    rng = np.random.default_rng(303)
    for trial in range(200):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        nodes = random_nodes(rng, m)
        comps = []
        built_extremal = False
        for _ in range(n):
            kind = rng.integers(0, 3)
            if kind == 0:
                d = int(rng.integers(1, m))
                b = random_blaschke(rng, d)
                vals = tuple(b(z) for z in nodes)
                built_extremal = True
            elif kind == 1:
                coeffs = 0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3))
                vals = tuple(np.polyval(coeffs[::-1], z) for z in nodes)
            else:
                vals = (complex(rng.uniform(0, 0.8)),) * m
            comps.append(vals)
        got = polydisc_test(nodes, np.transpose(comps))
        # oracle: recompute the forced degrees one component at a time
        want = any(1 <= blaschke_degree_of_data(nodes, vals) <= m - 1 for vals in comps)
        assert got == want, f"trial {trial}"
        assert got == built_extremal, f"trial {trial}"


# Degree-5 Blaschke data at 7 nodes near the circle, where the Schur recursion
# pivoting on the first node reads a value of modulus 1 + 3e-8 (a) and
# 1 + 6e-8 (b) and calls the data infeasible; the Pick matrix has rank 5.
SCHUR_FAULTS = (
    ([(0.10193320943734306, -0.5490614033436312), (0.6203265885769306, -0.3197363202367474),
      (0.8364962655184136, -0.44462224899340014), (-0.32306031773660615, -0.2052228543656809),
      (0.7066081133335764, -0.39445893248399533), (-0.2762398486522826, -0.23627727413263833),
      (-0.009559466999392006, -0.22076810951550502)],
     [(-0.43537536820491457, -0.17661151578549428), (-0.2683405271047024, -0.6843814595203856),
      (-0.3698569874143022, -0.8793957338432307), (-0.005188341127706613, 0.0029893852668624356),
      (-0.33242011868847515, -0.7623774712134563), (-0.03936868500812005, -0.004359568438928904),
      (-0.12228411674047758, -0.1717655191124196)]),
    ([(-0.8676595806648874, -0.21447405222290994), (-0.6352289452249628, 0.5452321360422504),
      (-0.3108519249616804, 0.1870009858778238), (-0.3912737431393609, 0.7051135995673238),
      (0.15249867796917776, -0.6506525588116577), (-0.3409780657322406, 0.4849132806550022),
      (-0.17215737372269485, 0.8557971595246324)],
     [(-0.654666669360627, -0.5780185100439237), (-0.6340529611443573, 0.3797936619323895),
      (-0.2899100610959882, -0.010830091680603282), (-0.1999384389460487, 0.5442781701586435),
      (0.32214096531601827, -0.027344923145414507), (-0.273473957402354, 0.24056327292537266),
      (0.3583389040658004, 0.4080236394356249)]),
)


@pytest.mark.parametrize("nodes,values", SCHUR_FAULTS, ids=["a", "b"])
def test_polydisc_test_near_circle_degree_5(nodes, values):
    nodes, values = [complex(*x) for x in nodes], [complex(*w) for w in values]
    v = classify_pick(nodes, values)
    assert v.tag == SINGULAR_PSD and v.rank == 5
    assert polydisc_test(nodes, np.transpose([values])) is True


def test_polydisc_test_node_count_guard():
    # two value rows at three nodes
    with pytest.raises(ValueError, match="^need as many values as nodes: 2 values for 3 nodes$"):
        polydisc_test((0.0, 0.5, -0.5), [[0.0, 0.1], [0.25, 0.1]])


# ---------------------------------------------------------------------------
# Falsifier
# ---------------------------------------------------------------------------

def test_falsifier_refutes_strictly_interior_map():
    # (lam/2, 0) misses the ellipsoid boundary, so three-node data cannot be
    # weakly extremal and the search must produce an interior interpolant.
    dom = Ellipsoid((0.5, 0.5))
    f = MapSpec([Polynomial([0.0, 0.5]), Polynomial([0.0])])
    nodes = (0.0, 0.4, -0.4)
    res = falsify_weak_extremality(nodes, f(nodes), dom)
    assert res.falsified
    assert res.best_defect < -1e-6
    assert res.witness is not None
    # witness really interpolates and really stays inside
    fv = f.eval_many(np.asarray(nodes))
    wv = res.witness.eval_many(np.asarray(nodes))
    assert np.max(np.abs(fv - wv)) < 1e-8
    circle_gauge = minkowski_many(dom, res.witness.eval_many(unit_circle(1024)))
    assert float(np.max(circle_gauge)) < 1.0


def test_falsifier_stays_silent_on_forced_data():
    # first coordinate sampled from a Blaschke product of degree < m: any
    # closed-disc interpolant is forced onto the boundary, so a sound
    # falsifier must report unknown.
    rng = np.random.default_rng(304)
    dom = Polydisc(2)
    for trial in range(5):
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, m))
        f = MapSpec([Blaschke(random_blaschke(rng, d)), Polynomial([0.0, 0.3])])
        nodes = random_nodes(rng, m, rmax=0.7)
        res = falsify_weak_extremality(
            nodes, f(nodes), dom, DEFAULT_POLICY.with_(falsifier_budget=1500))
        assert not res.falsified, f"trial {trial}"
        assert res.witness is None
        assert res.best_defect > -1e-6


def test_falsifier_unknown_on_schwarz_rigid_data():
    from geodisc.domains import UnitDisc
    ident = MapSpec([Polynomial([0.0, 1.0])])
    policy = DEFAULT_POLICY.with_(falsifier_budget=800)
    res = falsify_weak_extremality((0.0, 0.5), ident((0.0, 0.5)), UnitDisc(), policy)
    assert not res.falsified

    diag = MapSpec([Polynomial([0.0, 1.0]), Polynomial([0.0, 1.0])])
    res = falsify_weak_extremality((0.0, 0.5), diag((0.0, 0.5)), Polydisc(2), policy)
    assert not res.falsified


def test_falsifier_descent_stops_when_converged_on_a_non_convex_target():
    # (lam, 0) into E(1/4, 1/4), whose defect is not convex: the first
    # coordinate is forced to be the identity, so the data is weakly
    # extremal.  The one descent stops when its step falls below 1e-7, well
    # inside the budget, and lands within 1e-7 of the boundary.
    f = _poly_map((0, 1), (0,))
    res = falsify_weak_extremality((0.0, 0.5), f((0.0, 0.5)), Ellipsoid((0.25, 0.25)))
    assert not res.falsified
    assert res.evaluations < DEFAULT_POLICY.falsifier_budget / 2
    assert 0.0 <= res.best_defect < 1e-7


def test_falsifier_result_status_labels():
    dom = Ellipsoid((0.5, 0.5))
    f = MapSpec([Polynomial([0.0, 0.5]), Polynomial([0.0])])
    res = falsify_weak_extremality((0.0, 0.4, -0.4), f((0.0, 0.4, -0.4)), dom)
    assert res.status == "falsified"


# ---------------------------------------------------------------------------
# Falsifier trajectories, pinned
# ---------------------------------------------------------------------------

def _poly_map(*coeff_lists):
    return MapSpec([Polynomial(list(c)) for c in coeff_lists])


_B2 = BlaschkeProduct(1.0, (0.3, -0.2 + 0.4j))


def _scaled_b2(s, *rest):
    """(s B2, rest...): data forced onto the boundary at s = 1, interior with
    a thin margin just below it."""
    head = Product((Polynomial([s]), Blaschke(_B2)))
    return MapSpec([head] + [Polynomial(list(c)) for c in rest])


# name: (map, domain, nodes, budget); None takes the policy default.
# Budgets 1001-1003 end the search partway through the four moves of a
# coefficient (disc_identity_b1001 converges first, at 669 evaluations); the
# *_interior cases are falsified at the first evaluation and the *_descent
# cases inside the coordinate descent.
FALSIFIER_CASES = {
    "disc_identity_b1001": (lambda: _poly_map((0, 1)), UnitDisc, (0.0, 0.5), 1001),
    "disc_blaschke_b1002": (lambda: MapSpec([Blaschke(_B2)]), UnitDisc, (0.0, 0.4, -0.5j), 1002),
    "disc_blaschke_full": (lambda: MapSpec([Blaschke(_B2)]), UnitDisc, (0.1, 0.4, -0.5j), None),
    "disc_interior": (lambda: _poly_map((0, 0, 0.5)), UnitDisc, (0.0, 0.4, -0.3), None),
    "disc_near_extremal_descent": (lambda: _scaled_b2(0.9996), UnitDisc, (0.0, 0.5, 0.4j), None),
    "polydisc_diag_b1003": (lambda: _poly_map((0, 1), (0, 1)), lambda: Polydisc(2), (0.0, 0.5), 1003),
    "polydisc_forced_b1001": (lambda: MapSpec([Blaschke(_B2), Polynomial([0, 0.3])]),
                              lambda: Polydisc(2), (0.0, 0.3, 0.6j), 1001),
    "polydisc_forced_full": (lambda: MapSpec([Blaschke(_B2), Polynomial([0, 0.3])]),
                             lambda: Polydisc(2), (0.0, 0.3, 0.6j), None),
    "polydisc_interior": (lambda: _poly_map((0, 0.2), (0, 0, 0.3)), lambda: Polydisc(2), (0.1, -0.4), None),
    "polydisc_near_extremal_descent": (lambda: _scaled_b2(0.9995, (0, 0.3)), lambda: Polydisc(2),
                                       (0.0, 0.5, 0.4j), None),
    "ball_line_b1002": (lambda: _poly_map((0, 1), (0,)), lambda: Ball(2), (0.0, 0.5), 1002),
    "ball_power_pair_b1003": (lambda: ball_power_pair_map(4, 0.5), lambda: Ball(2),
                              (0.0, 0.3, -0.4j, 0.2 + 0.5j), 1003),
    "ball_power_pair_full": (lambda: ball_power_pair_map(4, 0.5), lambda: Ball(2),
                             (0.0, 0.3, -0.4j, 0.2 + 0.5j), None),
    "ball_interior": (lambda: _poly_map((0, 0.3), (0.2,)), lambda: Ball(2), (0.0, 0.5), None),
    "ball_near_extremal_descent": (lambda: _scaled_b2(0.9994, (0,)), lambda: Ball(2), (0.0, 0.5, 0.4j), None),
    "ellipsoid12_first_b1001": (lambda: _poly_map((0, 1), (0,)), lambda: Ellipsoid([1, 2]), (0.0, 0.5), 1001),
    "ellipsoid12_second_b1002": (lambda: _poly_map((0,), (0, 1)), lambda: Ellipsoid([1, 2]), (0.0, -0.5), 1002),
    "ellipsoid12_mixed_full": (lambda: _poly_map((0, 0.6), (0, 0, 0.8 ** 0.5)), lambda: Ellipsoid([1, 2]),
                               (0.0, 0.3, 0.5j), None),
    "ellipsoid12_interior": (lambda: _poly_map((0, 0.3), (0, 0.3)), lambda: Ellipsoid([1, 2]), (0.0, 0.5), None),
    "ellipsoid12_near_extremal_descent": (lambda: _scaled_b2(0.9995, (0,)), lambda: Ellipsoid([1, 2]),
                                          (0.0, 0.5, 0.4j), None),
    "ellipsoid_half_interior": (lambda: _poly_map((0, 0.5), (0,)), lambda: Ellipsoid((0.5, 0.5)),
                                       (0.0, 0.4, -0.4), None),
    "squared_sum_triple_b1003": (lambda: squared_sum_triple_map(4, 0.3), squared_sum_gauge,
                                 (0.0, 0.3, -0.4, 0.5j), 1003),
    "squared_sum_triple_full": (lambda: squared_sum_triple_map(4, 0.3), squared_sum_gauge,
                                (0.0, 0.3, -0.4, 0.5j), None),
    "squared_sum_interior": (lambda: _poly_map((0, 0.1), (0, 0.1), (0.2,)), squared_sum_gauge, (0.0, 0.5), None),
    "ellipsoid_quarter_forced_full": (lambda: MapSpec([Blaschke(_B2), Polynomial([0.0])]),
                                      lambda: Ellipsoid((0.25, 0.25)), (0.0, 0.3, 0.6j), None),
}

# (falsified, evaluations, repr(best_defect), sha256 of the witness JSON
# with sorted keys), recorded from the one deterministic descent on the
# whole budget in which a rejected move leaves H untouched;
# ellipsoid_quarter_forced_full is the one non-convex target (p_j < 1/2)
FALSIFIER_PINS = {
    'disc_identity_b1001': (False, 669, '4.8074132452669005e-08', None),
    'disc_blaschke_b1002': (False, 1002, '0.00044091581347305286', None),
    'disc_blaschke_full': (False, 1246, '0.0007785775934316952', None),
    'disc_interior': (True, 1, '-0.3839999999999998',
                      'e1ae7b1e34fe786b481047cb7eecdff8cf4a25289ff075af2a2f9d6cff0506d4'),
    'polydisc_diag_b1003': (False, 1003, '4.827761679315756e-08', None),
    'polydisc_forced_b1001': (False, 1001, '0.0005775936082428323', None),
    'polydisc_forced_full': (False, 2964, '0.0005021377097291779', None),
    'polydisc_interior': (True, 1, '-0.7295999999999999',
                          'fe7fa539d44d11aec733127a3181deb900f424007d6adff0bba1782b407d0c86'),
    'ball_line_b1002': (False, 1002, '4.827442734445242e-08', None),
    'ball_power_pair_b1003': (False, 1003, '5.849355841913706e-07', None),
    'ball_power_pair_full': (False, 1841, '4.291065178740894e-07', None),
    'ball_interior': (True, 1, '-0.7575',
                      'e4bd95e59b9fa374907203513d9b26e8cdacd9c48f4933faa81b016683fe8332'),
    'ellipsoid12_first_b1001': (False, 1001, '4.827442734445242e-08', None),
    'ellipsoid12_second_b1002': (False, 1002, '4.827123767370267e-08', None),
    'ellipsoid12_mixed_full': (False, 1829, '3.684406451043287e-07', None),
    'ellipsoid12_interior': (True, 1, '-0.75649375',
                             '894f669eb8606a3974bdbdcb78176c7276bcad98dec7b5e0f908174985c02e34'),
    'ellipsoid_half_interior': (True, 1, '-0.41999999999999993',
                                'c6acc255d467f652de9a3fb531b4dfbc9529e95fc0f532037b4d3836708ce92c'),
    'squared_sum_triple_b1003': (False, 1003, '3.09420054600551e-06', None),
    'squared_sum_triple_full': (False, 2957, '2.8175290056609015e-07', None),
    'squared_sum_interior': (True, 1, '-0.71',
                             '65b8c2f1b253f37e37587e6c16363c49d646d3fd30b8f33036b38955a83e1e9e'),
    'disc_near_extremal_descent': (True, 518, '-4.791727398423262e-06',
                                   'bb7acc28f693247399f8c593001f377d200eb039340926c520d5255632c9527f'),
    'polydisc_near_extremal_descent': (True, 741, '-2.1996085885600536e-05',
                                       'e61812bdc28517a41a818dc5863e0a2ac50b14ac3230e68cdd257a8b32b6d59c'),
    'ball_near_extremal_descent': (True, 725, '-0.00017957684596481283',
                                   '77f78c996d1f22164cbcbab614fbe4c3de1e21fe2a9f7de01add9785704f186d'),
    'ellipsoid12_near_extremal_descent': (True, 741, '-4.3991687943445434e-05',
                                          '00664d06da5f7f0c1492eac1af9eae3970c80c283f08551ae04a4430e9634dac'),
    'ellipsoid_quarter_forced_full': (False, 2964, '0.0002510373449902126', None),
}


def _pin(res):
    witness = None
    if res.witness is not None:
        text = json.dumps(res.witness.to_json(), sort_keys=True)
        witness = hashlib.sha256(text.encode()).hexdigest()
    return (res.falsified, res.evaluations, repr(res.best_defect), witness)


def _falsify_case(name, **settings):
    """The pin of FALSIFIER_CASES[name] under the policy with its budget and `settings`."""
    make_map, make_domain, nodes, budget = FALSIFIER_CASES[name]
    if budget is not None:
        settings["falsifier_budget"] = budget
    res = falsify_weak_extremality(nodes, make_map()(nodes), make_domain(), DEFAULT_POLICY.with_(**settings))
    return _pin(res)


@pytest.mark.parametrize("name", sorted(FALSIFIER_CASES))
def test_falsifier_trajectory_pinned(name):
    assert _falsify_case(name) == FALSIFIER_PINS[name]


# name: (falsifier_margin, pin) on a FALSIFIER_CASES entry.  At these margins
# a coarse-grid candidate below -margin fails the fine grid once, so the
# search doubles its trigger and goes on: to a deeper confirmed witness
# (disc) or to the end of the budget (polydisc).
REJECTION_PINS = {
    "disc_near_extremal_descent": (5e-6, (True, 528, '-1.4320740525763931e-05',
                                          '7fce81254682b63d207def94a54a7236035463a1ebf4a4f89cf7849a04bd7397')),
    "polydisc_near_extremal_descent": (1.7e-4, (False, 2707, '-0.00017229712280997234', None)),
}


@pytest.mark.parametrize("name", sorted(REJECTION_PINS))
def test_falsifier_fine_grid_rejection_pinned(name):
    margin, pin = REJECTION_PINS[name]
    assert _falsify_case(name, falsifier_margin=margin) == pin


# ---------------------------------------------------------------------------
# The coordinate descent's screen: exact at every size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("screen", [1, GRID])
def test_falsifier_pins_hold_at_every_screen_size(monkeypatch, screen):
    # the screen rejects only blocks that the full scoring rejects, so its
    # size moves no trajectory; at GRID points it is the full scoring
    monkeypatch.setattr(pick, "SCREEN", screen)
    for name in sorted(FALSIFIER_CASES):
        assert _falsify_case(name) == FALSIFIER_PINS[name], name
    for name, (margin, pin) in sorted(REJECTION_PINS.items()):
        assert _falsify_case(name, falsifier_margin=margin) == pin, name


SEARCH_DOMAINS = (UnitDisc, lambda: Ball(2), lambda: Ball(3), lambda: Polydisc(2), lambda: Polydisc(3),
                  lambda: Ellipsoid((1, 2)), lambda: Ellipsoid((0.25, 0.25)),
                  lambda: Ellipsoid((0.5, 1.0), weights=(1, 2)), squared_sum_gauge, semilinear_gauge)


def random_search(seed):
    """(nodes, values, domain, policy) of one seeded search: every domain kind,
    2-5 nodes, data at gauge 0.9 to 1, budgets 200-1,500, margins 1e-7 to 1e-3.

    Odd seeds: B a with a at that gauge (B of degree < m), data that a search
    can refute below gauge 1.  Even seeds: a quadratic polynomial map scaled
    so that its largest gauge at the nodes is that level."""
    rng = np.random.default_rng([313, seed])
    dom = SEARCH_DOMAINS[seed % len(SEARCH_DOMAINS)]()
    m = int(rng.integers(2, 6))
    nodes = random_nodes(rng, m, rmax=0.7)
    k = np.asarray(dom.weights, dtype=float)
    level = float(rng.choice([0.9, 0.99, 0.999, 1.0]))
    if seed % 2:
        a = rng.standard_normal(dom.dim) + 1j * rng.standard_normal(dom.dim)
        a = a * (level / minkowski_many(dom, a[None])[0]) ** k
        b = Blaschke(random_blaschke(rng, int(rng.integers(1, m))))
        comps = [Product((Polynomial([a[j]]), b)) for j in range(dom.dim)]
    else:
        coef = rng.standard_normal((3, dom.dim)) + 1j * rng.standard_normal((3, dom.dim))
        vals = np.vander(np.asarray(nodes), 3, increasing=True) @ coef
        coef = coef * (level / np.max(minkowski_many(dom, vals))) ** k
        comps = [Polynomial(coef[:, j]) for j in range(dom.dim)]
    policy = DEFAULT_POLICY.with_(falsifier_budget=int(rng.integers(200, 1500)),
                                  falsifier_margin=float(10 ** rng.uniform(-7, -3)))
    return nodes, MapSpec(comps)(nodes), dom, policy


def test_falsifier_screen_matches_the_full_scoring_on_random_searches(monkeypatch):
    screened = [_pin(falsify_weak_extremality(*random_search(seed))) for seed in range(40)]
    monkeypatch.setattr(pick, "SCREEN", GRID)
    full = [_pin(falsify_weak_extremality(*random_search(seed))) for seed in range(40)]
    assert screened == full
    # both outcomes occur, and most searches reach the coordinate descent
    assert 5 <= sum(pin[0] for pin in full) <= 35
    assert sum(pin[1] > 200 for pin in full) >= 25


# ---------------------------------------------------------------------------
# Lawson's weighted least squares, solved by FFT on the circle grid
# ---------------------------------------------------------------------------

def grid_problem(nodes, values):
    """(L, B, V) of the falsifier's candidate space h = L + B (V @ C) on its GRID-point circle."""
    lam, data = disc_data(nodes, values)
    zeta = np.exp(2j * np.pi * np.arange(GRID) / GRID)
    L = np.stack([Polynomial(lagrange_polynomial(lam, data[:, j]))(zeta) for j in range(data.shape[1])], axis=-1)
    return L, BlaschkeProduct(1.0, tuple(lam))(zeta), np.vander(zeta, len(lam) + pick.DEGREE_MARGIN + 1,
                                                              increasing=True)


def lawson_weights(L, B, V, dom, steps):
    """The falsifier's Lawson weights after `steps` updates, none of them stopped early."""
    w = np.ones(GRID)
    for _ in range(steps):
        gauge = minkowski_many(dom, L + B[:, None] * (V @ grid_lsq(w, L, B, V.shape[1])))
        w = w * np.maximum(gauge, 1e-12)
        w = w / w.sum()
    return w


def assert_grid_lsq_matches_lstsq(w, L, B, V):
    sw = np.sqrt(w)
    want = np.linalg.lstsq((sw * B)[:, None] * V, -sw[:, None] * L, rcond=None)[0]
    got = grid_lsq(w, L, B, V.shape[1])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_grid_lsq_matches_lstsq_at_uniform_and_random_weights():
    rng = np.random.default_rng(3600)
    for name, (make_map, _, nodes, _) in sorted(FALSIFIER_CASES.items()):
        L, B, V = grid_problem(nodes, make_map()(nodes))
        for w in (np.ones(GRID), rng.random(GRID), rng.random(GRID) ** 8):
            assert_grid_lsq_matches_lstsq(w, L, B, V)


@pytest.mark.parametrize("support", [0, 1, 3, 8])
def test_grid_lsq_refuses_weights_on_fewer_points_than_coefficients(support):
    # 4 nodes: 9 coefficients.  Weights on 3 points gave cond(T) = 1.7e17, and
    # a plain solve returned entries of 1e15 without raising; support 0 is
    # weights that underflowed to 0, and the subnormal floor is their last step
    make_map, _, nodes, _ = FALSIFIER_CASES["ball_power_pair_full"]
    L, B, V = grid_problem(nodes, make_map()(nodes))
    rng = np.random.default_rng(3601)
    for floor in (0.0, 5e-324, 1e-310):
        w = np.full(GRID, floor)
        w[rng.choice(GRID, size=support, replace=False)] = 1.0
        assert grid_lsq(w, L, B, V.shape[1]) is None, (support, floor)


def peaked_gauge(monkeypatch, points):
    """Make the falsifier's Lawson gauge 1e300 at `points` of its grid and 0
    elsewhere, so the first update leaves weights of 3e-313 off those points;
    return the list of grid_lsq's answers."""
    real_gauge, answers = pick.minkowski_many, []

    def gauge(dom, Z):
        if len(Z) != GRID:  # the data's own gauge check
            return real_gauge(dom, Z)
        out = np.zeros(GRID)
        out[points] = 1e300
        return out

    def solve(*args):
        answers.append(grid_lsq(*args))
        return answers[-1]

    monkeypatch.setattr(pick, "minkowski_many", gauge)
    monkeypatch.setattr(pick, "grid_lsq", solve)
    return answers


@pytest.mark.parametrize("name", ["ball_power_pair_full", "disc_near_extremal_descent", "ellipsoid12_mixed_full"])
def test_falsifier_ends_the_lawson_streak_on_an_ill_conditioned_solve(monkeypatch, name):
    # the warm start and the first Lawson step solve at uniform weights; the
    # second step's weights sit on 3 points, and the streak ends there
    answers = peaked_gauge(monkeypatch, [0, 100, 200])
    make_map, make_domain, nodes, _ = FALSIFIER_CASES[name]
    res = falsify_weak_extremality(nodes, make_map()(nodes), make_domain(),
                                   DEFAULT_POLICY.with_(falsifier_budget=1000))
    assert isinstance(res, FalsifierResult) and np.isfinite(res.best_defect)
    assert [C is None for C in answers] == [False, False, True]
    assert res.evaluations > 2  # the coordinate descent ran
