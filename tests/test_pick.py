"""Pick matrices, the disc extremality decision, the compact interpolant and the falsifier."""

import numpy as np
import pytest

from geodisc.cplane import BlaschkeProduct, blaschke_degree_of_data
from geodisc.domains import Ellipsoid, Polydisc, minkowski_many
from geodisc.errors import InconsistentDataError, InfeasibleDataError
from geodisc.mapspec import Blaschke, MapSpec, Polynomial
from geodisc.maps import power_pair_map
from geodisc.pick import (INDEFINITE, POSITIVE_DEFINITE, SINGULAR_PSD,
                          PickData, classify_pick, compact_interpolant,
                          disc_weak_extremality, falsify_weak_extremality,
                          pick_matrix, polydisc_test)

from test_cplane import random_blaschke, random_nodes, unit_circle


# ---------------------------------------------------------------------------
# Pick matrix and classification
# ---------------------------------------------------------------------------

def test_pick_matrix_frozen_entries():
    M = pick_matrix(PickData((0.0, 0.5), (0.0, 0.9)))
    want = np.array([[1.0, 1.0], [1.0, 0.19 / 0.75]])
    assert np.max(np.abs(M - want)) < 1e-14


def test_pick_matrix_hermitian():
    rng = np.random.default_rng(301)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        nodes = random_nodes(rng, m)
        vals = tuple(rng.uniform(0, 0.9, size=m) * np.exp(2j * np.pi * rng.uniform(size=m)))
        M = pick_matrix(PickData(nodes, vals))
        assert np.max(np.abs(M - M.conj().T)) < 1e-13


def test_classify_trichotomy():
    # interior data scaled well inside: positive definite
    v = classify_pick(PickData((0.0, 0.4, -0.3 + 0.2j), (0.05, 0.1 - 0.05j, -0.02 + 0.08j)))
    assert v.tag == POSITIVE_DEFINITE
    assert v.null_dim == 0
    assert v.forced_degree is None

    # data of a degree-1 Blaschke product: singular PSD with rank 1
    b = BlaschkeProduct(1.0, (0.3,))
    nodes = (0.0, 0.5, -0.25j)
    v = classify_pick(PickData(nodes, tuple(b(z) for z in nodes)))
    assert v.tag == SINGULAR_PSD
    assert v.rank == 1 and v.null_dim == 2
    assert v.forced_degree == 1

    # the classic infeasible pair
    v = classify_pick(PickData((0.0, 0.5), (0.0, 0.9)))
    assert v.tag == INDEFINITE
    assert v.min_eigenvalue < 0
    assert v.forced_degree is None


def test_classify_blaschke_rank_sweep():
    rng = np.random.default_rng(302)
    for trial in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(d + 1, 8))
        b = random_blaschke(rng, d)
        nodes = random_nodes(rng, m)
        v = classify_pick(PickData(nodes, tuple(b(z) for z in nodes)))
        assert v.tag == SINGULAR_PSD, f"trial {trial}"
        assert v.rank == d and v.null_dim == m - d


def test_disc_weak_extremality_decision():
    b = BlaschkeProduct(1.0, (0.3, -0.4))
    nodes = (0.0, 0.5, 0.25j)
    data = PickData(nodes, tuple(b(z) for z in nodes))
    assert disc_weak_extremality(data)
    assert not disc_weak_extremality(PickData((0.0, 0.5), (0.0, 0.25)))
    with pytest.raises(InconsistentDataError):
        disc_weak_extremality(PickData((0.0, 0.5), (0.0, 0.9)))


# ---------------------------------------------------------------------------
# Compact interpolant
# ---------------------------------------------------------------------------

def test_compact_interpolant_disc_example():
    from geodisc.domains import UnitDisc
    g = MapSpec([Polynomial([0.0, 0.5])])
    h = compact_interpolant(g, UnitDisc(), (0.0, 0.5))
    assert complex(np.asarray(h(0.5))[0]) == pytest.approx(0.25, abs=1e-12)
    assert abs(complex(np.asarray(h(0.0))[0])) < 1e-12


def test_compact_interpolant_matches_and_shrinks():
    dom = Ellipsoid((0.5, 0.5))
    g = MapSpec([Polynomial([0.0, 0.0, 0.3]), Polynomial([0.1, 0.0, 0.0, 0.3])])
    nodes = (0.0, 0.3, -0.4 + 0.1j)
    h = compact_interpolant(g, dom, nodes)
    for z in nodes:
        assert np.max(np.abs(np.asarray(h(z)) - np.asarray(g(z)))) < 1e-9
    zeta = unit_circle(512)
    vals = h.eval_many(zeta)
    assert float(np.max(minkowski_many(dom, vals))) < 1.0


def test_compact_interpolant_requires_compact_image():
    from geodisc.errors import PreconditionError
    dom = Ellipsoid((0.5, 0.5))
    with pytest.raises(PreconditionError):
        compact_interpolant(power_pair_map(3, 0.5), dom, (0.0, 0.3))


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
            comps.append(PickData(nodes, vals))
        got = polydisc_test(comps, m)
        # oracle: recompute the forced degrees one component at a time
        want = any(1 <= blaschke_degree_of_data(c.nodes, c.values) <= m - 1 for c in comps)
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
    data = PickData(tuple(complex(*x) for x in nodes), tuple(complex(*w) for w in values))
    v = classify_pick(data)
    assert v.tag == SINGULAR_PSD and v.rank == 5
    assert polydisc_test([data], 7) is True


def test_polydisc_test_node_count_guard():
    with pytest.raises(ValueError):
        polydisc_test([PickData((0.0, 0.5), (0.0, 0.25))], 3)


# ---------------------------------------------------------------------------
# Falsifier
# ---------------------------------------------------------------------------

def test_falsifier_refutes_strictly_interior_map():
    # (lam/2, 0) misses the ellipsoid boundary, so three-node data cannot be
    # weakly extremal and the search must produce an interior interpolant.
    dom = Ellipsoid((0.5, 0.5))
    f = MapSpec([Polynomial([0.0, 0.5]), Polynomial([0.0])])
    nodes = (0.0, 0.4, -0.4)
    res = falsify_weak_extremality(f, dom, nodes, seed=5)
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
        res = falsify_weak_extremality(f, dom, nodes, budget=1500, seed=trial)
        assert not res.falsified, f"trial {trial}"
        assert res.witness is None
        assert res.best_defect > -1e-6


def test_falsifier_unknown_on_schwarz_rigid_data():
    from geodisc.domains import UnitDisc
    ident = MapSpec([Polynomial([0.0, 1.0])])
    res = falsify_weak_extremality(ident, UnitDisc(), (0.0, 0.5), budget=800, seed=2)
    assert not res.falsified

    diag = MapSpec([Polynomial([0.0, 1.0]), Polynomial([0.0, 1.0])])
    res = falsify_weak_extremality(diag, Polydisc(2), (0.0, 0.5), budget=800, seed=2)
    assert not res.falsified


def test_falsifier_result_status_labels():
    dom = Ellipsoid((0.5, 0.5))
    f = MapSpec([Polynomial([0.0, 0.5]), Polynomial([0.0])])
    res = falsify_weak_extremality(f, dom, (0.0, 0.4, -0.4), seed=5)
    assert res.status == "falsified"
