"""End-to-end CLI checks: exit codes, report structure, determinism, schemas."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from geodisc import cli
from geodisc.domains import MAX_SAMPLES
from geodisc.maps import MAX_M, edigarian_normalize
from geodisc.policy import NumericPolicy

from test_certify import squared_sum_perturbed
from test_pick import SCHUR_FAULTS


def run_cli(tmp_path, verb, doc, *extra, name="in.json", out="report.json"):
    inp = tmp_path / name
    inp.write_text(json.dumps(doc))
    outp = tmp_path / out
    proc = subprocess.run(
        [sys.executable, "-m", "geodisc.cli", verb,
         "--input", str(inp), "--output", str(outp), *extra],
        capture_output=True, text=True)
    report = json.loads(outp.read_text()) if outp.exists() else None
    return proc, report, outp


# ---------------------------------------------------------------------------
# verb-by-verb exit codes
# ---------------------------------------------------------------------------

def test_pick_indefinite_exits_2(tmp_path):
    proc, report, _ = run_cli(tmp_path, "pick",
                              {"nodes": [[0.0, 0.0], [0.5, 0.0]],
                               "values": [[0.0, 0.0], [0.9, 0.0]]})
    assert proc.returncode == 2
    assert report["result"]["classification"] == "indefinite"
    assert report["result"]["weak_extremal"] == "infeasible"


def test_pick_singular_exits_0(tmp_path):
    # lam at three nodes: forced Moebius interpolant
    nodes = [[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]]
    proc, report, _ = run_cli(tmp_path, "pick", {"nodes": nodes, "values": nodes})
    assert proc.returncode == 0
    assert report["result"]["classification"] == "singular_psd"
    assert report["result"]["forced_degree"] == 1


def test_pick_unimodular_constant_forces_degree_0(tmp_path):
    # the Pick matrix is rounding noise here; the recursion reads degree 0
    doc = {"nodes": [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0]],
           "values": [[0.6, 0.8]] * 4}
    proc, report, _ = run_cli(tmp_path, "pick", doc)
    assert proc.returncode == 0
    result = report["result"]
    assert (result["classification"], result["forced_degree"]) == ("singular_psd", 0)
    assert (result["rank"], result["null_dim"], result["weak_extremal"]) == (0, 4, "true")


@pytest.mark.parametrize("nodes,values", SCHUR_FAULTS, ids=["a", "b"])
def test_schur_near_circle_degree_5(tmp_path, nodes, values):
    proc, report, _ = run_cli(tmp_path, "schur", {"nodes": nodes, "values": values})
    assert proc.returncode == 0
    assert report["result"] == {"degree": 5, "feasible": True}


def test_schur_degree_report(tmp_path):
    proc, report, _ = run_cli(tmp_path, "schur",
                              {"nodes": [[0.0, 0.0], [0.5, 0.0]],
                               "values": [[0.0, 0.0], [0.25, 0.0]]})
    assert proc.returncode == 0
    assert report["result"] == {"degree": 2, "feasible": True}


def test_schur_refuses_nodes_off_the_disc(tmp_path):
    # schur used to answer degree 2 here while pick refused the same file
    doc = {"nodes": [[1.5, 0.0], [0.5, 0.0]], "values": [[0.1, 0.0], [0.2, 0.0]]}
    pick, _, _ = run_cli(tmp_path, "pick", doc, out="pick.json")
    schur, report, _ = run_cli(tmp_path, "schur", doc)
    assert (pick.returncode, schur.returncode, report) == (1, 1, None)
    assert schur.stderr == pick.stderr == "error: nodes must lie inside the open disc\n"


def test_schur_infeasible_exits_2(tmp_path):
    proc, report, _ = run_cli(tmp_path, "schur",
                              {"nodes": [[0.0, 0.0], [0.5, 0.0]],
                               "values": [[0.0, 0.0], [0.9, 0.0]]})
    assert proc.returncode == 2
    assert report["result"]["feasible"] is False


def test_certify_family_instance(tmp_path):
    proc, report, _ = run_cli(tmp_path, "certify",
                              {"family": "squared-sum-triple", "m": 4, "a": 0.3})
    assert proc.returncode == 0
    assert report["result"]["verdict"] == "certified"
    assert report["result"]["certificate"]["residual_composition"] <= 1e-9


def test_certify_refuses_family_without_inverse(tmp_path):
    proc, report, _ = run_cli(tmp_path, "certify",
                              {"family": "power-pair", "m": 4, "a": 0.5})
    assert proc.returncode == 2
    assert report["result"]["verdict"] == "refuted"
    assert report["result"]["slack"] < 0
    assert report["result"]["reason"] == "family 'power-pair' admits no polynomial left inverse"


def test_certify_refuses_ball_power_pair(tmp_path):
    proc, report, _ = run_cli(tmp_path, "certify",
                              {"family": "ball-power-pair", "m": 4, "a": 0.5})
    assert proc.returncode == 2
    assert report["result"] == {
        "verdict": "refuted",
        "reason": "family 'ball-power-pair' admits no polynomial left inverse"}


# the curve (0.6 lam, 0.8 lam^2) is the ball3 normal form at a = 0.6
BALL3_CURVE = {"p": [1.0, 1.0], "a": [0.6, 0.8], "powers": [1, 2]}


@pytest.mark.parametrize("spec,code,error", [
    (BALL3_CURVE, 0, None),
    # on the boundary of |z1|^2 + |z2|^3 < 1
    ({"p": [1.0, 1.5], "a": [0.6, 0.64 ** (1.0 / 3.0)], "powers": [1, 1]}, 0, None),
    # inside the ball: F = z1 + z2 has sup sqrt(2) on the sphere
    ({"p": [1.0, 1.0], "a": [0.5, 0.5], "powers": [1, 1]}, 2, None),
    ({"p": [0.25, 1.0], "a": [0.6, 0.8], "powers": [1, 2]}, 1,
     "error: constraint 2 p_j m_j >= lcm fails at indices [0] (lcm 2)"),
    ({"p": [1.0, 1.0], "a": [0.8, 0.8], "powers": [1, 1]}, 1,
     "error: the map leaves the domain: gauge 1.13137"),
    ({"p": [1.0, 1.0], "a": [0.6, 0.8], "powers": [5, 13]}, 1,
     "error: lcm of the powers is 65; at most 64 is supported"),
], ids=["ball3", "boundary", "inside", "constraint", "outside", "lcm"])
def test_certify_monomial_curve(tmp_path, spec, code, error):
    proc, report, _ = run_cli(tmp_path, "certify", {"monomial_curve": spec}, "--samples", "2000")
    assert proc.returncode == code
    if error is not None:
        assert report is None and proc.stderr.startswith(error)
        return
    cert = report["result"]["certificate"]
    assert cert["verdict"] == {0: "certified", 2: "refuted"}[code]
    assert cert["m"] == math.lcm(*spec["powers"]) + 1
    if spec is BALL3_CURVE:
        _, ball3, _ = run_cli(tmp_path, "certify", {"ball3": {"a": 0.6}}, "--samples", "2000",
                              name="ball3.json", out="ball3_report.json")
        assert cert["left_inverse"] == ball3["result"]["certificate"]["left_inverse"]
        assert cert["boundary_sup_estimate"] == ball3["result"]["certificate"]["boundary_sup_estimate"]


@pytest.mark.parametrize("doc,error", [
    ({"ball3": {"a": 1.0}}, "error: a must lie in [0, 1)\n"),
    ({"ball3": {"a": -0.1}}, "error: a must lie in [0, 1]\n"),
    ({"ball_monomial": {"m": 3, "b": 0.51}}, "error: b out of range (0, 1/2]\n"),
    ({"ball_monomial": {"m": 5, "b": 0.26}}, "error: b out of range (0, 1/4]\n"),
], ids=["ball3-a-1", "ball3-a-negative", "ball-monomial-m3", "ball-monomial-m5"])
def test_certify_ball_forms_refuse_out_of_range(tmp_path, doc, error):
    # the shared monomial-curve formula accepts these; each builder refuses them
    proc, report, _ = run_cli(tmp_path, "certify", doc)
    assert (proc.returncode, report, proc.stderr) == (1, None, error)


def test_certify_refuses_map_leaving_domain(tmp_path):
    # (2 lam, 0) with F = z1 / 2 and B = lam composes exactly and F stays
    # below 1/2 on the sphere, but the map leaves the ball: exit 1, not certified
    doc = {"map": {"components": [{"op": "poly", "coeffs": [[0.0, 0.0], [2.0, 0.0]]},
                                  {"op": "poly", "coeffs": [[0.0, 0.0]]}]},
           "left_inverse": {"terms": [[[0.5, 0.0], [1, 0]]]},
           "blaschke": {"factor": [1.0, 0.0], "zeros": [[0.0, 0.0]]},
           "domain": {"type": "ball", "n": 2}, "m": 2}
    proc, report, _ = run_cli(tmp_path, "certify", doc)
    assert (proc.returncode, report) == (1, None)
    assert proc.stderr.startswith("error: the map leaves the domain: gauge 2.0")


def ball_difference_doc(n):
    # (lam/2, -lam/2, 0, ...) with F = z1 - z2 and B = lam on the ball: F
    # composes exactly, but |F| reaches sqrt(2) on the sphere
    line = lambda c: {"op": "poly", "coeffs": [[0.0, 0.0], [c, 0.0]]}
    unit = lambda j: [int(i == j) for i in range(n)]
    return {"map": {"components": [line(0.5), line(-0.5)] + [line(0.0)] * (n - 2)},
            "left_inverse": {"terms": [[[1.0, 0.0], unit(0)], [[-1.0, 0.0], unit(1)]]},
            "blaschke": {"factor": [1.0, 0.0], "zeros": [[0.0, 0.0]]},
            "domain": {"type": "ball", "n": n}, "m": 2}


@pytest.mark.parametrize("samples", ["100", "4096"])
def test_certify_eight_coordinates_in_bounded_time(tmp_path, samples):
    # seven moduli axes and eight phase axes: a zoom round has at most
    # max(samples, 3**8) points; at 100 samples the grid holds only the
    # coordinate axes, where |F| = 1, so the zoom must leave them to refute
    start = time.perf_counter()
    proc, report, _ = run_cli(tmp_path, "certify", ball_difference_doc(8), "--samples", samples)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    cert = report["result"]["certificate"]
    assert cert["verdict"] == "refuted"
    assert cert["boundary_sup_estimate"] == pytest.approx(math.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("n", [9, 14])
def test_certify_refuses_more_than_eight_coordinates(tmp_path, n):
    proc, report, _ = run_cli(tmp_path, "certify", ball_difference_doc(n))
    assert (proc.returncode, report) == (1, None)
    assert proc.stderr == f"error: need one dimension of at most 8: map {n}, domain {n}, inverse {n}\n"


@pytest.mark.parametrize("m,a", [(3, 0.5), (4, 1.5)])
def test_certify_family_out_of_range_exits_1(tmp_path, m, a):
    # m below the family's minimum or a outside its range is an error, not a refutation
    proc, report, _ = run_cli(tmp_path, "certify", {"family": "ball-power-pair", "m": m, "a": a})
    assert proc.returncode == 1
    assert report is None
    assert proc.stderr == (f"error: family 'ball-power-pair' needs m >= 4, a > 0 and "
                           f"every coefficient positive; got m = {m}, a = {a}\n")


def test_edigarian_completion(tmp_path):
    doc = {"a": [[1.0, 0.0]], "p": [1.0], "alpha": [[[0.5, 0.0]]],
           "r": [[1]], "normalize": True}
    proc, report, _ = run_cli(tmp_path, "edigarian", doc)
    assert proc.returncode == 0
    assert report["result"]["completed"] is True
    assert report["result"]["alpha0"][0] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert report["result"]["residual"] <= 1e-10


def test_ball3_forward_and_inverse(tmp_path):
    proc, report, _ = run_cli(tmp_path, "ball3",
                              {"forward": {"b": 0.7071067811865476, "c": 0.5}})
    assert proc.returncode == 0
    assert report["result"]["alpha_sq"] == pytest.approx(0.6, abs=1e-12)
    assert report["result"]["beta_sq"] == pytest.approx(0.4, abs=1e-12)
    assert report["result"]["gamma"] == pytest.approx([2.0 / 3.0, 0.0], abs=1e-12)

    proc, report, _ = run_cli(tmp_path, "ball3",
                              {"inverse": {"p": 0.4, "q": 2.0 / 3.0}},
                              name="inv.json", out="inv_report.json")
    assert proc.returncode == 0
    assert report["result"]["b"] == pytest.approx(0.7071067811865476, abs=1e-9)
    assert report["result"]["c"] == pytest.approx(0.5, abs=1e-9)
    assert report["result"]["residual"] <= 1e-9


def test_ball3_inverse_outside_the_range_is_unsolved(tmp_path):
    # p and q this close to 1 put the recovered b^2 on 1, outside (0, 1)
    proc, report, _ = run_cli(tmp_path, "ball3",
                              {"inverse": {"p": 0.999999985350286, "q": 0.9999999999999998}})
    assert proc.returncode == 3
    assert report["result"] == {"solved": False, "reason": "recovered b^2 = 1.0 outside (0,1)"}


def test_sn_membership_exit_codes(tmp_path):
    proc, report, _ = run_cli(tmp_path, "sn", {"p": [0.5, 1.5]})
    assert proc.returncode == 2
    assert report["result"] == {"member": False, "reason": "2*min < max"}

    proc, report, _ = run_cli(tmp_path, "sn", {"p": [1.0, 2.0]},
                              name="in2.json", out="rep2.json")
    assert proc.returncode == 0
    assert report["result"]["member"] is True


def test_falsify_from_values(tmp_path):
    # data of (lam/2, 0): comfortably interior, must be falsified
    doc = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
           "values": [[[0.0, 0.0], [0.0, 0.0]],
                      [[0.2, 0.0], [0.0, 0.0]],
                      [[-0.2, 0.0], [0.0, 0.0]]],
           "domain": {"type": "ellipsoid", "p": [0.5, 0.5], "k": [1, 1]}}
    proc, report, _ = run_cli(tmp_path, "falsify", doc)
    assert proc.returncode == 0
    assert report["result"]["status"] == "falsified"
    assert report["result"]["best_defect"] < -1e-6
    assert report["result"]["witness"] is not None


def test_falsify_unknown_on_forced_data(tmp_path):
    # identity data on the first polydisc coordinate is Blaschke-forced
    doc = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
           "values": [[[0.0, 0.0], [0.0, 0.0]],
                      [[0.4, 0.0], [0.0, 0.0]],
                      [[-0.4, 0.0], [0.0, 0.0]]],
           "domain": {"type": "polydisc", "n": 2},
           "budget": 800}
    proc, report, _ = run_cli(tmp_path, "falsify", doc)
    assert proc.returncode == 3
    assert report["result"]["status"] == "unknown"
    assert report["result"]["witness"] is None


def test_falsify_refuses_a_negative_moebius_quotient_power(tmp_path):
    # lam / m_0(lam)**-1 = lam^2; a negative k used to read a wrapped-around
    # Taylor coefficient near alpha (-7.0e14+1.4e15j at 0.01), and the search
    # answered unknown with best_defect 3.15e15 on data lam^2 interpolates
    doc = {"nodes": [[0.01, 0.0], [0.5, 0.0]], "domain": {"type": "unit_disc"}, "budget": 300,
           "map": {"components": [{"op": "moebius_quotient", "alpha": [0, 0], "k": -1,
                                   "inner": {"op": "var"}}]}}
    proc, report, _ = run_cli(tmp_path, "falsify", doc)
    assert proc.returncode == 1
    assert report is None
    assert proc.stderr == "error: integer power must be a nonnegative integer below 64\n"


def test_falsify_report_states_the_budget_it_used(tmp_path):
    # the input's budget and restarts are the policy's; the report used to
    # state the default 6000 evaluations for a 300-evaluation search
    doc = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
           "values": [[[0.0, 0.0], [0.0, 0.0]],
                      [[0.4, 0.0], [0.0, 0.0]],
                      [[-0.4, 0.0], [0.0, 0.0]]],
           "domain": {"type": "polydisc", "n": 2},
           "budget": 300, "restarts": 2}
    proc, report, _ = run_cli(tmp_path, "falsify", doc)
    assert proc.returncode == 3
    assert report["policy"]["falsifier_budget"] == 300
    assert report["policy"]["falsifier_restarts"] == 2
    assert 0 < report["result"]["evaluations"] <= 300


def test_profile_writes_sibling_csv(tmp_path):
    doc = {"family": {"name": "power-pair", "m": 3, "a": 0.5}}
    proc, report, outp = run_cli(tmp_path, "profile", doc)
    assert proc.returncode == 0
    assert report["result"]["almost_proper"] is True
    csv_path = outp.with_suffix(".csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "zeta_re,zeta_im,r,defect"
    assert len(lines) - 1 == report["result"]["csv_rows"]


def test_profile_constant_map_not_proper(tmp_path):
    doc = {"map": {"components": [{"op": "poly", "coeffs": [[0.2, 0.0]]},
                                  {"op": "poly", "coeffs": [[0.1, 0.0]]}]},
           "domain": {"type": "ellipsoid", "p": [0.5, 0.5], "k": [1, 1]}}
    proc, report, _ = run_cli(tmp_path, "profile", doc)
    assert proc.returncode == 2
    assert report["result"]["almost_proper"] is False


def test_profile_refuses_map_leaving_domain(tmp_path):
    # 3 lam leaves the disc at r > 1/3; it used to be called almost proper
    # with max_final_defect 0.0 and gamma_hat -1997
    doc = {"map": {"components": [{"op": "poly", "coeffs": [[0, 0], [3, 0]]}]},
           "domain": {"type": "unit_disc"}}
    proc, report, _ = run_cli(tmp_path, "profile", doc)
    assert (proc.returncode, report) == (1, None)
    assert proc.stderr.startswith("error: map leaves the domain: gauge 2.997")


@pytest.mark.parametrize("data", [
    {"values": [[[0.0, 0.0]], [[1.5, 0.0]]]},
    {"map": {"components": [{"op": "poly", "coeffs": [[0, 0], [3, 0]]}]}},
], ids=["values", "map"])
def test_falsify_refuses_data_outside_the_domain(tmp_path, data):
    # value 1.5 at node 0.5 is off the closed disc; the search used to answer
    # unknown with best_defect 2.0 where pick refuses the same data
    doc = {"nodes": [[0.0, 0.0], [0.5, 0.0]], "domain": {"type": "unit_disc"},
           "budget": 200, **data}
    proc, report, _ = run_cli(tmp_path, "falsify", doc)
    assert (proc.returncode, report) == (1, None)
    assert proc.stderr == "error: the data leave the closed domain: gauge 1.5 at the nodes\n"


def test_family_emits_map_spec(tmp_path):
    proc, report, _ = run_cli(tmp_path, "family",
                              {"name": "power-pair-geodesic", "m": 3, "a": 0.25})
    assert proc.returncode == 0
    assert report["result"]["map"]["meta"]["geodesic"] is True
    assert report["result"]["domain"]["type"] == "ellipsoid"


def test_falsify_refuses_value_rows_longer_than_the_domain(tmp_path):
    # the third coordinate of each row used to be dropped, and the search
    # answered unknown about the first two
    doc = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
           "values": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                      [[0.4, 0.0], [0.0, 0.0], [0.3, 0.0]],
                      [[-0.4, 0.0], [0.0, 0.0], [0.3, 0.0]]],
           "domain": {"type": "ball", "n": 2}, "budget": 200}
    proc, report, _ = run_cli(tmp_path, "falsify", doc)
    assert (proc.returncode, report) == (1, None)
    assert proc.stderr == "error: every value row needs the domain's 2 coordinates\n"


def test_falsify_refuses_fewer_value_rows_than_nodes(tmp_path):
    # the interpolant used to take the value 0 at the third node
    doc = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
           "values": [[[0.0, 0.0], [0.0, 0.0]], [[0.4, 0.0], [0.0, 0.0]]],
           "domain": {"type": "ball", "n": 2}, "budget": 200}
    proc, report, _ = run_cli(tmp_path, "falsify", doc)
    assert (proc.returncode, report) == (1, None)
    assert proc.stderr == "error: 2 values for 3 nodes\n"


# (lam/2, 0, 0.9 lam): three components for a two-dimensional target
THREE_COMPONENTS = {"components": [{"op": "poly", "coeffs": [[0.0, 0.0], [0.5, 0.0]]},
                                   {"op": "poly", "coeffs": [[0.0, 0.0]]},
                                   {"op": "poly", "coeffs": [[0.0, 0.0], [0.9, 0.0]]}]}


@pytest.mark.parametrize("verb,doc", [
    # falsify used to answer falsified (exit 0) from the first two components
    ("falsify", {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]], "map": THREE_COMPONENTS,
                 "domain": {"type": "ball", "n": 2}, "budget": 200}),
    # profile used to write 192 rows of gauges of misread points (exit 2)
    ("profile", {"map": THREE_COMPONENTS, "domain": {"type": "ball", "n": 2}}),
])
def test_map_of_another_dimension_is_refused(tmp_path, verb, doc):
    proc, report, outp = run_cli(tmp_path, verb, doc)
    assert (proc.returncode, report) == (1, None)
    assert proc.stderr == "error: need one dimension: map 3, domain 2\n"
    assert not outp.with_suffix(".csv").exists()


# ---------------------------------------------------------------------------
# every (verb, answer) pair: the answer alone sets the exit code
# ---------------------------------------------------------------------------

def certify_between_bands_doc():
    # item 8's instance at eps = 3e-6: the sup is 1 + 2.4e-7, past the
    # certify band and inside the refute band
    f, F, B, dom, m = squared_sum_perturbed(3e-6)
    return {"map": f.to_json(), "left_inverse": F.to_json(), "blaschke": B.to_json(),
            "domain": dom.to_json(), "m": m}


def edigarian_off_scale_doc():
    # amplitudes doubled past the scale the completion needs
    doc = edigarian_normalize((0.7, 0.9), (1.0, 1.5), ((0.4, 0.2j),), ((1, 0),)).to_json()
    del doc["alpha0"]
    doc["a"] = [[2.0 * re, 2.0 * im] for re, im in doc["a"]]
    return doc


IDENTITY_DATA = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
                 "values": [[[0.0, 0.0], [0.0, 0.0]], [[0.4, 0.0], [0.0, 0.0]],
                            [[-0.4, 0.0], [0.0, 0.0]]],
                 "domain": {"type": "polydisc", "n": 2}, "budget": 300}
HALF_DATA = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
             "values": [[[0.0, 0.0], [0.0, 0.0]], [[0.2, 0.0], [0.0, 0.0]],
                        [[-0.2, 0.0], [0.0, 0.0]]],
             "domain": {"type": "ellipsoid", "p": [0.5, 0.5], "k": [1, 1]}}

# (verb, answer, input, a part of the result that names the case)
ANSWERS = [
    ("pick", "yes", {"nodes": [[0.0, 0.0], [0.3, 0.0]], "values": [[0.0, 0.0], [0.3, 0.0]]},
     {"classification": "singular_psd"}),
    ("pick", "no", {"nodes": [[0.0, 0.0], [0.5, 0.0]], "values": [[0.0, 0.0], [0.2, 0.0]]},
     {"classification": "positive_definite", "weak_extremal": "false"}),
    ("pick", "no", {"nodes": [[0.0, 0.0], [0.5, 0.0]], "values": [[0.0, 0.0], [0.9, 0.0]]},
     {"classification": "indefinite", "weak_extremal": "infeasible"}),
    ("schur", "yes", {"nodes": [[0.0, 0.0], [0.5, 0.0]], "values": [[0.0, 0.0], [0.25, 0.0]]},
     {"feasible": True}),
    ("schur", "no", {"nodes": [[0.0, 0.0], [0.5, 0.0]], "values": [[0.0, 0.0], [0.9, 0.0]]},
     {"feasible": False}),
    ("certify", "yes", {"family": "squared-sum-triple", "m": 4, "a": 0.3}, {"verdict": "certified"}),
    ("certify", "no", ball_difference_doc(2), {"verdict": "refuted"}),
    ("certify", "no", {"family": "power-pair", "m": 4, "a": 0.5}, {"verdict": "refuted"}),
    ("certify", "unknown", certify_between_bands_doc(), {"verdict": "inconclusive"}),
    ("edigarian", "yes", {"a": [[1.0, 0.0]], "p": [1.0], "alpha": [[[0.5, 0.0]]], "r": [[1]],
                          "normalize": True}, {"completed": True}),
    ("edigarian", "no", edigarian_off_scale_doc(), {"completed": False}),
    ("edigarian", "unknown", {"a": [[1.0, 0.0]], "p": [1.0], "alpha": [[[1 - 1e-10, 0.0]]],
                              "r": [[1]], "normalize": True}, {"completed": False}),
    ("ball3", "yes", {"forward": {"b": 0.7071067811865476, "c": 0.5}}, {}),
    ("ball3", "yes", {"inverse": {"p": 0.4, "q": 2.0 / 3.0}}, {"solved": True}),
    ("ball3", "unknown", {"inverse": {"p": 0.999999985350286, "q": 0.9999999999999998}},
     {"solved": False}),
    ("sn", "yes", {"p": [1.0, 2.0]}, {"member": True}),
    ("sn", "no", {"p": [0.5, 1.5]}, {"member": False}),
    ("falsify", "yes", HALF_DATA, {"status": "falsified"}),
    ("falsify", "unknown", IDENTITY_DATA, {"status": "unknown"}),
    ("profile", "yes", {"family": {"name": "power-pair", "m": 3, "a": 0.5}}, {"almost_proper": True}),
    ("profile", "no", {"map": {"components": [{"op": "poly", "coeffs": [[0.2, 0.0]]},
                                              {"op": "poly", "coeffs": [[0.1, 0.0]]}]},
                       "domain": {"type": "ellipsoid", "p": [0.5, 0.5], "k": [1, 1]}},
     {"almost_proper": False}),
    ("family", "yes", {"name": "power-pair-geodesic", "m": 3, "a": 0.25}, {}),
]


@pytest.mark.parametrize("verb,answer,doc,names", ANSWERS,
                         ids=[f"{v}-{a}-{i}" for i, (v, a, _, _) in enumerate(ANSWERS)])
def test_every_answer_has_its_exit_code(tmp_path, verb, answer, doc, names):
    proc, report, _ = run_cli(tmp_path, verb, doc)
    assert proc.returncode == report["exit_code"] == cli.EXIT_CODES[answer]
    assert {key: report["result"][key] for key in names} == names


def test_every_verb_and_answer_is_in_the_table():
    assert {v for v, *_ in ANSWERS} == set(cli.VERBS)
    assert {a for _, a, *_ in ANSWERS} == set(cli.EXIT_CODES)


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_report_echoes_only_the_verbs_own_settings(tmp_path, verb):
    doc = next(doc for v, _, doc, _ in ANSWERS if v == verb)
    inp, outp = tmp_path / "in.json", tmp_path / "report.json"
    inp.write_text(json.dumps(doc))
    cli.main([verb, "--input", str(inp), "--output", str(outp)])
    report = json.loads(outp.read_text())
    row = cli.VERBS[verb]
    assert "seed" not in report
    assert set(report["policy"]) == {*row.flags.values(), *row.doc_keys.values()}


def test_certificate_states_its_grid_without_a_policy(tmp_path):
    proc, report, _ = run_cli(tmp_path, "certify", {"family": "squared-sum-triple", "m": 4, "a": 0.3},
                              "--samples", "777")
    cert = report["result"]["certificate"]
    assert "policy" not in cert
    assert cert["sample_counts"]["boundary"] == report["policy"]["boundary_samples"] == 777


def test_non_json_result_exits_1(tmp_path, monkeypatch, capsys):
    # a numpy scalar that json cannot write is an error, not a traceback
    monkeypatch.setitem(cli.VERBS, "sn", cli.VERBS["sn"]._replace(
        handler=lambda doc, policy: cli.Verdict("yes", {"x": np.float32(0.5)})))
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"p": [1.0, 2.0]}))
    outp = tmp_path / "report.json"
    assert cli.main(["sn", "--input", str(inp), "--output", str(outp)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write report:")
    assert not outp.exists()


# ---------------------------------------------------------------------------
# size limits, checked before anything is allocated
# ---------------------------------------------------------------------------

def test_certify_refuses_samples_past_the_cap(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"family": "squared-sum-triple", "m": 4, "a": 0.3}))
    count = MAX_SAMPLES + 1
    assert cli.main(["certify", "--input", str(inp), "--samples", str(count)]) == 1
    assert capsys.readouterr().err == (
        f"error: boundary sample count must be at most {MAX_SAMPLES}, got {count}\n")


@pytest.mark.parametrize("verb,doc,error", [
    ("family", {"name": "power-pair", "m": MAX_M + 1, "a": 0.5},
     f"family 'power-pair' needs m <= {MAX_M}; got m = {MAX_M + 1}"),
    ("profile", {"family": {"name": "ball-power-pair", "m": MAX_M + 1, "a": 0.5}},
     f"family 'ball-power-pair' needs m <= {MAX_M}; got m = {MAX_M + 1}"),
    ("certify", {"family": "power-pair", "m": MAX_M + 1, "a": 0.5},
     f"family 'power-pair' needs m <= {MAX_M}; got m = {MAX_M + 1}"),
    ("certify", {"family": "power-pair-geodesic", "m": MAX_M + 1, "a": 0.5},
     f"family 'power-pair-geodesic' needs m <= {MAX_M}; got m = {MAX_M + 1}"),
    ("certify", {"ball_monomial": {"m": MAX_M + 1, "b": 1e-5}}, f"need 3 <= m <= {MAX_M}"),
], ids=["family", "profile", "certify-refusal", "certify-family", "certify-ball-monomial"])
def test_family_degree_past_the_cap_is_refused(tmp_path, capsys, verb, doc, error):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    assert cli.main([verb, "--input", str(inp)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("key,value", [("n_rays", 1025), ("n_radii", 257)])
def test_profile_refuses_sizes_past_the_cap(tmp_path, capsys, key, value):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"family": {"name": "power-pair", "m": 3, "a": 0.5}, key: value}))
    assert cli.main(["profile", "--input", str(inp)]) == 1
    assert capsys.readouterr().err == (
        f"error: input does not match the profile schema: {value} is greater than the "
        f"maximum of {value - 1}\n")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_reports_are_byte_identical(tmp_path):
    doc = {"family": "squared-sum-triple", "m": 4, "a": 0.3}
    _, _, out1 = run_cli(tmp_path, "certify", doc, "--samples", "777", out="a.json")
    _, _, out2 = run_cli(tmp_path, "certify", doc, "--samples", "777", out="b.json")
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("doc,samples", [
    ({"ball_monomial": {"m": 4, "b": 1.0 / 3.0}}, "5000"),
    ({"ball3": {"a": 0.6}}, "2000"),
    ({"monomial_curve": {"p": [1.0, 1.5], "a": [0.6, 0.64 ** (1.0 / 3.0)], "powers": [1, 1]}},
     "2000")], ids=["ball_monomial", "ball3", "monomial_curve"])
def test_certify_report_replays_from_its_own_input(tmp_path, doc, samples):
    # replaying a certificate is re-running certify on the report's input
    # with the grid size the report records; certify draws no random numbers
    proc, report, first = run_cli(tmp_path, "certify", doc, "--samples", samples)
    assert proc.returncode == 0
    cert = report["result"]["certificate"]
    assert "seed" not in cert and len(cert["boundary_sup_point"]) == 2
    _, _, again = run_cli(tmp_path, "certify", report["input"],
                          "--samples", str(report["policy"]["boundary_samples"]),
                          name="replay.json", out="replay_report.json")
    assert again.read_bytes() == first.read_bytes()


def test_repeated_in_process_calls_do_not_leak_flags(tmp_path, capsys):
    # main reuses one parser for every call: a flag given to one call must
    # not reach the next, and each report equals a fresh process's bytes
    certify_doc = {"family": "squared-sum-triple", "m": 4, "a": 0.3}
    pick_doc = {"nodes": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]],
                "values": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]]}
    calls = [("certify", certify_doc, ["--samples", "777"]), ("certify", certify_doc, []),
             ("pick", pick_doc, ["--tol", "1e-8"]), ("pick", pick_doc, [])]
    for i, (verb, doc, extra) in enumerate(calls):
        proc, _, fresh = run_cli(tmp_path, verb, doc, *extra, name=f"in{i}.json", out=f"fresh{i}.json")
        mine = tmp_path / f"mine{i}.json"
        code = cli.main([verb, "--input", str(tmp_path / f"in{i}.json"), "--output", str(mine), *extra])
        assert code == proc.returncode
        assert mine.read_bytes() == fresh.read_bytes()
    # a usage error after successful calls still exits 1
    assert cli.main(["pick", "--input", str(tmp_path / "in3.json"), "--seed", "5"]) == 1
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_certify_refuses_sample_counts_below_one(tmp_path, capsys, count):
    # numpy used to fail deep inside the sampler ("zero-size array",
    # "negative dimensions") after the composition check had run
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"family": "squared-sum-triple", "m": 4, "a": 0.3}))
    outp = tmp_path / "report.json"
    assert cli.main(["certify", "--input", str(inp), "--output", str(outp), "--samples", count]) == 1
    assert capsys.readouterr().err == (
        f"error: boundary sample count must be at least 1, got {count}\n")
    assert not outp.exists()


def test_schema_violation_exits_1(tmp_path):
    proc, report, _ = run_cli(tmp_path, "pick", {"nodes": [[0.0, 0.0]]})
    assert proc.returncode == 1
    assert report is None
    assert "schema" in proc.stderr


def test_schema_message_matches_jsonschema_validate(tmp_path, capsys):
    # the cached validator reports the same error that jsonschema.validate raises
    doc = {"nodes": [[0.0, 0.0], [0.5]], "values": "x", "extra": 1}
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, cli._load_schema("pick"))
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    assert cli.main(["pick", "--input", str(inp)]) == 1
    assert capsys.readouterr().err == (
        f"error: input does not match the pick schema: {want.value.message}\n")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_input_exits_1(tmp_path, token):
    # json.load would read these as floats; without the hook NaN values
    # classified as singular_psd and the report held bare NaN tokens
    inp = tmp_path / "in.json"
    inp.write_text('{"nodes": [[0,0],[0.5,0]], "values": [[0,0],[%s,0]]}' % token)
    outp = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "geodisc.cli", "pick", "--input", str(inp), "--output", str(outp)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read input:")
    assert token in proc.stderr
    assert not outp.exists()


def test_non_finite_report_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.VERBS, "sn", cli.VERBS["sn"]._replace(
        handler=lambda doc, policy: cli.Verdict("yes", {"x": float("nan")})))
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"p": [1.0, 2.0]}))
    outp = tmp_path / "report.json"
    assert cli.main(["sn", "--input", str(inp), "--output", str(outp)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write report:")
    assert not outp.exists()


def test_unknown_verb_rejected(tmp_path):
    inp = tmp_path / "x.json"
    inp.write_text("{}")
    proc = subprocess.run(
        [sys.executable, "-m", "geodisc.cli", "frobnicate", "--input", str(inp)],
        capture_output=True, text=True)
    assert proc.returncode == 1  # a usage error; 2 would read as "refuted"
    assert "invalid choice" in proc.stderr


@pytest.mark.parametrize("flag,out", [("--help", "usage: geodisc"), ("--version", f"geodisc {cli.__version__}")])
def test_help_and_version_exit_0(flag, out):
    proc = subprocess.run([sys.executable, "-m", "geodisc.cli", flag],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(out)


def test_report_embeds_policy_and_overrides(tmp_path):
    doc = {"nodes": [[0.0, 0.0], [0.5, 0.0]], "values": [[0.0, 0.0], [0.25, 0.0]]}
    proc, report, _ = run_cli(tmp_path, "pick", doc, "--tol", "1e-8")
    assert proc.returncode in (0, 2)
    assert report["policy"]["unimodular_tol"] == 1e-8
    assert report["verb"] == "pick"
    assert report["input"] == doc
    assert report["exit_code"] == proc.returncode
    # pick draws no random numbers, so the seed override goes to falsify
    doc = {"nodes": [[0.0, 0.0], [0.4, 0.0], [-0.4, 0.0]],
           "values": [[[0.0, 0.0], [0.0, 0.0]], [[0.2, 0.0], [0.0, 0.0]],
                      [[-0.2, 0.0], [0.0, 0.0]]],
           "domain": {"type": "ellipsoid", "p": [0.5, 0.5], "k": [1, 1]}, "budget": 200}
    proc, report, _ = run_cli(tmp_path, "falsify", doc, "--seed", "4",
                              name="f.json", out="f_report.json")
    assert report["policy"]["seed"] == 4


# the policy field each verb's flags set; every other (verb, flag) pair is a usage error
USED_FLAGS = {("pick", "--tol"): ("unimodular_tol", "1e-8", 1e-8),
              ("schur", "--tol"): ("unimodular_tol", "1e-8", 1e-8),
              ("falsify", "--tol"): ("falsifier_margin", "1e-5", 1e-5),
              ("falsify", "--seed"): ("seed", "4", 4),
              ("certify", "--samples"): ("boundary_samples", "500", 500)}


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
@pytest.mark.parametrize("flag", ["--seed", "--samples", "--tol"])
def test_unused_flag_is_a_usage_error(tmp_path, capsys, verb, flag):
    if (verb, flag) in USED_FLAGS:
        field, text, value = USED_FLAGS[(verb, flag)]
        args = cli.build_parser().parse_args([verb, "--input", "x.json", flag, text])
        assert getattr(args, field) == value
        return
    inp = tmp_path / "in.json"
    inp.write_text("{}")
    assert cli.main([verb, "--input", str(inp), flag, "5"]) == 1
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_every_policy_field_is_read():
    # a field nothing reads is a knob that looks live and is not; a flag
    # only writes its field
    src = "".join(p.read_text() for p in Path(cli.__file__).parent.glob("*.py"))
    dead = [f for f in NumericPolicy.__dataclass_fields__ if f"policy.{f}" not in src]
    assert dead == []
    # and a field no flag or input key sets is a fixed number: it belongs
    # in the module that reads it, as a named constant
    settable = {field for verb in cli.VERBS.values()
                for field in (*verb.flags.values(), *verb.doc_keys.values())}
    assert [f for f in NumericPolicy.__dataclass_fields__ if f not in settable] == []


def test_sn_rejects_samples(tmp_path):
    # sn is deterministic; --samples used to be accepted and echoed into its report
    proc, report, _ = run_cli(tmp_path, "sn", {"p": [1.0, 2.0]}, "--samples", "5")
    assert proc.returncode == 1
    assert report is None
    assert "unrecognized arguments: --samples 5" in proc.stderr


def test_numeric_failure_exits_1(tmp_path):
    # nodes off the open disc trip the library guards, not a traceback
    doc = {"nodes": [[1.5, 0.0], [0.5, 0.0]], "values": [[0.1, 0.0], [0.2, 0.0]]}
    proc, report, _ = run_cli(tmp_path, "pick", doc)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_stdout_mode_prints_report(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"p": [1.0, 2.0]}))
    proc = subprocess.run(
        [sys.executable, "-m", "geodisc.cli", "sn", "--input", str(inp)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["member"] is True
