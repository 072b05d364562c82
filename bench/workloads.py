"""Seeded request lists for the three benchmark workloads.

Each request is one `geodisc <verb>` call: a JSON input document, the extra
command-line flags and an `expect` record that tells `checks.py` what a
correct report looks like.  Every input is built here with the benchmark's
own numpy code and the evaluators of `checks.py`, never with geodisc, so the
checks stay independent of the program.  The structure of each list (verbs,
families, degrees, node counts, domains) is fixed; the seed moves only the
numbers inside it, so every seed asks for the same kind and amount of work.
"""
from __future__ import annotations

import numpy as np

from checks import closed_form_gauge, eval_blaschke

WORKLOADS = ("certify", "falsify", "verdict-mix")
FALSIFY_GEOMETRY_SEED = 2014

# Near-circle degree-5 Blaschke data at 7 nodes on which `geodisc schur`
# reports "infeasible" although the data is interpolated by the product
# below.  The recursion pivots on the first node and the final value lands
# 2.7e-8 and 5.8e-8 above modulus 1, far outside the 1e-10 band; pivoting
# first on the fourth (resp. third) node gives degree 5, and `geodisc pick` gets rank 5
# on the same data.  The values are factor * prod m_zero(node).  The data is
# a constant, independent of --seed, so the failure count is the same on
# every run.
SCHUR_FAULTS = (
    {"name": "schur-fault-a", "factor": [0.7733242154682252, 0.6340107710208511],
     "zeros": [[-0.3259204692884293, -0.19536595421207353], [-0.25230083112638924, 0.8245344031757874],
               [-0.7660515407419061, 0.17688090660806077], [-0.8234279895927654, -0.35555087739316027],
               [0.04447042318690159, 0.9457156834316556]],
     "nodes": [[0.10193320943734306, -0.5490614033436312], [0.6203265885769306, -0.3197363202367474],
               [0.8364962655184136, -0.44462224899340014], [-0.32306031773660615, -0.2052228543656809],
               [0.7066081133335764, -0.39445893248399533], [-0.2762398486522826, -0.23627727413263833],
               [-0.009559466999392006, -0.22076810951550502]],
     "values": [[-0.43537536820491457, -0.17661151578549428], [-0.2683405271047024, -0.6843814595203856],
                [-0.3698569874143022, -0.8793957338432307], [-0.005188341127706613, 0.0029893852668624356],
                [-0.33242011868847515, -0.7623774712134563], [-0.03936868500812005, -0.004359568438928904],
                [-0.12228411674047758, -0.1717655191124196]]},
    {"name": "schur-fault-b", "factor": [0.8455957944080942, 0.5338237091768631],
     "zeros": [[0.7886554563536742, -0.466233644330025], [0.05848973511996351, 0.6703090858653062],
               [0.6739362096007439, -0.40128778719022007], [0.42286647106477454, -0.05492962735312257],
               [0.5246683469914895, -0.1568121967685399]],
     "nodes": [[-0.8676595806648874, -0.21447405222290994], [-0.6352289452249628, 0.5452321360422504],
               [-0.3108519249616804, 0.1870009858778238], [-0.3912737431393609, 0.7051135995673238],
               [0.15249867796917776, -0.6506525588116577], [-0.3409780657322406, 0.4849132806550022],
               [-0.17215737372269485, 0.8557971595246324]],
     "values": [[-0.654666669360627, -0.5780185100439237], [-0.6340529611443573, 0.3797936619323895],
                [-0.2899100610959882, -0.010830091680603282], [-0.1999384389460487, 0.5442781701586435],
                [0.32214096531601827, -0.027344923145414507], [-0.273473957402354, 0.24056327292537266],
                [0.3583389040658004, 0.4080236394356249]]},
)


def _pairs(zs) -> list:
    return [[float(z.real), float(z.imag)] for z in np.atleast_1d(zs)]


def _blaschke(factor, zeros, lam):
    return eval_blaschke({"factor": _pairs(factor)[0], "zeros": _pairs(zeros)}, lam)


def _spread(rng, count, rlo, rhi, jitter=0.2):
    """`count` disc points, one per angular sector, radii in [rlo, rhi]."""
    th = 2 * np.pi * (np.arange(count) + rng.uniform() + rng.uniform(-jitter, jitter, count)) / count
    return rng.uniform(rlo, rhi, count) * np.exp(1j * th)


def _blaschke_data(rng, d, m, rlo=0.5, rhi=0.95):
    """Nodes and values of a degree-d Blaschke product, its zeros and the m
    nodes in radius [rlo, rhi].

    Spreading zeros and nodes over angular sectors keeps the pivots of the
    Schur recursion well separated: over 20,000 seeds per (d, m) with
    d <= 5, m = d + 1, the final modulus stays within 2e-12 of 1, fifty times
    inside the 1e-10 band, so no seed trips the near-circle fault.
    """
    zeros = _spread(rng, d, rlo, rhi, jitter=0.5)
    factor = np.exp(2j * np.pi * rng.uniform())
    nodes = _spread(rng, m, rlo, rhi)
    return nodes, _blaschke(factor, zeros, nodes)


def _interior_poly_map(rng, dim, degree, dom, level=0.8):
    """Random polynomial map scaled so its sup gauge on the circle is `level`."""
    coef = rng.standard_normal((degree + 1, dim)) + 1j * rng.standard_normal((degree + 1, dim))
    circle = np.exp(2j * np.pi * (np.arange(8192) + 0.5) / 8192)
    vals = np.vander(circle, degree + 1, increasing=True) @ coef
    return coef * (level / float(np.max(closed_form_gauge(dom, vals))))


def _req(rid, verb, doc, expect, args=(), known_fault=False):
    return {"id": rid, "verb": verb, "doc": doc, "args": list(args),
            "expect": expect, "known_fault": known_fault}


# ---------------------------------------------------------------------------
# certify: acceptance criterion 5 at the default 100,000 boundary samples
# ---------------------------------------------------------------------------

def certify_requests(rng) -> list:
    reqs = []
    for m in (3, 4, 5, 6):
        for a in (0.25, 0.5, 0.75):
            reqs.append(_req(f"power-pair-geodesic m={m} a={a}", "certify",
                             {"family": "power-pair-geodesic", "m": m, "a": a},
                             {"check": "certified"}))
    for m in (4, 5):
        reqs.append(_req(f"squared-sum-triple m={m}", "certify",
                         {"family": "squared-sum-triple", "m": m, "a": 0.3},
                         {"check": "certified"}))
    for m in (5, 6):
        reqs.append(_req(f"semilinear-triple m={m}", "certify",
                         {"family": "semilinear-triple", "m": m, "a": 0.3},
                         {"check": "certified"}))
    for a in (0.0, 0.3, 0.6, 0.9):
        reqs.append(_req(f"ball3 a={a}", "certify", {"ball3": {"a": a}},
                         {"check": "certified"}))
    for m in (3, 4, 5):
        reqs.append(_req(f"ball-monomial m={m}", "certify",
                         {"ball_monomial": {"m": m, "b": 1.0 / (m - 1)}},
                         {"check": "certified"}))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# ---------------------------------------------------------------------------
# falsify: weakly m-extremal data, so every search spends its whole budget
# ---------------------------------------------------------------------------

def falsify_requests(rng) -> list:
    """Twelve searches: polydisc, ball and ellipsoid, m = 2..5 nodes each.

    polydisc: (B(lam), 0.3 lam) with deg B <= m - 1 (criterion 8's sound
    half); B's data at m nodes is extremal in the first coordinate.
    ball, ellipsoid: B(lam) * a for a boundary point a of the (convex)
    domain; the supporting functional at a is a left inverse returning B.

    A search's cost depends on its geometry: how many Lawson steps run
    before they stall differs from one set of zeros and nodes to the next,
    and with random geometry one slot's latency differed by up to 1.8x
    between seeds.  So the zeros, nodes and point moduli are fixed (drawn
    from FALSIFY_GEOMETRY_SEED), and the seed moves only what the search
    is blind to: a rotation of the disc by a multiple of 2 pi / 512, which
    maps the falsifier's 512-point circle grid onto itself, the unimodular
    factor of B and the phases of the boundary point.
    """
    geo = np.random.default_rng(FALSIFY_GEOMETRY_SEED)
    reqs = []
    # deg B for m = 2, 3, 4, 5: both extremes, 1 and m - 1, on every domain
    kinds = (("polydisc", {"type": "polydisc", "n": 2}, (1, 2, 1, 4)),
             ("ball", {"type": "ball", "n": 2}, (1, 1, 3, 1)),
             ("ellipsoid", {"type": "ellipsoid", "p": [1.0, 2.0]}, (1, 2, 1, 4)))
    for kind, dom, degrees in kinds:
        for m, d in zip((2, 3, 4, 5), degrees):
            zeros = _spread(geo, d, 0.05, 0.72, jitter=0.5)
            nodes = _spread(geo, m, 0.1, 0.7)
            if kind == "ellipsoid":
                s = geo.uniform(0.2, 0.8)   # |a1|^2 + |a2|^4 = 1 on {|z1|^2 + |z2|^4 < 1}
                moduli = np.array([np.sqrt(s), (1.0 - s) ** 0.25])
            else:
                u = np.abs(geo.standard_normal(2))
                moduli = u / np.linalg.norm(u)
            turn = np.exp(2j * np.pi * rng.integers(512) / 512)
            zeros, nodes = zeros * turn, nodes * turn
            b = _blaschke(np.exp(2j * np.pi * rng.uniform()), zeros, nodes)
            if kind == "polydisc":
                values = np.stack([b, 0.3 * nodes], axis=1)
            else:
                values = b[:, None] * (moduli * np.exp(2j * np.pi * rng.uniform(size=2)))[None, :]
            reqs.append(_req(f"{kind} m={m} d={d}", "falsify",
                             {"nodes": _pairs(nodes), "values": [_pairs(v) for v in values],
                              "domain": dom},
                             {"check": "unknown"}))
    return reqs


# ---------------------------------------------------------------------------
# verdict-mix: small requests across the verbs
# ---------------------------------------------------------------------------

PROFILE_FAMILIES = (("power-pair", 3, (0.2, 0.8)), ("squared-sum-triple", 4, (0.1, 0.45)),
                    ("semilinear-triple", 5, (0.1, 0.6)), ("ball-power-pair", 4, (0.2, 0.8)))
SN_VALUES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0)


def verdict_mix_requests(rng) -> list:
    reqs = []
    for d in range(1, 6):
        nodes, values = _blaschke_data(rng, d, d + 2)
        reqs.append(_req(f"pick blaschke d={d}", "pick",
                         {"nodes": _pairs(nodes), "values": _pairs(values)},
                         {"check": "pick", "tag": "singular_psd", "rank": d}))
        nodes, values = _blaschke_data(rng, d, d + 1)
        reqs.append(_req(f"schur blaschke d={d}", "schur",
                         {"nodes": _pairs(nodes), "values": _pairs(values)},
                         {"check": "schur", "degree": d}))
    for k in range(2):
        nodes, values = _blaschke_data(rng, 3, 5, rlo=0.2, rhi=0.8)
        reqs.append(_req(f"pick interior {k}", "pick",
                         {"nodes": _pairs(nodes), "values": _pairs(0.8 * values)},
                         {"check": "pick", "tag": "positive_definite"}))
    for fault in SCHUR_FAULTS:
        data = {"nodes": fault["nodes"], "values": fault["values"]}
        reqs.append(_req(f"pick {fault['name']}", "pick", data,
                         {"check": "pick", "tag": "singular_psd", "rank": 5}))
        reqs.append(_req(f"schur {fault['name']}", "schur", data,
                         {"check": "schur", "degree": 5}, known_fault=True))
    for n in (2, 3, 3, 4):
        p = [float(v) for v in rng.choice(SN_VALUES, size=n)]
        reqs.append(_req(f"sn {p}", "sn", {"p": p}, {"check": "sn"}))
    for k in range(2):
        b, c = float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.2, 0.9))
        b2 = b * b
        # p = -m_{b^2}(b^2 c^2) and q = m_{-c}(b^2 c): the defining relations
        p = float(-(b2 * c * c - b2) / (1.0 - b2 * b2 * c * c))
        q = float((b2 * c + c) / (1.0 + b2 * c * c))
        reqs.append(_req(f"ball3 forward {k}", "ball3", {"forward": {"b": b, "c": c}},
                         {"check": "ball3_forward", "beta_sq": p, "gamma": q}))
        reqs.append(_req(f"ball3 inverse {k}", "ball3", {"inverse": {"p": p, "q": q}},
                         {"check": "ball3_inverse", "b": b, "c": c}))
    family_params = {"power-pair": (3, 7, (0.1, 0.9)), "power-pair-geodesic": (3, 7, (0.1, 0.9)),
                     "squared-sum-triple": (4, 7, (0.05, 0.45)),
                     "semilinear-triple": (5, 8, (0.05, 0.65)), "ball-power-pair": (4, 7, (0.1, 0.9))}
    for name, (mlo, mhi, (alo, ahi)) in family_params.items():
        m, a = int(rng.integers(mlo, mhi)), float(rng.uniform(alo, ahi))
        reqs.append(_req(f"family {name}", "family", {"name": name, "m": m, "a": a},
                         {"check": "family"}))
    for name, m, (alo, ahi) in PROFILE_FAMILIES:
        a = float(rng.uniform(alo, ahi))
        reqs.append(_req(f"profile {name}", "profile", {"family": {"name": name, "m": m, "a": a}},
                         {"check": "profile", "almost_proper": True}))
    c = rng.uniform(0.1, 0.5, 2) * np.exp(2j * np.pi * rng.uniform(size=2)) / np.sqrt(2)
    reqs.append(_req("profile interior constant", "profile",
                     {"map": {"components": [{"op": "const", "value": v} for v in _pairs(c)]},
                      "domain": {"type": "ball", "n": 2}},
                     {"check": "profile", "almost_proper": False}))
    for name, m in (("power-pair", 4), ("ball-power-pair", 5)):
        a = float(rng.uniform(0.1, 0.9))
        reqs.append(_req(f"certify refused {name}", "certify", {"family": name, "m": m, "a": a},
                         {"check": "refuted", "slack": a * a - a if name == "power-pair" else None}))
    geodesics = (("power-pair-geodesic", 4, (0.1, 0.9)), ("squared-sum-triple", 5, (0.05, 0.45)),
                 ("semilinear-triple", 6, (0.05, 0.65)))
    for name, m, (alo, ahi) in geodesics:
        reqs.append(_req(f"certify {name} small", "certify",
                         {"family": name, "m": m, "a": float(rng.uniform(alo, ahi))},
                         {"check": "certified"}, args=("--samples", "2000")))
    reqs.append(_req("certify ball3 small", "certify", {"ball3": {"a": float(rng.uniform(0.0, 0.9))}},
                     {"check": "certified"}, args=("--samples", "2000")))
    interior = ({"type": "polydisc", "n": 2}, {"type": "ball", "n": 2},
                {"type": "ellipsoid", "p": [0.75, 0.75]})
    for dom in interior:
        coef = _interior_poly_map(rng, 2, 3, dom)
        nodes = _spread(rng, 3, 0.1, 0.7)
        values = np.vander(nodes, 4, increasing=True) @ coef
        reqs.append(_req(f"falsify interior {dom['type']}", "falsify",
                         {"nodes": _pairs(nodes), "values": [_pairs(v) for v in values],
                          "domain": dom},
                         {"check": "falsified"}))
    return reqs


REQUEST_LISTS = {"certify": certify_requests, "falsify": falsify_requests,
                 "verdict-mix": verdict_mix_requests}


def build(workload: str, seed: int) -> list:
    """The request list of `workload` for `seed`; same seed, same list."""
    key = WORKLOADS.index(workload)
    return REQUEST_LISTS[workload](np.random.default_rng([int(seed) & 0xFFFFFFFF, key]))
