"""Interpolation feasibility on the disc and falsification of weak extremality.

The Pick matrix of data (nodes, values) has entries
(1 - w_i conj(w_j)) / (1 - lam_i conj(lam_j)).  Its inertia decides the
trichotomy: positive definite (strictly contractive interpolants exist),
singular positive semidefinite (the data forces a Blaschke product whose
degree equals the rank), indefinite (no closed-disc interpolant).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cplane import BlaschkeProduct, blaschke_degree_of_data, lagrange_polynomial
from .domains import Domain, minkowski_many
from .errors import InfeasibleDataError, PreconditionError
from .mapspec import Blaschke, MapSpec, Polynomial, Product, Sum
from .policy import DEFAULT_POLICY, NumericPolicy

# the falsifier's coarse circle grid, and its correction degree cap m + DEGREE_MARGIN
GRID = 512
DEGREE_MARGIN = 4


@dataclass(frozen=True)
class PickData:
    """Distinct disc nodes with closed-disc target values."""

    nodes: tuple
    values: tuple

    def __post_init__(self):
        nodes = tuple(complex(x) for x in self.nodes)
        values = tuple(complex(w) for w in self.values)
        if len(nodes) != len(values) or len(nodes) == 0:
            raise ValueError("nodes and values must be nonempty and aligned")
        if not np.isfinite(nodes + values).all():
            raise ValueError("nodes and values must be finite")
        for x in nodes:
            if abs(x) >= 1:
                raise ValueError("nodes must lie inside the open disc")
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if abs(nodes[i] - nodes[j]) < 1e-8:
                    raise ValueError("nodes must be separated by at least 1e-8")
        for w in values:
            if abs(w) > 1 + 1e-12:
                raise ValueError("values must lie in the closed disc")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.nodes)


POSITIVE_DEFINITE = "positive_definite"
SINGULAR_PSD = "singular_psd"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class PickVerdict:
    """Classification of a Pick matrix by the Schur recursion.

    Degree d below the node count m: singular PSD with rank d, null_dim
    m - d.  d = m: positive definite.  Infeasible: indefinite, with rank and
    null_dim None, as the recursion stops at the first value outside the
    disc.  min_eigenvalue and norm come from eigvalsh, for the report only.
    """

    tag: str
    rank: int | None
    null_dim: int | None
    min_eigenvalue: float
    norm: float

    @property
    def forced_degree(self):
        return self.rank if self.tag == SINGULAR_PSD else None


def pick_matrix(data: PickData) -> np.ndarray:
    lam = np.asarray(data.nodes, dtype=complex)
    w = np.asarray(data.values, dtype=complex)
    num = 1.0 - np.outer(w, np.conj(w))
    den = 1.0 - np.outer(lam, np.conj(lam))
    return num / den


def classify_pick(data: PickData, policy: NumericPolicy = DEFAULT_POLICY) -> PickVerdict:
    eigs = np.linalg.eigvalsh(pick_matrix(data))
    mn, norm = float(eigs[0]), float(np.max(np.abs(eigs)))
    try:
        d = blaschke_degree_of_data(data.nodes, data.values, policy)
    except InfeasibleDataError:
        return PickVerdict(INDEFINITE, None, None, mn, norm)
    m = len(data)
    return PickVerdict(SINGULAR_PSD if d < m else POSITIVE_DEFINITE, d, m - d, mn, norm)


@dataclass(frozen=True)
class FalsifierResult:
    falsified: bool
    witness: MapSpec | None
    best_defect: float
    evaluations: int
    restarts: int

    @property
    def status(self) -> str:
        return "falsified" if self.falsified else "unknown"


def falsify_weak_extremality(f: MapSpec, dom: Domain, nodes,
                             policy: NumericPolicy = DEFAULT_POLICY) -> FalsifierResult:
    """One-sided search for an interpolant with image compactly inside dom.

    Candidates are h = L + B * Q: L the Lagrange interpolant of the sampled
    data, B the Blaschke product vanishing at the nodes, Q a polynomial map of
    degree <= m + DEGREE_MARGIN.  Restart 0 starts from the least-squares
    minimizer of the mean-square boundary values and then runs a Lawson
    (iteratively reweighted least squares) streak, which converges toward the
    minimax interpolant in the candidate space; remaining restarts are random.
    Every stage polishes with coordinate descent on the max circle-grid
    defect.  A grid defect below -falsifier_margin falsifies weak extremality
    at the nodes; otherwise the result is Unknown.  Never claims extremality.
    The policy sets the evaluation budget and the seed of the random restarts.
    f and dom share one dimension, else ValueError; data at the nodes must lie
    in the closed domain (gauge at most 1 + 1e-9), else PreconditionError.
    """
    if f.dim != dom.dim:
        raise ValueError(f"need one dimension: map {f.dim}, domain {dom.dim}")
    nodes = [complex(x) for x in nodes]
    m = len(nodes)
    n = dom.dim
    budget, seed = policy.falsifier_budget, policy.seed
    dmax = m + DEGREE_MARGIN
    ncoef = dmax + 1

    data = np.asarray([f(x) for x in nodes])  # (m, n)
    gauge = float(np.max(minkowski_many(dom, data)))
    if gauge > 1.0 + 1e-9:
        raise PreconditionError(f"the data leave the closed domain: gauge {gauge} at the nodes")
    grid = np.exp(2j * np.pi * np.arange(GRID) / GRID)
    B = BlaschkeProduct(1.0, tuple(nodes))
    Bg = B(grid)
    V = np.vander(grid, ncoef, increasing=True)  # (grid, ncoef)
    Lpolys = [lagrange_polynomial(nodes, data[:, j]) for j in range(n)]
    Lg = np.stack([P(grid) for P in Lpolys], axis=-1)  # (grid, n)

    margin = policy.falsifier_margin
    evals = 0

    def objective(H):
        return float(np.max(dom.defect_many(H)))

    def witness_from(C):
        comps = []
        for j in range(n):
            corr = Product((Blaschke(B), Polynomial(C[:, j])))
            comps.append(Sum((Polynomial(Lpolys[j]), corr)))
        return MapSpec(comps, {"construction": "falsifier_witness", "nodes": [[x.real, x.imag] for x in nodes]})

    # a candidate below the margin on the coarse grid must also clear an
    # independent fine grid (denser and half-step offset) before we claim a
    # witness; sub-grid excursions of the boundary values are caught here
    fine_state = {}

    def confirmed_defect(C):
        if not fine_state:
            k = np.arange(4096)
            fine = np.exp(2j * np.pi * np.concatenate([k, k + 0.5]) / 4096)
            fine_state["B"] = B(fine)
            fine_state["V"] = np.vander(fine, ncoef, increasing=True)
            fine_state["L"] = np.stack([P(fine) for P in Lpolys], axis=-1)
        Hf = fine_state["L"] + fine_state["B"][:, None] * (fine_state["V"] @ C)
        return float(np.max(dom.defect_many(Hf)))

    best_overall = np.inf
    restarts_used = 0
    per_restart = max(200, budget // max(1, policy.falsifier_restarts))
    trigger = -margin

    def attempt(C, cur):
        # confirm on the fine grid; on disagreement, demand twice the depth
        # before trying again so the search is not stuck re-confirming
        nonlocal trigger
        conf = confirmed_defect(C)
        if conf < -margin:
            return FalsifierResult(True, witness_from(C), conf, evals, restarts_used)
        trigger = 2.0 * cur
        return None

    for restart in range(policy.falsifier_restarts):
        if evals >= budget:
            break
        restarts_used += 1
        rng = np.random.default_rng(seed + restart)
        if restart == 0:
            # least-squares pull toward the origin: min sum |L + B V q|^2
            C = np.empty((ncoef, n), dtype=complex)
            for j in range(n):
                target = -Lg[:, j] / Bg
                C[:, j], *_ = np.linalg.lstsq(V, target, rcond=None)
        else:
            C = 0.1 * (rng.standard_normal((ncoef, n)) + 1j * rng.standard_normal((ncoef, n)))

        H = Lg + Bg[:, None] * (V @ C)
        cur = objective(H)
        evals += 1
        best_overall = min(best_overall, cur)
        if cur < trigger:
            hit = attempt(C, cur)
            if hit:
                return hit

        if restart == 0:
            # Lawson streak: reweight grid points by their gauge and re-solve;
            # the weights concentrate on the worst points and the iterates
            # approach the minimax candidate.
            w = np.ones(grid.shape[0])
            prev, stall = cur, 0
            for _ in range(40):
                if evals >= budget:
                    break
                sw = np.sqrt(w)
                A = (sw * Bg)[:, None] * V
                trialC = np.empty_like(C)
                for j in range(n):
                    trialC[:, j], *_ = np.linalg.lstsq(A, -sw * Lg[:, j], rcond=None)
                trialH = Lg + Bg[:, None] * (V @ trialC)
                trial = objective(trialH)
                evals += 1
                if trial < cur:
                    C, H, cur = trialC, trialH, trial
                    if cur < trigger:
                        hit = attempt(C, cur)
                        if hit:
                            return hit
                gauge = minkowski_many(dom, trialH)
                w = w * np.maximum(gauge, 1e-12)
                total = float(w.sum())
                if not np.isfinite(total) or total <= 0:
                    break
                w = w / total
                if prev - trial < 1e-6:
                    stall += 1
                    if stall >= 5:
                        break
                else:
                    stall = 0
                prev = trial
            best_overall = min(best_overall, cur)

        # coordinate descent: the four moves of C[t, j] are scored in one
        # gauge call on stack[k*G:(k+1)*G] = H with column j replaced by
        # trial k.  Trial k is built from what a one-at-a-time scan would
        # hold after undoing moves 0..k-1, so accepting the first improving
        # move leaves H, C and evals exactly as that scan would; the moves
        # after it are scored again from the new H.
        H = np.asfortranarray(H)
        G = grid.shape[0]
        planes = np.empty((n, 4, G), dtype=complex)
        step = 0.25
        while evals < restart * per_restart + per_restart and evals < budget and step > 1e-7:
            improved = False
            for t in range(ncoef):
                col = Bg * V[:, t]
                for j in range(n):
                    deltas = (step, -step, 1j * step, -1j * step)
                    while deltas and evals < budget:
                        deltas = deltas[:budget - evals]
                        K = len(deltas)
                        planes[:, :K] = H.T[:, None, :]
                        S = H[:, j]
                        for k, delta in enumerate(deltas):
                            move = col * delta
                            planes[j, k] = S + move
                            S = planes[j, k] - move
                        stack = planes[:, :K].reshape(n, K * G).T
                        trials = dom.defect_many(stack).reshape(K, G).max(axis=1).tolist()
                        k = next((i for i, trial in enumerate(trials) if trial < cur), K)
                        if k == K:
                            evals += K
                            H[:, j] = S
                            break
                        evals += k + 1
                        cur = trials[k]
                        C[t, j] += deltas[k]
                        H[:, j] = planes[j, k]
                        improved = True
                        if cur < trigger:
                            hit = attempt(C, cur)
                            if hit:
                                return hit
                        deltas = deltas[k + 1:]
                    if evals >= budget:
                        break
                if evals >= budget:
                    break
            best_overall = min(best_overall, cur)
            if not improved:
                step *= 0.5

    return FalsifierResult(False, None, float(best_overall), evals, restarts_used)


def polydisc_test(components, m: int, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """Weak m-extremality in the polydisc from per-component data.

    components: list of PickData, one per coordinate, sampled at the same m
    nodes.  True iff some coordinate's data forces a non-constant Blaschke
    product of degree <= m - 1, i.e. its Pick matrix is singular PSD of rank
    >= 1.  Raises InfeasibleDataError on an indefinite Pick matrix.
    """
    for comp in components:
        if len(comp) != m:
            raise ValueError("each component must be sampled at the m nodes")
        v = classify_pick(comp, policy)
        if v.tag == INDEFINITE:
            raise InfeasibleDataError("indefinite Pick matrix: no closed-disc interpolant")
        if v.tag == SINGULAR_PSD and v.rank >= 1:
            return True
    return False
