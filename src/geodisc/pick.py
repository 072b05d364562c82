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

from .cplane import BlaschkeProduct, blaschke_degree_of_data, disc_data, lagrange_polynomial
from .domains import Domain, minkowski_many
from .errors import InfeasibleDataError, PreconditionError
from .mapspec import Blaschke, MapSpec, Polynomial, Product, Sum
from .policy import DEFAULT_POLICY, NumericPolicy

# the falsifier's coarse circle grid, its correction degree cap m + DEGREE_MARGIN,
# and the number of worst grid points at which its coordinate descent screens moves
GRID = 512
DEGREE_MARGIN = 4
SCREEN = 16


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


def pick_matrix(nodes, values) -> np.ndarray:
    lam, w = disc_data(nodes, values)
    num = 1.0 - np.outer(w, np.conj(w))
    den = 1.0 - np.outer(lam, np.conj(lam))
    return num / den


def classify_pick(nodes, values, policy: NumericPolicy = DEFAULT_POLICY) -> PickVerdict:
    """The verdict on data (nodes, values); ValueError on data that `disc_data` refuses.
    A value off the closed disc makes the Pick matrix indefinite."""
    eigs = np.linalg.eigvalsh(pick_matrix(nodes, values))
    mn, norm = float(eigs[0]), float(np.max(np.abs(eigs)))
    try:
        d = blaschke_degree_of_data(nodes, values, policy)
    except InfeasibleDataError:
        return PickVerdict(INDEFINITE, None, None, mn, norm)
    m = len(nodes)
    return PickVerdict(SINGULAR_PSD if d < m else POSITIVE_DEFINITE, d, m - d, mn, norm)


def grid_lsq(w, L, B, ncoef):
    """C of shape (ncoef, n) minimizing sum_g w_g |L_g + B_g (V C)_g|^2 on the GRID-point circle
    zeta_g, V[g, a] = zeta_g^a; None when the normal matrix has cond above 1e10 or is tiny.
    V's columns are Fourier modes, so T[a, b] = sum_g w_g |B_g|^2 zeta_g^(b - a) is Toeplitz from
    one FFT of w |B|^2, and the right side is one FFT of w conj(B) L: exact on the grid for any B."""
    f = np.fft.fft(w * (B.real ** 2 + B.imag ** 2))
    k = np.arange(ncoef)
    T = f[np.subtract.outer(k, k) % GRID]  # f[a - b] = conj(f[b - a]), f of a real vector
    ev = np.linalg.eigvalsh(T)
    if not ev[0] > 1e-10 * ev[-1] > 1e-290:  # else singular, or its pivots could be subnormal
        return None
    return np.linalg.solve(T, -np.fft.fft((w * np.conj(B))[:, None] * L, axis=0)[:ncoef])


@dataclass(frozen=True)
class FalsifierResult:
    falsified: bool
    witness: MapSpec | None
    best_defect: float
    evaluations: int

    @property
    def status(self) -> str:
        return "falsified" if self.falsified else "unknown"


def falsify_weak_extremality(nodes, values, dom: Domain,
                             policy: NumericPolicy = DEFAULT_POLICY) -> FalsifierResult:
    """One-sided search for an interpolant of the data (nodes, values) with image
    compactly inside dom; values has shape (m, n), a row per node.

    Candidates are h = L + B * Q: L the Lagrange interpolant of the data, B
    the Blaschke product vanishing at the nodes, Q a polynomial map of degree
    <= m + DEGREE_MARGIN.  One deterministic descent starts from the
    least-squares minimizer of the mean-square boundary values, runs a Lawson
    (iteratively reweighted least squares) streak, which converges toward the
    minimax interpolant in the candidate space, and polishes with coordinate
    descent on the max circle-grid defect until its step falls below 1e-7 or
    the policy's evaluation budget is spent.  A grid defect below
    -falsifier_margin falsifies weak extremality at the nodes; otherwise the
    result is Unknown.  Never claims extremality.  A value row without dom's
    n coordinates, or data that `disc_data` refuses, raise ValueError; data
    outside the closed domain (gauge above 1 + 1e-9), PreconditionError.
    """
    n = dom.dim
    if any(len(row) != n for row in values):
        raise ValueError(f"every value row needs the domain's {n} coordinates")
    nodes, data = disc_data(nodes, values)  # (m,), (m, n)
    budget = policy.falsifier_budget
    ncoef = len(nodes) + DEGREE_MARGIN + 1

    gauge = float(np.max(minkowski_many(dom, data)))
    if gauge > 1.0 + 1e-9:
        raise PreconditionError(f"the data leave the closed domain: gauge {gauge} at the nodes")
    B = BlaschkeProduct(1.0, tuple(nodes))
    L = [Polynomial(lagrange_polynomial(nodes, data[:, j])) for j in range(n)]

    def space(lam):
        """The candidate space at the points lam: h = L + B (V @ C) there."""
        return (np.stack([Lj(lam) for Lj in L], axis=-1), B(lam),  # (points, n), (points,)
                np.vander(lam, ncoef, increasing=True))  # (points, ncoef)

    Lg, Bg, V = space(np.exp(2j * np.pi * np.arange(GRID) / GRID))
    evals = 0

    def descent():
        """Yield (C, coarse-grid defect) at the start and after each accepted move."""
        nonlocal evals
        # least-squares pull toward the origin: min sum |L + B V q|^2, T = GRID I
        C = grid_lsq(np.ones(GRID), Lg, Bg, ncoef)
        H = Lg + Bg[:, None] * (V @ C)
        cur = float(np.max(dom.defect_many(H)))
        evals += 1
        yield C, cur

        # Lawson streak: reweight grid points by their gauge and re-solve; the
        # weights concentrate on the worst points and the iterates approach the
        # minimax candidate, until the weighted problem is too ill-conditioned.
        w = np.ones(GRID)
        prev, stall = cur, 0
        for _ in range(40):
            if evals >= budget:
                break
            trialC = grid_lsq(w, Lg, Bg, ncoef)
            if trialC is None:
                break
            trialH = Lg + Bg[:, None] * (V @ trialC)
            A = np.abs(trialH)
            trial = float(np.max(dom.defect_many(A)))
            evals += 1
            if trial < cur:
                C, H, cur = trialC, trialH, trial
                yield C, cur
            w = w * np.maximum(minkowski_many(dom, A), 1e-12)
            total = float(w.sum())
            if not np.isfinite(total) or total <= 0:
                break
            w = w / total
            stall = stall + 1 if prev - trial < 1e-6 else 0
            if stall >= 5:
                break
            prev = trial

        # coordinate descent: the four moves (+-step, +-i step) of C[t, j] are scored
        # in one gauge call on stack[k*G:(k+1)*G] = |H| with column j plus move k (Am = |H|
        # is kept, so only the moved column takes a modulus).  The first improving move
        # is taken and counts k + 1 evaluations, as a one-at-a-time scan would; the moves
        # after it are scored again from the new H.  A rejected move leaves H untouched.
        # Before that, a screen scores every move left in the sweep at the
        # SCREEN points where H is worst.  The defect goes row by row, so a
        # screened value has the bits of the full scoring there: a block whose
        # every move is no better than cur at some screened point is rejected
        # unscored, as the full scoring would reject it (a NaN is scored in full).
        H = np.asfortranarray(H)
        Am = np.abs(H)
        worst = dom.defect_many(Am)
        BV = Bg[:, None] * V
        planes = np.empty((n, 4, GRID))

        def screen(t0):
            """[t - t0][j][k]: move k of C[t, j] is no better than cur at a screened point."""
            top = np.argpartition(worst, GRID - SCREEN)[GRID - SCREEN:]
            Z = np.empty((ncoef - t0, n, 4, SCREEN, n))
            Z[...] = Am[top]
            M = deltas[:, None] * BV[top, t0:].T[:, None, :]  # (t, k, point)
            for j in range(n):
                Z[:, j, :, :, j] = np.abs(H[top, j] + M)
            return (dom.defect_many(Z.reshape(-1, n)).reshape(Z.shape[:4]).max(axis=3) >= cur).tolist()

        step = 0.25
        while evals < budget and step > 1e-7:
            improved = False
            deltas = np.array([step, -step, 1j * step, -1j * step])
            t0, scr = 0, screen(0)
            for t in range(ncoef):
                moves = None
                for j in range(n):
                    k0 = 0
                    while k0 < 4 and evals < budget:
                        K = min(4 - k0, budget - evals)
                        if all(scr[t - t0][j][k0:k0 + K]):
                            evals += K
                            break
                        if moves is None:
                            moves = np.multiply.outer(deltas, BV[:, t])  # (4, G)
                        planes[:, :K] = Am.T[:, None, :]
                        moved = H[:, j] + moves[k0:k0 + K]
                        np.abs(moved, out=planes[j, :K])
                        stack = planes[:, :K].reshape(n, K * GRID).T
                        defects = dom.defect_many(stack).reshape(K, GRID)
                        trials = defects.max(axis=1).tolist()
                        k = next((i for i, trial in enumerate(trials) if trial < cur), K)
                        evals += min(k + 1, K)
                        if k == K:
                            break
                        cur, worst = trials[k], defects[k]
                        C[t, j] += deltas[k0 + k]
                        H[:, j], Am[:, j] = moved[k], planes[j, k]
                        improved = True
                        yield C, cur
                        k0 += k + 1
                        t0, scr = t, screen(t)
                    if evals >= budget:
                        return
            if not improved:
                step *= 0.5

    # a coarse-grid candidate below the trigger must also clear an independent
    # fine grid (denser, half-step offset) to be a witness, which catches sub-grid
    # excursions; on disagreement the trigger doubles, so the search is not
    # stuck re-confirming
    margin = policy.falsifier_margin
    trigger, fine = -margin, None
    for C, cur in descent():
        if cur >= trigger:
            continue
        if fine is None:
            k = np.arange(4096)
            fine = space(np.exp(2j * np.pi * np.concatenate([k, k + 0.5]) / 4096))
        Lf, Bf, Vf = fine
        confirmed = float(np.max(dom.defect_many(Lf + Bf[:, None] * (Vf @ C))))
        if confirmed < -margin:
            witness = MapSpec([Sum((L[j], Product((Blaschke(B), Polynomial(C[:, j]))))) for j in range(n)],
                              {"construction": "falsifier_witness", "nodes": [[x.real, x.imag] for x in nodes]})
            return FalsifierResult(True, witness, confirmed, evals)
        trigger = 2.0 * cur
    return FalsifierResult(False, None, cur, evals)


def polydisc_test(nodes, values, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """Weak m-extremality in the polydisc from data at m nodes.

    values: shape (m, n), a row per node and a column per coordinate.  True
    iff some coordinate's data forces a non-constant Blaschke product of
    degree <= m - 1, i.e. its Pick matrix is singular PSD of rank >= 1.
    Raises InfeasibleDataError on an indefinite Pick matrix.
    """
    return any(1 <= blaschke_degree_of_data(nodes, column, policy) < len(nodes)
               for column in np.asarray(values, dtype=complex).T)
