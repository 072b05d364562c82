"""Global numeric policy: every tolerance, grid size and seed in one record.

Functions take an optional ``policy`` argument defaulting to DEFAULT_POLICY,
so behaviour is configurable without global mutable state.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict, replace


@dataclass(frozen=True)
class NumericPolicy:
    # band around modulus 1 in the Schur recursion (pick, schur); the
    # circle-root band of the ellipsoid completion is a fixed 1e-8
    unimodular_tol: float = 1e-10
    # dead band around gauge value 1 for interior/boundary classification
    interior_band: float = 1e-8
    # circle grids: construction-time and verification-time
    construction_grid: int = 512
    verification_grid: int = 1024
    # number of pseudo-random boundary samples for sampled sup bounds:
    # seeded Gaussian directions normalised to gauge 1
    boundary_samples: int = 100_000
    # iteration cap for gauge evaluation (Newton, bisection)
    bisection_max_iter: int = 200
    # falsifier search control
    falsifier_degree_margin: int = 4      # correction degree cap: m + margin
    falsifier_budget: int = 6000          # objective evaluations, all restarts
    falsifier_restarts: int = 3
    falsifier_margin: float = 1e-6        # defect must beat -margin
    # default RNG seed for sampled bounds
    seed: int = 12345

    def to_json(self) -> dict:
        return asdict(self)

    def with_(self, **kw) -> "NumericPolicy":
        return replace(self, **kw)


DEFAULT_POLICY = NumericPolicy()
