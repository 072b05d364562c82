"""Numeric policy: the tolerances and counts that a verb can set.

A field lives here only if a command-line flag or an input key sets it
(the `flags` and `doc_keys` of `cli.VERBS`); a report echoes the fields
its verb sets, with the values it ran with.  Every other number is a
named constant in the module that reads it: `domains.MAX_ITER` = 200,
`maps.INTERIOR_BAND` = 1e-8, `pick.GRID` = 512, `pick.DEGREE_MARGIN` = 4
and `certify.VERIFICATION_GRID` = 1024.  Functions that read the policy take
an optional ``policy`` argument defaulting to DEFAULT_POLICY, so behaviour
is configurable without global mutable state.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericPolicy:
    # band around modulus 1 in the Schur recursion (pick, schur); the
    # circle-root band of the ellipsoid completion is a fixed 1e-8
    unimodular_tol: float = 1e-10
    # points of certify's zero-phase moduli-boundary grid (at most this
    # many), before the zoom refines its best point
    boundary_samples: int = 4096
    # falsifier search control
    falsifier_budget: int = 6000          # objective evaluations at most
    falsifier_margin: float = 1e-6        # defect must beat -margin

    def with_(self, **kw) -> "NumericPolicy":
        return replace(self, **kw)


DEFAULT_POLICY = NumericPolicy()
