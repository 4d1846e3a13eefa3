"""Exact candidate pre-screen for adaptive OLS-KL.

Before OLS-KL spends any union trial, the pre-screen drops candidates
that are *dominated*: their best possible ``P(B)`` cannot beat a lower
bound already certain for some other candidate.  Both sides use the
candidate-relative semantics of Lemma VI.5 — exactly the quantity the
Karp-Luby estimator certifies.

For candidate ``j`` with existence probability ``E_j = Pr[E(B_j)]``:

- ``P(B_j) ≤ E_j``: a butterfly cannot be maximum without existing.
- ``P(B_j) ≥ E_j − M_j`` with ``M_j = Σ_{i: w_i > w_j} E_i``, the
  existence mass of the strictly heavier candidates: ``B_j`` is
  blocked only when some heavier candidate exists, which has
  probability at most ``M_j`` by a union bound.

A candidate is dropped iff ``E_j`` falls below ``L* = max_j (E_j −
M_j)``.  Both bounds are exact functions of ``C_MB``: the pass draws
nothing and cannot fail, so it spends none of the run's δ, and a
resumed run recomputes the same outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.candidates import CandidateSet

# Unused here; bound because the service benchmark's traced pass wraps it.
from ..kernels.wedge_block import build_wedge_index  # noqa: F401


@dataclass
class PrescreenReport:
    """Outcome of one pre-screen pass.

    Attributes:
        eliminated: Candidate indices (into the weight-sorted candidate
            order) dropped as dominated.
        lower_bounds: Per-candidate lower bounds ``max(0, E_j − M_j)``
            on ``P(B_j)`` (candidate order).
    """

    eliminated: List[int]
    lower_bounds: List[float]


def prescreen_candidates(candidates: CandidateSet) -> PrescreenReport:
    """Drop the candidates of ``C_MB`` (weight-sorted) that the
    candidate-prefix bound dominates."""
    existence = [
        candidates.existence_probability(i) for i in range(len(candidates))
    ]
    # Candidates are weight-sorted, so the strictly heavier ones are a
    # prefix and their mass a prefix sum.
    prefix = [0.0]
    for value in existence:
        prefix.append(prefix[-1] + value)
    lower_bounds = [
        max(0.0, value - prefix[candidates.heavier_count(i)])
        for i, value in enumerate(existence)
    ]
    best_lower = max(lower_bounds, default=0.0)
    return PrescreenReport(
        eliminated=[
            i for i, value in enumerate(existence) if value < best_lower
        ],
        lower_bounds=lower_bounds,
    )
