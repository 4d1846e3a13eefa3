"""Sublinear candidate pre-screen over the wedge-CSR index.

Before OLS/OLS-KL spends any sampling budget, the pre-screen drops
candidates that are *dominated*: their best possible ``P(B)`` cannot
beat a certified lower bound already held by some other candidate.  Both
sides of the comparison use the candidate-relative semantics of
Lemma VI.5 — exactly the quantity the downstream estimators certify.

For candidate ``j`` with existence probability ``E_j = Pr[E(B_j)]``:

- ``P(B_j) ≤ E_j`` is a free upper bound (a butterfly cannot be maximum
  without existing).
- ``P(B_j) ≥ E_j − M_j`` where ``M_j`` upper-bounds the probability
  mass of strictly heavier butterflies: conditioned on ``E(B_j)``, the
  probability that some heavier butterfly exists is at most
  ``μ_≥(w_j) / Pr[E(B_j)]``, so
  ``P(B_j) = Pr[E(B_j)]·Pr[no heavier | E(B_j)] ≥ E_j − μ_≥(w_j)``.

``M_j`` is the *smaller* of two sound bounds:

1. the exact heavier mass **within the candidate set**
   (``Σ_{i: w_i > w_j} E_i`` over the weight-sorted prefix — free,
   candidate-relative), and
2. a sampled upper bound on the heavier mass over the **whole graph**,
   estimated in sublinear time by drawing uniform wedge *pairs* from
   the existing wedge-CSR index (the per-wedge sampling template of
   "Efficient Butterfly Counting for Large Bipartite Networks" /
   "Approximate Butterfly Counting in Sublinear Time"): with ``T``
   same-group wedge pairs overall, the estimator ``T·p(pair)·1[weight
   above threshold]`` is unbiased for ``μ_≥`` and an
   empirical-Bernstein upper limit at the pre-screen's δ-share makes
   it one-sided safe.

A candidate is dropped iff its upper bound ``E_j`` falls below the best
certified lower bound ``L* = max_j (E_j − M_j)``.  Sampling ties are
counted as heavier, which can only inflate ``M_j`` — the elimination
rule stays sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.candidates import CandidateSet
from ..kernels.wedge_block import WedgeIndex, build_wedge_index
from ..observability import Observer, ensure_observer
from ..sampling import RngLike, ensure_rng
from .intervals import EBInterval, split_delta

#: Relative slack when classifying a sampled butterfly as heavier than a
#: candidate threshold: the wedge index stores per-wedge weight sums, so
#: a butterfly weight re-associates the four edge weights differently
#: than the candidate's canonical sum.  Ties never block (blocking is
#: strictly heavier), so counting near-ties as heavier only inflates the
#: upper bound — the safe direction.
WEIGHT_RTOL = 1e-9


@dataclass
class PrescreenReport:
    """Outcome of one pre-screen pass.

    Attributes:
        survivors: Candidate indices (into the weight-sorted candidate
            order) that remain in play.
        eliminated: Candidate indices dropped as dominated.
        n_samples: Wedge-pair samples actually drawn (0 when the graph
            has fewer than two same-group wedges or sampling was
            disabled).
        best_lower: The certified lower bound ``L*`` the elimination
            rule compared against.
        lower_bounds: Per-candidate certified lower bounds
            ``E_j − M_j`` (candidate order).
    """

    survivors: List[int]
    eliminated: List[int]
    n_samples: int
    best_lower: float
    lower_bounds: List[float] = field(default_factory=list)


def _decode_pairs(
    offsets: np.ndarray, sizes: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Map flat pair offsets to (first, second) wedge slots per group.

    Pairs ``(i, j)`` with ``i < j`` inside a group of ``k`` wedges are
    enumerated row-major: row ``i`` contributes ``k−1−i`` pairs, so the
    pairs preceding row ``i`` number ``S(i) = i·(2k−i−1)/2``.  The row
    is recovered from the quadratic inverse and nudged to absorb float
    rounding; the column is the remaining offset.
    """
    k = sizes.astype(np.float64)
    disc = (2.0 * k - 1.0) ** 2 - 8.0 * offsets.astype(np.float64)
    disc = np.maximum(disc, 0.0)
    first = np.floor(((2.0 * k - 1.0) - np.sqrt(disc)) / 2.0).astype(np.int64)
    first = np.clip(first, 0, sizes - 2)

    def before(i: np.ndarray) -> np.ndarray:
        return i * (2 * sizes - i - 1) // 2

    # One correction step in each direction covers sqrt rounding error.
    first = np.where(before(first) > offsets, first - 1, first)
    first = np.where(
        (first + 1 <= sizes - 2) & (before(first + 1) <= offsets),
        first + 1,
        first,
    )
    second = first + 1 + (offsets - before(first))
    return first, second


def _pair_slots(
    index: WedgeIndex, draws: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Scan positions ``(a, b)`` of the wedge pairs numbered ``draws``.

    Every same-group pair of the index's scan groups (which are all the
    groups of two or more wedges, so the pairs are the graph's
    butterflies) is numbered once: group by group in scan order,
    row-major inside a group.  A uniform draw over
    ``range(total pairs)`` is therefore a uniform draw over the pairs.
    """
    sizes = np.diff(index.scan_start)
    pair_counts = sizes * (sizes - 1) // 2
    cumulative = np.cumsum(pair_counts)
    groups = np.searchsorted(cumulative, draws, side="right")
    offsets = draws - (cumulative[groups] - pair_counts[groups])
    first, second = _decode_pairs(offsets, sizes[groups])
    base = index.scan_start[groups]
    return base + first, base + second


def prescreen_candidates(
    candidates: CandidateSet,
    rng: RngLike = None,
    n_samples: int = 2048,
    delta: float = 0.025,
    wedge_index: Optional[WedgeIndex] = None,
    observer: Optional[Observer] = None,
) -> PrescreenReport:
    """Drop dominated candidates before any estimator runs.

    Args:
        candidates: The weight-sorted candidate set ``C_MB``.
        rng: Seed or generator for the wedge-pair draws.
        n_samples: Wedge-pair samples for the full-graph heavier-mass
            bound (0 disables sampling; the exact candidate-prefix
            bound still applies).
        delta: Failure budget of the pre-screen's sampled bounds (split
            per candidate by a union bound).
        wedge_index: Optional prebuilt wedge-CSR index; built from the
            candidate graph when absent and sampling is enabled.
        observer: Optional observer; records
            ``adaptive.prescreen.samples``.

    Returns:
        A :class:`PrescreenReport`; with fewer than two candidates the
        pass is a no-op that keeps everything.
    """
    observer = ensure_observer(observer)
    m = len(candidates)
    if m < 2:
        return PrescreenReport(
            survivors=list(range(m)), eliminated=[], n_samples=0,
            best_lower=0.0,
            lower_bounds=[
                candidates.existence_probability(i) for i in range(m)
            ],
        )

    existence = [candidates.existence_probability(i) for i in range(m)]
    # Exact heavier mass within the candidate set: candidates are
    # weight-sorted, so the strictly-heavier prefix is a prefix sum.
    prefix = [0.0] * (m + 1)
    for i in range(m):
        prefix[i + 1] = prefix[i] + existence[i]
    candidate_mass = [prefix[candidates.heavier_count(i)] for i in range(m)]

    sampled_upper = [float("inf")] * m
    samples_drawn = 0
    if n_samples > 0:
        graph = candidates.graph
        if wedge_index is None:
            wedge_index = build_wedge_index(graph)
        sizes = np.diff(wedge_index.scan_start)
        total_pairs = int((sizes * (sizes - 1) // 2).sum())
        if total_pairs > 0:
            generator = ensure_rng(rng)
            draws = generator.integers(0, total_pairs, size=n_samples)
            samples_drawn = n_samples
            wedge_a, wedge_b = _pair_slots(wedge_index, draws)
            probs = np.asarray(graph.probs, dtype=np.float64)
            scan_e1 = wedge_index.scan_e1
            scan_e2 = wedge_index.scan_e2
            presence = (
                probs[scan_e1[wedge_a]]
                * probs[scan_e2[wedge_a]]
                * probs[scan_e1[wedge_b]]
                * probs[scan_e2[wedge_b]]
            )
            weights = (
                wedge_index.scan_w[wedge_a] + wedge_index.scan_w[wedge_b]
            )
            values = float(total_pairs) * presence
            # Sort samples lightest-first; every candidate threshold is
            # then a suffix, evaluated from shared prefix sums.
            order = np.argsort(weights)
            weights = weights[order]
            values = values[order]
            value_sum = np.concatenate(([0.0], np.cumsum(values)))
            square_sum = np.concatenate(([0.0], np.cumsum(values * values)))
            delta_arm = split_delta(delta, m)
            for i in range(m):
                threshold = candidates[i].weight
                margin = WEIGHT_RTOL * max(1.0, abs(threshold))
                cut = int(
                    np.searchsorted(weights, threshold - margin, side="right")
                )
                total = float(value_sum[-1] - value_sum[cut])
                total_sq = float(square_sum[-1] - square_sum[cut])
                interval = EBInterval(range_width=float(total_pairs))
                interval.update_block(n_samples, total, total_sq)
                sampled_upper[i] = interval.upper(delta_arm)
    observer.inc("adaptive.prescreen.samples", float(samples_drawn))

    lower_bounds = [
        max(0.0, existence[i] - min(candidate_mass[i], sampled_upper[i]))
        for i in range(m)
    ]
    best_lower = max(lower_bounds)
    survivors = [i for i in range(m) if existence[i] >= best_lower]
    eliminated = [i for i in range(m) if existence[i] < best_lower]
    return PrescreenReport(
        survivors=survivors,
        eliminated=eliminated,
        n_samples=samples_drawn,
        best_lower=best_lower,
        lower_bounds=lower_bounds,
    )
