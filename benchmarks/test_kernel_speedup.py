"""Batched kernel speedup — the acceptance bar for ``repro.kernels``.

The OLS kernel replaces the paper's per-trial Python walk over the
candidate list (the reference,
:func:`~repro.core.reference.reference_listing_sampling`) with one
incidence-matrix gather per block over the candidate edges, so its
sampling phase must be at least **5x** faster than the reference on the
``abide`` bench config — and, because blocks draw row-major from one
stream (partition-invariant RNG consumption), a seed-fixed run must be
*identical* across block sizes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import (
    ordering_listing_sampling,
    prepare_candidates,
    reference_listing_sampling,
)
from repro.core.optimized_estimator import estimate_probabilities_optimized
from repro.datasets import load_dataset

#: Sampling-phase trials; large enough that per-call overhead amortises.
N_TRIALS = 20_000

#: Required kernel-over-reference trials/sec ratio (measured ~10x).
MIN_SPEEDUP = 5.0


def _abide_candidates():
    graph = load_dataset("abide", "bench", rng=0)
    return prepare_candidates(graph, 50, rng=123)


def _trials_per_second(run, candidates) -> float:
    start = time.perf_counter()
    run(
        candidates.graph, N_TRIALS, rng=np.random.default_rng(7),
        candidates=candidates,
    )
    return N_TRIALS / (time.perf_counter() - start)


def test_batched_ols_is_5x_scalar():
    candidates = _abide_candidates()
    reference = _trials_per_second(reference_listing_sampling, candidates)
    kernel = _trials_per_second(ordering_listing_sampling, candidates)
    assert kernel >= MIN_SPEEDUP * reference, (
        f"kernel OLS {kernel:.0f} trials/s is under "
        f"{MIN_SPEEDUP}x the reference {reference:.0f} trials/s"
    )


def test_seed_fixed_equivalence_across_block_sizes():
    """The speedup must not change the answer: one seed, any block
    partition, identical estimates and stats."""
    candidates = _abide_candidates()
    outcomes = [
        estimate_probabilities_optimized(
            candidates, 2_000, np.random.default_rng(7),
            block_size=block_size,
        )
        for block_size in (64, 256, 2_000)
    ]
    for outcome in outcomes[1:]:
        assert outcome.estimates == outcomes[0].estimates
        assert outcome.stats == outcomes[0].stats
