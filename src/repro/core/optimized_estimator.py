"""Algorithm 5 — the paper's optimised probability estimator.

All candidates share each trial: a trial finds the heaviest existing
candidates of its world, and every candidate in that maximum-weight
class earns ``1/N``.  The paper walks the weight-sorted candidate list
per trial, lazily sampling only the edges the inspected butterflies
touch; production evaluates blocks of trials on
:class:`~repro.kernels.BlockedOptimizedLoop`, which draws exactly those
candidate edges per trial and applies the same winner rule.  The
per-trial walk is the reference
(:func:`~repro.core.reference.reference_listing_sampling`).

Compared with the per-candidate Karp-Luby runs of Algorithm 4 this costs
``O(N·|C_MB|)`` instead of ``O(N·|C_MB|²)`` (Lemma VI.3) while directly
estimating ``P(B)``, which Lemma VI.4 shows usually needs *fewer* trials
for the same ε-δ guarantee.

The trial loop runs through the frequency methods' shared trial driver
(:func:`~repro.core.driver.drive_frequency_loop`), so it supports
checkpoint/resume, deadlines, graceful degradation, and the anytime
racing stop rule exactly like MC-VP and OS.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..butterfly import ButterflyKey
from ..errors import ConfigurationError
from ..kernels import BlockedOptimizedLoop, resolve_block_size
from ..observability import Observer, ensure_observer
from ..runtime.engine import CheckpointableLoop
from ..runtime.policy import RuntimePolicy
from ..sampling import RngLike, ensure_rng
from .candidates import CandidateSet
from .driver import drive_frequency_loop
from .estimation import EstimationOutcome


def estimate_probabilities_optimized(
    candidates: CandidateSet,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    block_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    mu: float = 0.05,
    delta: float = 0.1,
    adaptive: bool = False,
) -> EstimationOutcome:
    """Estimate ``P(B)`` for every candidate with shared trials.

    Args:
        candidates: The weight-sorted candidate set from the preparing
            phase.
        n_trials: ``N_op`` — shared trial count.
        rng: Seed or generator.
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        block_size: Trials per kernel block, one engine unit each
            (``None``: :data:`~repro.kernels.DEFAULT_BLOCK_SIZE`).
            Blocks draw row-major from one stream, so every block size
            gives the same result; checkpoints land on block
            boundaries.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume and deadline degradation.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span and engine counters.
        mu: Smallest probability ``μ`` the run's guarantee covers.
        delta: Failure probability ``δ`` of the run's guarantee; a
            degraded run re-widens its ε at ``mu`` and ``delta``, and
            an adaptive run certifies them.
        adaptive: ``True`` wraps the trial loop in the anytime racing
            stop rule: the run ends early — certified, not degraded —
            once the incumbent candidate's empirical-Bernstein lower
            limit clears every rival's upper limit.  ``False``
            (default) keeps the fixed-budget loop bit-identical.

    Returns:
        An :class:`~repro.core.estimation.EstimationOutcome` with
        ``method="optimized"``; candidates never observed as maximum get
        estimate 0.0.  A deadline-degraded outcome normalises over the
        trials actually completed and carries a re-widened guarantee.

    Raises:
        ValueError: If ``n_trials`` is not positive.
    """
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
    observer = ensure_observer(observer)
    block = resolve_block_size(n_trials, block_size)
    observer.set("kernel.block_size", float(block))
    loop = BlockedOptimizedLoop(
        candidates, ensure_rng(rng), n_trials, block,
        track=track, checkpoints=checkpoints, observer=observer,
    )
    return run_optimized_loop(
        loop, n_trials, runtime=runtime, observer=observer, mu=mu,
        delta=delta, adaptive=adaptive,
    )


def run_optimized_loop(
    loop: CheckpointableLoop,
    n_trials: int,
    *,
    runtime: Optional[RuntimePolicy],
    observer: Observer,
    mu: float,
    delta: float,
    adaptive: bool = False,
) -> EstimationOutcome:
    """Drive an Algorithm 5 ``loop`` and assemble its outcome.

    ``loop`` is the kernel's block loop in production and the per-trial
    walk in the reference; both expose ``items``, ``counts``,
    ``edges_sampled``, ``edges_queried``, ``traces`` and
    ``estimates(trials)``.  The ``sampling`` span wraps the engine run.
    """
    with observer.span(
        "sampling", method="ols", candidates=len(loop.items)
    ):
        run = drive_frequency_loop(
            loop, method="ols", graph_name=loop.candidates.graph.name,
            n_trials=n_trials, counts=lambda: loop.counts, phantom=False,
            runtime=runtime, observer=observer, mu=mu, delta=delta,
            adaptive=adaptive,
        )
    achieved = run.report.n_trials
    return EstimationOutcome(
        method="optimized",
        estimates=loop.estimates(achieved),
        traces=loop.traces,
        trials_per_candidate=[achieved] * len(loop.items),
        stats={
            "total_trials": float(achieved),
            "edges_sampled": float(loop.edges_sampled),
            "edges_queried": float(loop.edges_queried),
            **run.stats,
        },
        stop_reason=run.report.stop_reason,
        target_trials=n_trials if run.report.degraded else None,
        guarantee=run.guarantee,
    )
