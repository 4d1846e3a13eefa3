"""Algorithm 5 — the paper's optimised probability estimator.

All candidates share each trial: a trial walks the weight-sorted
candidate list, lazily sampling only the edges the inspected butterflies
touch (memoised within the trial so shared edges stay consistent), and
stops as soon as the next candidate's weight drops below the best
existing butterfly found so far.  Every candidate in the trial's
maximum-weight class earns ``1/N``.

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

from typing import Dict, Iterable, Optional

from ..butterfly import ButterflyKey
from ..errors import ConfigurationError
from ..observability import Observer, ensure_observer
from ..sampling import (
    ConvergenceTrace,
    RngLike,
    checkpoint_schedule,
    ensure_rng,
)
from ..kernels import BlockedOptimizedLoop, resolve_block_size
from ..sampling.convergence import decode_traces, encode_traces
from ..sampling.rng import restore_rng_state, rng_state_payload
from ..worlds.sampler import LazyEdgeTrial, WorldSampler
from ..runtime.policy import RuntimePolicy
from .candidates import CandidateSet
from .driver import drive_frequency_loop
from .estimation import EstimationOutcome


class _OptimizedLoop:
    """Algorithm 5's inner loop behind the engine's checkpoint contract.

    Snapshot state: per-candidate winner counts (in candidate order),
    the candidate keys themselves (resume validation), the lazy-sampling
    edge counter, trace checkpoints, and the RNG stream position.
    """

    def __init__(
        self,
        candidates: CandidateSet,
        generator,
        n_target: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
    ) -> None:
        self.candidates = candidates
        self.generator = generator
        self.items = candidates.butterflies
        self.counts = [0] * len(self.items)
        self.edges_sampled = 0
        self.edges_queried = 0
        tracked = set(track) if track is not None else set()
        self.traces: Dict[ButterflyKey, ConvergenceTrace] = {
            key: ConvergenceTrace(label=str(key)) for key in tracked
        }
        self._tracked_indices = [
            index for index, butterfly in enumerate(self.items)
            if butterfly.key in tracked
        ]
        self._schedule = set(checkpoint_schedule(n_target, checkpoints))

    def run_trial(self, trial: int) -> None:
        lazy = LazyEdgeTrial(self.candidates.graph, self.generator)
        w_max = float("-inf")
        # Walk candidates heaviest-first; the first existing butterfly
        # pins w_max, equal-weight peers are still checked, and the loop
        # exits at the first strictly lighter candidate (Alg. 5 line 5).
        for index, butterfly in enumerate(self.items):
            if butterfly.weight < w_max:
                break
            if lazy.all_present(butterfly.edges):
                self.counts[index] += 1
                w_max = butterfly.weight
        self.edges_sampled += lazy.n_sampled
        self.edges_queried += lazy.n_queries
        if self.traces and trial in self._schedule:
            for index in self._tracked_indices:
                self.traces[self.items[index].key].record(
                    trial, self.counts[index] / trial
                )

    def state_payload(self, completed: int) -> Dict:
        return {
            "candidates": [list(b.key) for b in self.items],
            "counts": list(self.counts),
            "edges_sampled": int(self.edges_sampled),
            "edges_queried": int(self.edges_queried),
            "traces": encode_traces(self.traces),
            "rng": rng_state_payload(self.generator),
        }

    def restore_state(self, payload: Dict) -> None:
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self.counts = [int(count) for count in payload["counts"]]
        self.edges_sampled = int(payload["edges_sampled"])
        # Checkpoints written before the query counter existed lack the
        # key; resuming from them keeps the hit rate merely incomplete.
        self.edges_queried = int(payload.get("edges_queried", 0))
        self.traces = decode_traces(payload["traces"], keys=self.traces)
        restore_rng_state(self.generator, payload["rng"])

    def estimates(self, completed: int) -> Dict[ButterflyKey, float]:
        if completed <= 0:
            return {butterfly.key: 0.0 for butterfly in self.items}
        return {
            butterfly.key: count / completed
            for butterfly, count in zip(self.items, self.counts)
        }


def estimate_probabilities_optimized(
    candidates: CandidateSet,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    block_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    adaptive=None,
) -> EstimationOutcome:
    """Estimate ``P(B)`` for every candidate with shared trials.

    Args:
        candidates: The weight-sorted candidate set from the preparing
            phase.
        n_trials: ``N_op`` — shared trial count.
        rng: Seed or generator.
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        block_size: Route the trials through the vectorised block kernel
            (:class:`~repro.kernels.BlockedOptimizedLoop`), evaluating
            this many trials per kernel call.  ``None`` (default) keeps
            the scalar lazy-sampling walk.  The two paths agree in
            distribution but consume randomness differently (the kernel
            draws full-world masks, the scalar walk samples edges
            lazily); for a fixed block size the kernel path is exactly
            reproducible across any checkpoint/resume split — see
            ``docs/performance.md`` for the equivalence contract.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume and deadline degradation.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span and engine counters.
        adaptive: Optional :class:`~repro.adaptive.AdaptiveConfig` (or
            anything :func:`~repro.adaptive.resolve_adaptive` accepts).
            Wraps the trial loop in the anytime racing stop rule: the
            run ends early — certified, not degraded — once the
            incumbent candidate's empirical-Bernstein lower limit
            clears every rival's upper limit.  ``None`` (default) keeps
            the fixed-budget loop bit-identical.

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
    generator = ensure_rng(rng)
    if block_size is not None:
        block = resolve_block_size(n_trials, block_size)
        observer.set("kernel.block_size", float(block))
        sampler = WorldSampler(candidates.graph, generator)
        loop = BlockedOptimizedLoop(
            candidates, sampler, n_trials, block,
            track=track, checkpoints=checkpoints, observer=observer,
        )
    else:
        loop = _OptimizedLoop(
            candidates, generator, n_trials,
            track=track, checkpoints=checkpoints,
        )
    with observer.span(
        "sampling", method="ols", candidates=len(candidates)
    ):
        run = drive_frequency_loop(
            loop, method="ols", graph_name=candidates.graph.name,
            n_trials=n_trials, counts=lambda: loop.counts, phantom=False,
            runtime=runtime, observer=observer, adaptive=adaptive,
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
