"""Algorithm 2 — Ordering Sampling (OS).

OS keeps MC-VP's outer Monte-Carlo loop but replaces the per-trial
butterfly enumeration with the Section V weight-ordered search
(:func:`repro.butterfly.max_weight.max_weight_butterflies`): edges are
consumed heaviest-first, only the top-2 angle classes per endpoint pair
are stored, and only maximum-weight butterflies are materialised.  The
three optimisations are individually toggleable for the ablation
benchmarks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..butterfly import Butterfly, ButterflyKey, max_weight_butterflies
from ..graph import UncertainBipartiteGraph
from ..kernels import WedgeIndex, build_wedge_index, wedge_block_loop
from ..kernels.wedge_block import BlockOutcome
from ..observability import Observer, ensure_observer
from ..observability.profiling import stopwatch
from ..sampling import RngLike, ensure_rng
from ..worlds import WorldSampler
from .driver import drive_frequency_loop
from .results import (
    MPMBResult,
    record_sampling_metrics,
    result_from_frequency_loop,
)
from ..runtime.frequency import WinnerCountLoop
from ..runtime.policy import RuntimePolicy


def os_trial(
    graph: UncertainBipartiteGraph,
    sampler: WorldSampler,
    prune: bool = True,
    pair_side: str = "auto",
) -> List[Butterfly]:
    """One OS trial (Algorithm 2 lines 4-20): sample a world, return its
    maximum-weight butterfly set ``S_MB`` (possibly empty)."""
    mask = sampler.sample_mask()
    order = graph.edges_by_weight_desc
    present_sorted = order[mask[order]]
    search = max_weight_butterflies(
        graph, present_sorted, prune=prune, pair_side=pair_side
    )
    return search.butterflies


def ordering_sampling(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    prune: bool = True,
    pair_side: str = "auto",
    antithetic: bool = False,
    block_size: Optional[int] = None,
    wedge_index: Optional[WedgeIndex] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    adaptive=None,
) -> MPMBResult:
    """Run Ordering Sampling for ``n_trials`` Monte-Carlo rounds.

    Args:
        graph: The uncertain bipartite network.
        n_trials: ``N_os`` — number of sampled possible worlds.
        rng: Seed or generator.
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        prune: Apply the Section V-B edge-ordering early exit (ablation
            switch; the result distribution is identical either way).
        pair_side: Endpoint-pair side for the angle index — ``"auto"``
            (Lemma V.1 cost minimisation), ``"left"`` or ``"right"``.
        antithetic: Sample worlds in antithetic pairs (variance
            reduction; see :class:`~repro.worlds.sampler.WorldSampler`).
        block_size: Run through the batched kernel layer, drawing this
            many worlds per vectorised RNG call and evaluating the
            whole block through the vectorised wedge kernel in ``rtol``
            tie mode, which reproduces the weight-ordered search's
            :func:`~repro.butterfly.max_weight.weights_equal` winner
            classes (``None`` keeps the scalar per-trial loop).  Winner
            sets, traces, and estimates are bit-identical either way;
            the batched path reports the kernel scan's own work
            counters — ``wedges_scanned`` presence evaluations and
            ``trials_pruned`` early-exited worlds — instead of the
            scalar scan's per-edge counters, which have no vectorised
            equivalent — see ``docs/kernels.md``.  The effective block
            size is shrunk to fit the kernel bytes budget.
        wedge_index: Optional prebuilt
            :class:`~repro.kernels.wedge_block.WedgeIndex` (e.g. one
            attached from shared memory by the worker pool); reused
            only when built with degree priorities, rebuilt otherwise.
            Only meaningful with ``block_size``.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume, deadlines, and graceful
            degradation for the trial loop.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``edge-ordering``/``sampling`` spans, trial
            throughput, and the ``os.*`` counters (including the
            ``os.prune_rate`` of the Section V-B early exit).
        adaptive: Optional :class:`~repro.adaptive.AdaptiveConfig` (or
            anything :func:`~repro.adaptive.resolve_adaptive` accepts)
            enabling the anytime racing stop rule — the run ends early,
            certified, once the incumbent butterfly's lower confidence
            limit clears every rival's (and the unseen-butterfly
            phantom's) upper limit.  ``None`` (default) keeps the fixed
            budget bit-identical.

    Returns:
        An :class:`~repro.core.results.MPMBResult` with ``method="os"``
        and stats counters ``edges_processed``, ``angles_processed`` and
        ``angles_stored`` aggregated over trials.
    """
    observer = ensure_observer(observer)
    sampler = WorldSampler(graph, ensure_rng(rng), antithetic=antithetic)
    with observer.span("edge-ordering"):
        order = graph.edges_by_weight_desc
    if block_size is None:
        stats = {
            "edges_processed": 0.0,
            "angles_processed": 0.0,
            "angles_stored": 0.0,
            "trials_pruned": 0.0,
        }
    else:
        # The scalar scan's per-edge counters have no vectorised
        # equivalent; the batched path reports the kernel scan's own
        # pruned work (same spirit: how much the bound order saved).
        stats = {
            "wedges_scanned": 0.0,
            "trials_pruned": 0.0,
        }

    def run_trial() -> List[Butterfly]:
        mask = sampler.sample_mask()
        present_sorted = order[mask[order]]
        search = max_weight_butterflies(
            graph, present_sorted, prune=prune, pair_side=pair_side
        )
        stats["edges_processed"] += search.n_edges_processed
        stats["angles_processed"] += search.n_angles_processed
        stats["angles_stored"] += search.n_angles_stored
        if search.pruned:
            stats["trials_pruned"] += 1
        return search.butterflies

    loop = WinnerCountLoop(
        graph, sampler, run_trial, n_trials,
        track=track, checkpoints=checkpoints, stats=stats,
        observer=observer,
    )
    with observer.span("sampling", method="os"), stopwatch() as timer:
        engine_loop = loop
        if block_size is not None:

            def tally(outcome: BlockOutcome) -> None:
                stats["wedges_scanned"] += outcome.wedges_scanned
                stats["trials_pruned"] += outcome.rows_pruned

            engine_loop = wedge_block_loop(
                loop, n_trials, block_size, observer,
                index=wedge_index, priority_kind="degree",
                build=lambda: build_wedge_index(graph),
                tie_mode="rtol", with_stats=False, tally=tally,
            )
        run = drive_frequency_loop(
            engine_loop, method="os", graph_name=graph.name,
            n_trials=n_trials, counts=lambda: loop.counts.values(),
            phantom=True, runtime=runtime, observer=observer,
            adaptive=adaptive,
        )
    result = result_from_frequency_loop("os", graph, loop, run)
    record_sampling_metrics(observer, result, timer.seconds)
    return result
