"""Algorithm 2 — Ordering Sampling (OS).

OS keeps MC-VP's outer Monte-Carlo loop but replaces the per-trial
butterfly enumeration with the Section V weight-ordered search.  This
module runs the trials as blocks of worlds on the wedge kernel
(:mod:`repro.kernels.wedge_block`) in ``rtol`` tie mode, which
reproduces that search's winner classes; its bound-ordered group scan
is the Section V-B early exit.  The paper's per-trial search and its
ablation switches are :func:`~repro.core.reference.reference_search`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..butterfly import ButterflyKey
from ..graph import UncertainBipartiteGraph
from ..kernels import WedgeIndex, build_wedge_index, wedge_block_loop
from ..observability import Observer, ensure_observer
from ..runtime.frequency import WinnerCountLoop
from ..runtime.policy import RuntimePolicy
from ..sampling import RngLike, ensure_rng
from ..worlds import WorldSampler
from .driver import search_winners
from .results import MPMBResult


def ordering_sampling(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    antithetic: bool = False,
    block_size: Optional[int] = None,
    wedge_index: Optional[WedgeIndex] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    mu: float = 0.05,
    delta: float = 0.1,
    adaptive: bool = False,
) -> MPMBResult:
    """Run Ordering Sampling for ``n_trials`` Monte-Carlo rounds.

    Args:
        graph: The uncertain bipartite network.
        n_trials: ``N_os`` — number of sampled possible worlds.
        rng: Seed or generator.
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        antithetic: Sample worlds in antithetic pairs (variance
            reduction; see :class:`~repro.worlds.sampler.WorldSampler`).
        block_size: Worlds per wedge-kernel block, one engine unit
            (``None``: :data:`~repro.kernels.blocks.DEFAULT_BLOCK_SIZE`,
            capped by the kernel bytes budget).  Winner sets, traces and
            estimates equal the reference's for any block size; see
            ``docs/kernels.md``.
        wedge_index: Optional prebuilt
            :class:`~repro.kernels.wedge_block.WedgeIndex` (e.g. the
            worker pool's shared one); built when absent.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume, deadlines, and graceful
            degradation for the trial loop.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span, trial throughput, and the
            ``os.*`` counters (including the ``os.prune_rate`` of the
            kernel scan's early exit).
        mu: Smallest probability ``μ`` the run's guarantee covers
            (paper default 0.05).
        delta: Failure probability ``δ`` of the run's guarantee (paper
            default 0.1).  A deadline-degraded run re-widens its ε at
            ``mu`` and ``delta``, and an adaptive run certifies them.
        adaptive: ``True`` enables the anytime racing stop rule — the
            run ends early, certified, once the incumbent butterfly's
            lower confidence limit clears every rival's (and the
            unseen-butterfly phantom's) upper limit.  ``False``
            (default) keeps the fixed budget bit-identical.

    Returns:
        An :class:`~repro.core.results.MPMBResult` with ``method="os"``
        and the kernel scan's stats counters ``wedges_scanned``
        (presence evaluations) and ``trials_pruned`` (early-exited
        worlds).
    """
    observer = ensure_observer(observer)
    sampler = WorldSampler(graph, ensure_rng(rng), antithetic=antithetic)
    loop = WinnerCountLoop(
        graph, sampler, None, n_trials,
        track=track, checkpoints=checkpoints, observer=observer,
    )
    return search_winners(
        "os", loop, n_trials,
        lambda inner: wedge_block_loop(
            inner, n_trials, block_size, observer, index=wedge_index,
            build=lambda: build_wedge_index(graph), tie_mode="rtol",
        ),
        runtime=runtime, observer=observer, mu=mu, delta=delta,
        adaptive=adaptive,
    )
