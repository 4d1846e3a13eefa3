"""Algorithm 1 — Monte-Carlo with Vertex Priority (the MC-VP baseline).

Each trial samples one possible world and finds its maximum-weight
butterfly set ``S_MB`` among the BFC-VP vertex-priority butterflies
[50]; each member of ``S_MB`` earns ``1/N`` of probability.  This
module runs the trials as blocks of worlds on the wedge kernel
(:mod:`repro.kernels.wedge_block`), whose winner sets equal Algorithm
1's exactly.  The paper's enumerate-everything trial is
:func:`~repro.core.reference.reference_search`.
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


def mc_vp(
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
    adaptive=None,
) -> MPMBResult:
    """Run MC-VP for ``n_trials`` Monte-Carlo rounds.

    Args:
        graph: The uncertain bipartite network.
        n_trials: ``N_mc`` — number of sampled possible worlds.
        rng: Seed or generator.
        track: Optional butterfly keys whose running estimate is traced
            (for the Figure 11 convergence experiment).
        checkpoints: Number of evenly spaced trace checkpoints.
        antithetic: Sample worlds in antithetic pairs (variance
            reduction extension).
        block_size: Worlds per wedge-kernel block, one engine unit
            (``None``: :data:`~repro.kernels.blocks.DEFAULT_BLOCK_SIZE`,
            capped by the kernel bytes budget).  Estimates, winner sets
            and traces equal the reference's for any block size; see
            ``docs/kernels.md``.
        wedge_index: Optional prebuilt
            :class:`~repro.kernels.wedge_block.WedgeIndex` (e.g. the
            worker pool's shared one); built when absent.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume, deadlines, and graceful
            degradation for the trial loop.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span, trial throughput, and the
            ``mc-vp.*`` counters (including the ``mc-vp.prune_rate`` of
            the kernel scan's early exit).
        adaptive: Optional :class:`~repro.adaptive.AdaptiveConfig` (or
            anything :func:`~repro.adaptive.resolve_adaptive` accepts)
            enabling the anytime racing stop rule — the run ends early,
            certified, once the incumbent butterfly's lower confidence
            limit clears every rival's (and the unseen-butterfly
            phantom's) upper limit.  ``None`` (default) keeps the fixed
            budget bit-identical.

    Returns:
        An :class:`~repro.core.results.MPMBResult` with ``method="mc-vp"``
        and the kernel scan's stats counters ``wedges_scanned`` and
        ``trials_pruned``.
    """
    observer = ensure_observer(observer)
    sampler = WorldSampler(graph, ensure_rng(rng), antithetic=antithetic)
    loop = WinnerCountLoop(
        graph, sampler, None, n_trials,
        track=track, checkpoints=checkpoints, observer=observer,
    )
    return search_winners(
        "mc-vp", loop, n_trials,
        lambda inner: wedge_block_loop(
            inner, n_trials, block_size, observer, index=wedge_index,
            build=lambda: build_wedge_index(graph), tie_mode="exact",
        ),
        runtime=runtime, observer=observer, adaptive=adaptive,
    )
