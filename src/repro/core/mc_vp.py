"""Algorithm 1 — Monte-Carlo with Vertex Priority (the MC-VP baseline).

Each trial samples one possible world and enumerates *all* of its
butterflies with the BFC-VP vertex-priority scheme [50], keeping the
maximum-weight set ``S_MB``; each member of ``S_MB`` earns ``1/N`` of
probability.  The method is deliberately unoptimised beyond vertex
priority — it generates and stores every angle and inspects every
butterfly, which is exactly the cost profile the paper's Section V
optimisations remove.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..butterfly import Butterfly, ButterflyKey
from ..butterfly.bfc_vp import assemble_butterfly
from ..errors import ConfigurationError
from ..graph import (
    UncertainBipartiteGraph,
    degree_priority,
    expected_degree_priority,
)
from ..kernels import WedgeIndex, build_wedge_index, wedge_block_loop
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


def mc_vp(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    antithetic: bool = False,
    priority_kind: str = "degree",
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
        block_size: Run through the batched kernel layer, drawing this
            many worlds per vectorised RNG call and evaluating the
            whole block through the vectorised wedge kernel
            (:class:`~repro.kernels.wedge_block.WedgeBlockKernel`);
            ``None`` keeps the scalar per-trial loop.  Mask blocks are
            stream-equivalent to scalar draws and the kernel reproduces
            the scalar search's exact winner semantics, so results are
            bit-identical either way; see ``docs/kernels.md``.  The
            effective block size is shrunk to fit the kernel bytes
            budget, which is semantically free.
        wedge_index: Optional prebuilt
            :class:`~repro.kernels.wedge_block.WedgeIndex` (e.g. one
            attached from shared memory by the worker pool); reused
            only when its ``priority_kind`` matches, rebuilt otherwise.
            Only meaningful with ``block_size``.
        priority_kind: Vertex-priority ranking — ``"degree"`` (the
            paper's BFC-VP order) or ``"expected-degree"`` (rank by
            ``d̄(u) = Σ p(e)``, the quantity Lemma IV.1's cost is
            actually written in; an ablation variant).
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling checkpoint/resume, deadlines, and graceful
            degradation for the trial loop.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span, trial throughput, and the
            ``mc-vp.*`` counters.
        adaptive: Optional :class:`~repro.adaptive.AdaptiveConfig` (or
            anything :func:`~repro.adaptive.resolve_adaptive` accepts)
            enabling the anytime racing stop rule — the run ends early,
            certified, once the incumbent butterfly's lower confidence
            limit clears every rival's (and the unseen-butterfly
            phantom's) upper limit.  ``None`` (default) keeps the fixed
            budget bit-identical.

    Returns:
        An :class:`~repro.core.results.MPMBResult` with ``method="mc-vp"``
        and stats counters ``angles_processed``, ``angles_stored_peak``
        and ``butterflies_checked``.
    """
    observer = ensure_observer(observer)
    if priority_kind == "degree":
        priority = degree_priority(graph)
    elif priority_kind == "expected-degree":
        priority = expected_degree_priority(graph)
    else:
        raise ConfigurationError(
            f"priority_kind must be 'degree' or 'expected-degree', "
            f"got {priority_kind!r}"
        )
    sampler = WorldSampler(graph, ensure_rng(rng), antithetic=antithetic)
    stats = {
        "angles_processed": 0.0,
        "angles_stored_peak": 0.0,
        "butterflies_checked": 0.0,
    }

    def tally(angles: int, angles_peak: int, checked: int) -> None:
        stats["angles_processed"] += angles
        stats["angles_stored_peak"] = max(
            stats["angles_stored_peak"], angles_peak
        )
        stats["butterflies_checked"] += checked

    def run_trial() -> List[Butterfly]:
        winners, (angles, checked) = _max_butterflies_vertex_priority(
            graph, sampler.sample_mask(), priority
        )
        tally(angles, angles, checked)
        return winners

    loop = WinnerCountLoop(
        graph, sampler, run_trial, n_trials,
        track=track, checkpoints=checkpoints, stats=stats,
        observer=observer,
    )
    with observer.span("sampling", method="mc-vp"), stopwatch() as timer:
        engine_loop = loop
        if block_size is not None:
            engine_loop = wedge_block_loop(
                loop, n_trials, block_size, observer,
                index=wedge_index, priority_kind=priority_kind,
                build=lambda: build_wedge_index(
                    graph, priority, priority_kind=priority_kind
                ),
                tie_mode="exact", with_stats=True,
                tally=lambda outcome: tally(
                    outcome.wedges_present,
                    outcome.wedges_present_peak,
                    outcome.butterflies_present,
                ),
            )
        run = drive_frequency_loop(
            engine_loop, method="mc-vp", graph_name=graph.name,
            n_trials=n_trials, counts=lambda: loop.counts.values(),
            phantom=True, runtime=runtime, observer=observer,
            adaptive=adaptive,
        )
    result = result_from_frequency_loop("mc-vp", graph, loop, run)
    record_sampling_metrics(observer, result, timer.seconds)
    return result


def _max_butterflies_vertex_priority(
    graph: UncertainBipartiteGraph,
    mask: np.ndarray,
    priority: np.ndarray,
) -> Tuple[List[Butterfly], Tuple[int, int]]:
    """One MC-VP trial body (Algorithm 1 lines 5-17).

    Builds every angle of the sampled world grouped by endpoint pair,
    combines each angle pair into a butterfly, and keeps the maximum
    weight set.  Returns ``(S_MB, (n_angles, n_butterflies_checked))``.
    """
    offset = graph.n_left
    weights = graph.weights
    edge_left = graph.edge_left
    edge_right = graph.edge_right

    # World adjacency over global vertex ids (Algorithm 1 works on V).
    adjacency: List[List[Tuple[int, int]]] = [
        [] for _ in range(graph.n_vertices)
    ]
    for e in np.flatnonzero(mask):
        e = int(e)
        u = int(edge_left[e])
        v = offset + int(edge_right[e])
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))

    n_angles = 0
    n_checked = 0
    w_max = -np.inf
    winners: List[Butterfly] = []

    for x in range(graph.n_vertices):
        px = priority[x]
        groups: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
        for y, edge_xy in adjacency[x]:
            if px <= priority[y]:
                continue
            for z, edge_yz in adjacency[y]:
                if z == x or px <= priority[z]:
                    continue
                groups[z].append((y, edge_xy, edge_yz))
                n_angles += 1
        for z, angles in groups.items():
            if len(angles) < 2:
                continue
            for (m1, e1a, e1b), (m2, e2a, e2b) in combinations(angles, 2):
                # Algorithm 1 materialises every butterfly before comparing
                # (that cost is what Section V removes).  Assembling also
                # fixes the weight's summation order to the canonical edge
                # order, so equal-weight ties compare exactly.
                n_checked += 1
                butterfly = assemble_butterfly(
                    x, z, m1, m2, (e1a, e1b, e2a, e2b), offset, weights
                )
                if butterfly.weight < w_max:
                    continue
                if butterfly.weight > w_max:
                    w_max = butterfly.weight
                    winners = [butterfly]
                else:
                    winners.append(butterfly)
    return winners, (n_angles, n_checked)
