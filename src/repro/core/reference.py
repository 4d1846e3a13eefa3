"""Reference MC-VP and OS: Algorithms 1 and 2, one world per trial.

Production :func:`~repro.core.mc_vp.mc_vp` and
:func:`~repro.core.ordering_sampling.ordering_sampling` evaluate blocks
of worlds on the wedge kernel.  :func:`reference_search` keeps the
paper's per-trial searches: Algorithm 1 enumerates every angle and
butterfly of the world with the BFC-VP vertex-priority scheme [50] (the
cost profile Section V removes); Algorithm 2 runs the Section V
weight-ordered search.  Both count winners through the same trial
driver as production — the estimator Theorem IV.1 sizes — so
checkpoints, deadlines and racing apply unchanged.  The kernel must
reproduce their estimates, winner sets and traces (``docs/kernels.md``);
their own work counters are what the experiments harness times.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..butterfly import Butterfly, ButterflyKey, max_weight_butterflies
from ..butterfly.bfc_vp import assemble_butterfly
from ..errors import ConfigurationError
from ..graph import (
    UncertainBipartiteGraph,
    degree_priority,
    expected_degree_priority,
)
from ..observability import Observer, ensure_observer
from ..runtime.frequency import WinnerCountLoop
from ..runtime.policy import RuntimePolicy
from ..sampling import RngLike, ensure_rng
from ..worlds import WorldSampler
from .driver import search_winners
from .results import MPMBResult


def reference_search(
    graph: UncertainBipartiteGraph,
    method: str,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    antithetic: bool = False,
    prune: bool = True,
    pair_side: str = "auto",
    priority_kind: str = "degree",
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    adaptive=None,
) -> MPMBResult:
    """Run reference MC-VP (``method="mc-vp"``) or OS (``"os"``).

    ``n_trials``, ``rng``, ``track``, ``checkpoints``, ``antithetic``,
    ``runtime``, ``observer`` and ``adaptive`` are as in
    :func:`~repro.core.mc_vp.mc_vp`, except that the engine unit is one
    trial.  The ablation switches:

    Args:
        prune: OS only — apply the Section V-B edge-ordering early exit
            (the result distribution is identical either way).
        pair_side: OS only — endpoint-pair side for the angle index:
            ``"auto"`` (Lemma V.1 cost minimisation), ``"left"`` or
            ``"right"``.
        priority_kind: MC-VP only — ``"degree"`` (the paper's BFC-VP
            order) or ``"expected-degree"`` (rank by ``d̄(u) = Σ p(e)``,
            the quantity Lemma IV.1's cost is written in).

    Returns:
        An :class:`~repro.core.results.MPMBResult` whose stats are the
        algorithm's work counters: ``angles_processed``,
        ``angles_stored_peak`` and ``butterflies_checked`` for MC-VP;
        ``edges_processed``, ``angles_processed``, ``angles_stored``
        and ``trials_pruned`` for OS (which also records the
        ``edge-ordering`` span).

    Raises:
        ConfigurationError: On an unknown method or priority kind, or
            when the other method's switch is set.
    """
    observer = ensure_observer(observer)
    sampler = WorldSampler(graph, ensure_rng(rng), antithetic=antithetic)
    if method == "mc-vp":
        if not prune or pair_side != "auto":
            raise ConfigurationError(
                "prune and pair_side are OS switches; reference MC-VP "
                "takes priority_kind only"
            )
        if priority_kind == "degree":
            priority = degree_priority(graph)
        elif priority_kind == "expected-degree":
            priority = expected_degree_priority(graph)
        else:
            raise ConfigurationError(
                f"priority_kind must be 'degree' or 'expected-degree', "
                f"got {priority_kind!r}"
            )
        stats = {
            "angles_processed": 0.0,
            "angles_stored_peak": 0.0,
            "butterflies_checked": 0.0,
        }

        def run_trial() -> List[Butterfly]:
            winners, (angles, checked) = _max_butterflies_vertex_priority(
                graph, sampler.sample_mask(), priority
            )
            stats["angles_processed"] += angles
            stats["angles_stored_peak"] = max(
                stats["angles_stored_peak"], angles
            )
            stats["butterflies_checked"] += checked
            return winners

    elif method == "os":
        if priority_kind != "degree":
            raise ConfigurationError(
                "priority_kind is an MC-VP switch; reference OS takes "
                "prune and pair_side only"
            )
        with observer.span("edge-ordering"):
            order = graph.edges_by_weight_desc
        stats = {
            "edges_processed": 0.0,
            "angles_processed": 0.0,
            "angles_stored": 0.0,
            "trials_pruned": 0.0,
        }

        def run_trial() -> List[Butterfly]:
            mask = sampler.sample_mask()
            search = max_weight_butterflies(
                graph, order[mask[order]], prune=prune, pair_side=pair_side
            )
            stats["edges_processed"] += search.n_edges_processed
            stats["angles_processed"] += search.n_angles_processed
            stats["angles_stored"] += search.n_angles_stored
            if search.pruned:
                stats["trials_pruned"] += 1
            return search.butterflies

    else:
        raise ConfigurationError(
            f"reference_search runs 'mc-vp' or 'os', got {method!r}"
        )
    loop = WinnerCountLoop(
        graph, sampler, run_trial, n_trials,
        track=track, checkpoints=checkpoints, stats=stats,
        observer=observer,
    )
    return search_winners(
        method, loop, n_trials, lambda loop: loop,
        runtime=runtime, observer=observer, adaptive=adaptive,
    )


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
    search = max_weight_butterflies(
        graph, order[mask[order]], prune=prune, pair_side=pair_side
    )
    return search.butterflies


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
