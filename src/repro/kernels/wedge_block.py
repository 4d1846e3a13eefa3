"""Vectorised BFC-VP winner kernel over a precomputed wedge-CSR index.

The reference MC-VP trial (:mod:`repro.core.reference`) re-enumerates
every angle of every sampled world in Python (Algorithm 1 lines 5-17).
But the *backbone* wedge set is world-independent: a sampled world's
angles are exactly the backbone wedges whose two edges are present,
because the vertex-priority rule is evaluated on backbone priorities.
This module exploits that:

1. :class:`WedgeIndex` enumerates all wedges **once** on the
   deterministic priority-ordered graph into CSR-style arrays — per
   wedge the ``(center, edge_x_center, edge_center_z)`` triple plus an
   endpoint-pair group index (every butterfly is an unordered pair of
   wedges inside one group);
2. :class:`WedgeBlockKernel` evaluates a whole ``(block, n_edges)``
   Bernoulli mask matrix at once: the per-world maximum-weight winner
   search is a bound-ordered group scan with early exit (groups are
   visited in descending order of their static best-pair weight, so a
   world stops as soon as no remaining group can tie its current best),
   and wedge presence inside it is two masked gathers and an AND.

Only the final, tiny winner-candidate set is materialised through the
unchanged :func:`~repro.butterfly.bfc_vp.assemble_butterfly`, so winner
*sets* are bit-identical to the reference search (see the equivalence
contract in ``docs/kernels.md``).  Peak block memory is capped by the
bytes budget of :mod:`repro.kernels.memory`.

The CSR edge-set presence primitive (:func:`first_all_present`) is
shared with the Karp-Luby union kernel, whose "first satisfied event"
world-check is the same all-members-present reduction over event edge
sets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..butterfly import Butterfly
from ..butterfly.bfc_vp import assemble_butterfly
from ..butterfly.max_weight import WEIGHT_RTOL, weights_equal
from ..errors import ConfigurationError
from ..graph import UncertainBipartiteGraph, degree_priority
from .memory import SCAN_CHUNK

#: Winner tie semantics the kernel can reproduce (see docs/kernels.md).
TIE_MODES = ("exact", "rtol")

#: Safety factor applied to :data:`WEIGHT_RTOL` when collecting winner
#: candidates.  The group scan compares wedge-pair *sums*, which differ
#: from canonical four-term butterfly weights by a few ulps; a margin of
#: several rtol widths guarantees every butterfly that could tie the
#: maximum (exactly or within rtol) survives to the exact check.
_CANDIDATE_MARGIN = 4.0


def _margin(best: np.ndarray) -> np.ndarray:
    """Candidate-collection margin around per-world best pair sums."""
    return _CANDIDATE_MARGIN * WEIGHT_RTOL * np.abs(best)


@dataclass(frozen=True)
class WedgeIndex:
    """CSR wedge/butterfly index of one priority-ordered backbone.

    Index order covers every group, singletons included: they cannot
    form butterflies, but :func:`~repro.kernels.memory.kernel_row_bytes`
    counts them, so dropping them would change block sizes.

    Attributes:
        priority: The degree-priority permutation the index was built
            with (global vertex ids).
        wedge_mid: Per wedge, the middle (center) global vertex id.
        wedge_e1: Per wedge, the edge index of ``x``–``mid``.
        wedge_e2: Per wedge, the edge index of ``mid``–``z``.
        wedge_weight: Per wedge, ``w(e1) + w(e2)``.
        group_start: ``(n_groups + 1,)`` CSR row pointer over wedges.
        group_x: Per group, the high-priority endpoint ``x``.
        group_z: Per group, the two-hop endpoint ``z``.
        scan_order: Butterfly-capable groups (``k >= 2``) sorted by
            static best-pair weight, descending — the winner scan order.
        scan_bound: Per scan group, its static best-pair weight (sum of
            its two heaviest wedges); an upper bound on any present
            butterfly weight of the group.
        scan_wedge: Wedge ids (index order) flattened in scan order —
            within each scan group sorted by wedge weight descending, so
            winner materialisation can stop at the first light pair.
        scan_start: ``(n_scan_groups + 1,)`` CSR row pointer into
            ``scan_wedge``.
        scan_e1: ``wedge_e1`` pre-gathered into scan order (the per-chunk
            mask gathers read these as plain slices).
        scan_e2: ``wedge_e2`` pre-gathered into scan order.
        scan_w: ``wedge_weight`` pre-gathered into scan order.
        chunks: Winner-scan chunking: ``(g_lo, g_hi)`` ranges over
            ``scan_order`` whose total wedge count stays near
            :data:`~repro.kernels.memory.SCAN_CHUNK` — narrow on
            purpose, because the scan's early exit fires *between*
            chunks and the chunk width floors the wasted work.
    """

    priority: np.ndarray
    wedge_mid: np.ndarray
    wedge_e1: np.ndarray
    wedge_e2: np.ndarray
    wedge_weight: np.ndarray
    group_start: np.ndarray
    group_x: np.ndarray
    group_z: np.ndarray
    scan_order: np.ndarray
    scan_bound: np.ndarray
    scan_wedge: np.ndarray
    scan_start: np.ndarray
    scan_e1: np.ndarray
    scan_e2: np.ndarray
    scan_w: np.ndarray
    chunks: Tuple[Tuple[int, int], ...]

    @property
    def n_wedges(self) -> int:
        return int(self.wedge_e1.shape[0])

    @property
    def n_groups(self) -> int:
        return int(self.group_x.shape[0])

    @property
    def n_butterflies(self) -> int:
        """Backbone butterflies the index spans (Σ per-group C(k, 2))."""
        sizes = np.diff(self.group_start)
        return int((sizes * (sizes - 1) // 2).sum())

    def group_wedges(self, group: int) -> range:
        """Wedge ids (index order) of one group."""
        return range(
            int(self.group_start[group]), int(self.group_start[group + 1])
        )


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR row pointer (leading zero, then running totals) of ``sizes``."""
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])


def build_wedge_index(graph: UncertainBipartiteGraph) -> WedgeIndex:
    """Enumerate every backbone wedge once into a :class:`WedgeIndex`.

    The enumeration mirrors
    :func:`~repro.butterfly.bfc_vp.iter_angle_groups` exactly (the
    BFC-VP :func:`~repro.graph.degree_priority` rule, same traversal
    order) but keeps singleton groups.  Winner sets do not depend on
    the vertex priority, so the index is built with this one.
    """
    priority = np.asarray(degree_priority(graph), dtype=np.int64)
    weights = graph.weights
    n_vertices = graph.n_vertices
    edge_left = graph.edge_left
    edge_right = graph.edge_right

    # Backbone adjacency as CSR over global ids, in the neighbour order
    # of :func:`~repro.butterfly.bfc_vp.global_adjacency` (the order the
    # scalar enumeration walks): a left vertex lists its edges by edge
    # index, a right vertex by (left end, edge index).
    by_left = np.argsort(edge_left, kind="stable")
    by_right = by_left[np.argsort(edge_right[by_left], kind="stable")]
    via_edge = np.concatenate([by_left, by_right])
    neighbor = np.concatenate(
        [edge_right[by_left] + graph.n_left, edge_left[by_right]]
    )
    degrees = np.concatenate([
        np.bincount(edge_left, minlength=graph.n_left),
        np.bincount(edge_right, minlength=graph.n_right),
    ]).astype(np.int64)
    indptr = _offsets(degrees)

    # Two-hop expansion in exact scalar traversal order: x ascending,
    # then adjacency order of y, then adjacency order of z.  Boolean
    # filters preserve order, so the surviving wedge stream is the same
    # sequence the nested loops would append.  ``source`` maps each
    # expanded wedge to its (x, y) hop; priorities are a permutation, so
    # a strictly lower-priority z is never x itself.
    hop_x = np.repeat(np.arange(n_vertices, dtype=np.int64), degrees)
    keep = priority[neighbor] < priority[hop_x]
    pair_x = hop_x[keep]
    pair_y = neighbor[keep]
    pair_e1 = via_edge[keep]
    fanout = degrees[pair_y]
    pos = np.arange(int(fanout.sum()), dtype=np.int64) + np.repeat(
        indptr[pair_y] - _offsets(fanout)[:-1], fanout
    )
    source = np.repeat(np.arange(pair_x.shape[0], dtype=np.int64), fanout)
    wedge_z = neighbor[pos]
    keep = priority[wedge_z] < priority[pair_x][source]
    source = source[keep]
    wedge_z = wedge_z[keep]
    wedge_x = pair_x[source]
    e2 = via_edge[pos[keep]]

    # Group by (x, z) in first-encounter order — the scalar loop's
    # per-``x`` insertion-ordered dict.  A stable sort by key gathers
    # each group's wedges in stream order, its first entry being the
    # group's first stream position; ordering the groups by that
    # position (the stream is already sorted by ``x``) restores
    # insertion order, and the groups' segments are then re-laid out
    # in that order.
    n_wedges = wedge_x.shape[0]
    key = wedge_x * np.int64(n_vertices) + wedge_z
    by_key = np.argsort(key, kind="stable")
    sorted_key = key[by_key]
    first = np.ones(n_wedges, dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    segment = np.flatnonzero(first)
    segment_sizes = np.diff(np.append(segment, n_wedges))
    rank = np.argsort(by_key[segment], kind="stable")
    sizes = segment_sizes[rank]
    group_start = _offsets(sizes)
    perm = by_key[
        np.repeat(segment[rank] - group_start[:-1], sizes)
        + np.arange(n_wedges, dtype=np.int64)
    ]
    wedge_e1 = pair_e1[source[perm]]
    wedge_e2 = e2[perm]
    wedge_weight = weights[wedge_e1] + weights[wedge_e2]
    group_first = perm[group_start[:-1]]

    # Heaviest-first permutation per group, as one stable sort of a
    # (group, descending weight rank) key — ties keep index order,
    # matching the scalar per-group argsort; the two leading wedges of
    # each capable group give its static best-pair bound.
    distinct, weight_rank = np.unique(wedge_weight, return_inverse=True)
    n_distinct = np.int64(distinct.shape[0])
    group_of = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    heavy = np.argsort(
        group_of * n_distinct + (n_distinct - 1 - weight_rank),
        kind="stable",
    )
    capable = np.flatnonzero(sizes >= 2)
    bounds = (
        wedge_weight[heavy[group_start[capable]]]
        + wedge_weight[heavy[group_start[capable] + 1]]
    )
    order = np.argsort(-bounds, kind="stable")
    scan_order = capable[order]

    # Flatten the scan groups' wedges (heaviest-first within each group,
    # so materialisation's pair walk can stop early) and pre-gather their
    # edge/weight columns — the per-block scan then reads plain slices.
    scan_sizes = sizes[scan_order]
    scan_start = _offsets(scan_sizes)
    scan_wedge = heavy[
        np.repeat(group_start[scan_order] - scan_start[:-1], scan_sizes)
        + np.arange(int(scan_start[-1]), dtype=np.int64)
    ]

    # Group-aligned chunks of at most SCAN_CHUNK wedges each (a single
    # oversized group forms its own chunk).
    chunks: List[Tuple[int, int]] = []
    lo = 0
    while lo < scan_order.shape[0]:
        hi = int(np.searchsorted(
            scan_start, scan_start[lo] + SCAN_CHUNK, side="right"
        )) - 1
        hi = max(hi, lo + 1)
        chunks.append((lo, hi))
        lo = hi

    return WedgeIndex(
        priority=priority,
        wedge_mid=pair_y[source[perm]],
        wedge_e1=wedge_e1,
        wedge_e2=wedge_e2,
        wedge_weight=wedge_weight,
        group_start=group_start,
        group_x=wedge_x[group_first],
        group_z=wedge_z[group_first],
        scan_order=scan_order,
        scan_bound=bounds[order],
        scan_wedge=scan_wedge,
        scan_start=scan_start,
        scan_e1=wedge_e1[scan_wedge],
        scan_e2=wedge_e2[scan_wedge],
        scan_w=wedge_weight[scan_wedge],
        chunks=tuple(chunks),
    )


@dataclass
class BlockOutcome:
    """One evaluated mask block.

    Attributes:
        winners: Per block row, the world's maximum-weight butterfly
            set (empty list for worlds without a butterfly).
        wedges_scanned: Presence evaluations the bound-ordered winner
            scan actually performed (scanned wedges × active worlds) —
            the kernel analogue of the scalar pruned search's work
            counters.
        rows_pruned: Worlds whose winner scan exited before the last
            chunk (the kernel analogue of scalar ``trials_pruned``).
    """

    winners: List[List[Butterfly]]
    wedges_scanned: int = 0
    rows_pruned: int = 0


@dataclass
class WedgeBlockKernel:
    """Blocked per-world winner search over one :class:`WedgeIndex`.

    Args:
        graph: The backbone graph (canonical butterfly assembly needs
            its weights).
        index: The precomputed wedge index.
        tie_mode: ``"exact"`` reproduces MC-VP's exact float winner
            comparison; ``"rtol"`` reproduces the OS search's
            :func:`~repro.butterfly.max_weight.weights_equal` tie class
            (see the contract table in ``docs/kernels.md``).
    """

    graph: UncertainBipartiteGraph
    index: WedgeIndex
    tie_mode: str = "exact"
    _butterflies: Dict[Tuple[int, int], Butterfly] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.tie_mode not in TIE_MODES:
            raise ConfigurationError(
                f"tie_mode must be one of {TIE_MODES}, "
                f"got {self.tie_mode!r}"
            )

    # ------------------------------------------------------------------
    # Block evaluation
    # ------------------------------------------------------------------

    def evaluate_block(self, masks: np.ndarray) -> BlockOutcome:
        """Evaluate every world (row) of one ``(block, n_edges)``
        boolean edge-presence matrix."""
        n_rows = masks.shape[0]
        outcome = BlockOutcome(winners=[[] for _ in range(n_rows)])
        if self.index.n_wedges == 0:
            return outcome
        best, rows, groups = self._scan_winners(masks, outcome)
        self._materialise(masks, best, rows, groups, outcome)
        return outcome

    def _scan_winners(
        self, masks: np.ndarray, outcome: BlockOutcome
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound-ordered group scan: per-world best pair sums and the
        candidate ``(row, scan-group)`` pairs within margin of them.

        Fills ``outcome.wedges_scanned``/``outcome.rows_pruned`` as a
        byproduct — the scan's own work is the kernel counterpart of the
        scalar pruned search's counters.
        """
        index = self.index
        n_rows = masks.shape[0]
        best = np.full(n_rows, -np.inf)
        cand_rows: List[np.ndarray] = []
        cand_groups: List[np.ndarray] = []
        cand_sums: List[np.ndarray] = []
        active = np.arange(n_rows)
        for g_lo, g_hi in index.chunks:
            if active.size == 0:
                break
            bound = index.scan_bound[g_lo]
            keep = best[active] <= bound + _margin(best[active])
            outcome.rows_pruned += int(active.size - keep.sum())
            active = active[keep]
            if active.size == 0:
                break
            w_lo = int(index.scan_start[g_lo])
            w_hi = int(index.scan_start[g_hi])
            outcome.wedges_scanned += int(active.size) * (w_hi - w_lo)
            seg_starts = index.scan_start[g_lo:g_hi] - w_lo
            sizes = np.diff(index.scan_start[g_lo:g_hi + 1])
            sub = masks[active]
            present = (
                sub[:, index.scan_e1[w_lo:w_hi]]
                & sub[:, index.scan_e2[w_lo:w_hi]]
            )
            values = np.where(present, index.scan_w[w_lo:w_hi], -np.inf)
            top1 = np.maximum.reduceat(values, seg_starts, axis=1)
            spread = np.repeat(top1, sizes, axis=1)
            is_top = values == spread
            # int32 tie counts are chunk-bounded (a segment never has
            # more wedges than the chunk width) and only compared
            # against the constant 2 — never folded into the scores.
            ties = np.add.reduceat(  # repro: noqa[DTY001]
                is_top.astype(np.int32), seg_starts, axis=1
            )
            runner = np.maximum.reduceat(
                np.where(is_top, -np.inf, values), seg_starts, axis=1
            )
            with np.errstate(invalid="ignore"):
                pair = top1 + np.where(ties >= 2, top1, runner)
            pair = np.nan_to_num(pair, nan=-np.inf, posinf=np.inf,
                                 neginf=-np.inf)
            updated = np.maximum(best[active], pair.max(axis=1))
            best[active] = updated
            threshold = np.where(
                np.isfinite(updated), updated - _margin(updated), np.inf
            )
            hit_rows, hit_cols = np.nonzero(pair >= threshold[:, None])
            if hit_rows.size:
                cand_rows.append(active[hit_rows])
                cand_groups.append(g_lo + hit_cols)
                cand_sums.append(pair[hit_rows, hit_cols])
        if not cand_rows:
            empty = np.zeros(0, dtype=np.int64)
            return best, empty, empty
        rows = np.concatenate(cand_rows)
        groups = np.concatenate(cand_groups)
        sums = np.concatenate(cand_sums)
        # Drop candidates recorded before their row's best tightened.
        final = np.where(
            np.isfinite(best[rows]), best[rows] - _margin(best[rows]),
            np.inf,
        )
        fresh = sums >= final
        return best, rows[fresh], groups[fresh]

    def _materialise(
        self,
        masks: np.ndarray,
        best: np.ndarray,
        rows: np.ndarray,
        scan_groups: np.ndarray,
        outcome: BlockOutcome,
    ) -> None:
        """Assemble the candidate butterflies and apply tie semantics.

        Any butterfly that can end up in a winner set — exactly equal or
        rtol-equal to the row's true canonical maximum — has a wedge-pair
        sum within ``_margin`` of the row's best pair sum, so the walk
        below only forms pairs above that cutoff: wedges are visited
        heaviest-first (the scan order pre-sorts them), and both loops
        break as soon as the heaviest remaining pair falls under it.
        """
        index = self.index
        exact = self.tie_mode == "exact"
        weight_of = index.wedge_weight
        scan_wedge = index.scan_wedge
        scan_start = index.scan_start
        by_row: Dict[int, List[int]] = defaultdict(list)
        for row, scan_group in zip(rows.tolist(), scan_groups.tolist()):
            by_row[row].append(scan_group)
        for row, row_groups in by_row.items():
            mask = masks[row]
            # Rows holding candidates always have a finite best.
            row_best = float(best[row])
            cutoff = row_best - _CANDIDATE_MARGIN * WEIGHT_RTOL * abs(
                row_best
            )
            found: List[Tuple[float, Butterfly]] = []
            for scan_group in row_groups:
                group = int(index.scan_order[scan_group])
                heavy_first = scan_wedge[
                    scan_start[scan_group]:scan_start[scan_group + 1]
                ]
                present = [
                    int(w) for w in heavy_first
                    if mask[index.wedge_e1[w]] and mask[index.wedge_e2[w]]
                ]
                weights = [float(weight_of[w]) for w in present]
                for i in range(len(present) - 1):
                    if weights[i] + weights[i + 1] < cutoff:
                        break
                    for j in range(i + 1, len(present)):
                        if weights[i] + weights[j] < cutoff:
                            break
                        butterfly = self._butterfly(
                            group, present[i], present[j]
                        )
                        found.append((butterfly.weight, butterfly))
            if not found:
                continue
            w_max = max(weight for weight, _ in found)
            if exact:
                winners = [bf for w, bf in found if w == w_max]
            else:
                winners = [
                    bf for w, bf in found if weights_equal(w, w_max)
                ]
            outcome.winners[row] = winners

    def _butterfly(self, group: int, a: int, b: int) -> Butterfly:
        """Cached canonical assembly of one wedge pair (winners recur)."""
        key = (a, b)
        cached = self._butterflies.get(key)
        if cached is not None:
            return cached
        index = self.index
        butterfly = assemble_butterfly(
            int(index.group_x[group]),
            int(index.group_z[group]),
            int(index.wedge_mid[a]),
            int(index.wedge_mid[b]),
            (
                int(index.wedge_e1[a]), int(index.wedge_e2[a]),
                int(index.wedge_e1[b]), int(index.wedge_e2[b]),
            ),
            self.graph.n_left,
            self.graph.weights,
        )
        self._butterflies[key] = butterfly
        return butterfly


def first_all_present(
    present: np.ndarray, indptr: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """Per world, the first CSR set whose members are all present.

    The shared world-check primitive: the Karp-Luby union kernel asks
    "which is the first event (weight order) fully contained in this
    world?", which is a masked gather over the flattened member array
    followed by a per-set missing-count segment reduction.

    Args:
        present: ``(block, n_atoms)`` boolean presence matrix.
        indptr: ``(n_sets + 1,)`` CSR row pointer; every set must be
            non-empty (``np.add.reduceat`` misreads empty segments).
        members: Flattened member (atom/edge) indices of all sets.

    Returns:
        ``(block,)`` int array of first satisfied set indices; rows
        satisfying no set return the index of the first unsatisfied set
        scan (callers conditioning a pick, as Karp-Luby does, always
        have at least one satisfied set).
    """
    if indptr.shape[0] < 2:
        raise ConfigurationError(
            "first_all_present needs at least one set"
        )
    if np.any(np.diff(indptr) <= 0):
        raise ConfigurationError(
            "first_all_present requires non-empty CSR sets"
        )
    gathered = ~present[:, members]
    # int32 missing-member counts are bounded by the largest CSR set
    # size and only tested against zero, so narrowing cannot alias.
    missing = np.add.reduceat(  # repro: noqa[DTY001]
        gathered.astype(np.int32), indptr[:-1], axis=1
    )
    return np.argmax(missing == 0, axis=1)
