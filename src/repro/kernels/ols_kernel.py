"""Vectorised Algorithm 5: the OLS candidate block kernel.

The paper's optimised estimator walks the weight-sorted candidate list
once per trial, lazily sampling edges until the first strictly lighter
candidate (kept as the reference, :mod:`repro.core.reference`).  This
kernel evaluates a whole *block* of trials at once:

1. the candidate→edge incidence matrix (``|C_MB| × 4``) is gathered
   once per run, in *union-local* columns: column ``i`` is the ``i``-th
   smallest edge id any candidate references;
2. a block draws only those union edges, the ones Alg. 5's lazy
   sampling can touch — a ``(block, n_union)`` Bernoulli matrix read
   row-major (:func:`~repro.worlds.sampler.bernoulli_rows`) — and one
   NumPy gather plus an ``all``-reduce yields every candidate's
   presence in every trial;
3. the weight-ordered "first surviving weight class wins" rule
   (Alg. 5 line 5) becomes a vectorised ``argmax`` over the per-trial
   presence matrix — candidates are weight-sorted, so the first present
   candidate pins ``w_max`` and every present candidate of equal weight
   shares the win, exactly like the per-trial walk.

A block holds ``block × n_union ≤ block × 4·|C_MB|`` entries, whatever
the graph's edge count.  The winner rule compares candidate weights
exactly (as the walk does); weight-class *construction* tolerance lives
upstream in :mod:`repro.butterfly.max_weight`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..butterfly import ButterflyKey
from ..errors import CheckpointError
from ..observability import Observer, ensure_observer
from ..sampling import ConvergenceTrace, checkpoint_schedule
from ..sampling.convergence import decode_traces, encode_traces
from ..sampling.rng import restore_rng_state, rng_state_payload
from ..worlds.sampler import bernoulli_rows
from .blocks import BlockSchedule

#: Checkpoint tag of the union-edge draw.  Block checkpoints written
#: when the kernel drew full-graph masks carry no tag, and resuming one
#: would continue on another stream.
UNION_DRAW = "candidate-edges"


class CandidateBlockKernel:
    """Presence/winner evaluation for one fixed candidate set.

    Attributes:
        union_edges: ``(n_union,)`` sorted distinct edge ids referenced
            by any candidate — the columns a block draws.
        union_probs: Their existence probabilities.
        edge_index: ``(|C|, 4)`` candidate→column incidence matrix in
            union-local columns.
        weights: ``(|C|,)`` candidate weights, descending.
        n_union_edges: ``n_union`` — the per-trial ``edges_sampled``
            accounting unit.
    """

    def __init__(self, candidates) -> None:
        items = candidates.butterflies
        self.n_candidates = len(items)
        edges = np.asarray(
            [butterfly.edges for butterfly in items], dtype=np.intp
        ).reshape(self.n_candidates, 4)
        self.union_edges, columns = np.unique(edges, return_inverse=True)
        self.edge_index = columns.reshape(self.n_candidates, 4)
        self.union_probs = candidates.graph.probs[self.union_edges]
        self.weights = np.asarray(
            [butterfly.weight for butterfly in items], dtype=float
        )
        self.n_union_edges = int(self.union_edges.size)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``(count, n_union)`` union-edge presence for ``count`` trials."""
        return bernoulli_rows(rng, self.union_probs, count)

    def presence(self, masks: np.ndarray) -> np.ndarray:
        """``(block, |C|)`` — whether each candidate exists per trial,
        from a ``(block, n_union)`` union-column mask block."""
        return masks[:, self.edge_index].all(axis=2)

    def winners(self, masks: np.ndarray) -> np.ndarray:
        """``(block, |C|)`` boolean winner matrix for a mask block.

        A candidate wins a trial when it is present and its weight
        equals the weight of the trial's first (heaviest) present
        candidate; trials with no present candidate win nothing.
        """
        present = self.presence(masks)
        any_present = present.any(axis=1)
        first = np.argmax(present, axis=1)
        winning_weight = self.weights[first]
        return (
            present
            & (self.weights[np.newaxis, :] == winning_weight[:, np.newaxis])
            & any_present[:, np.newaxis]
        )


class BlockedOptimizedLoop(BlockSchedule):
    """Algorithm 5's block loop behind the engine's checkpoint contract.

    One engine "trial" is one block; checkpoints therefore land on block
    boundaries only, where the RNG stream position is exact.  Blocks
    draw row-major from one stream, so every block size gives the same
    result.  Snapshot state: candidate keys, winner counts, edge
    accounting, traces, the RNG position, the block schedule and the
    :data:`UNION_DRAW` tag.

    Edge accounting follows the batched access pattern: every trial
    gathers all ``4·|C_MB|`` incidence slots (``edges_queried``) from a
    world restricted to the distinct candidate edges
    (``edges_sampled``), so the lazy-cache hit rate is the candidate
    set's edge-sharing ratio.
    """

    def __init__(
        self,
        candidates,
        generator: np.random.Generator,
        n_target: int,
        block_size: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
        observer: Optional[Observer] = None,
    ) -> None:
        super().__init__(n_target, block_size)
        self.candidates = candidates
        self.generator = generator
        self.items = candidates.butterflies
        self.kernel = CandidateBlockKernel(candidates)
        self.counts = np.zeros(len(self.items), dtype=np.int64)
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
        self._vectorized = ensure_observer(observer).metrics.counter(
            "kernel.trials_vectorized"
        )

    def run_trial(self, block: int) -> None:
        """Evaluate the 1-based ``block`` (one vectorised kernel call)."""
        length = self.lengths[block - 1]
        start = self.starts[block - 1]
        winners = self.kernel.winners(
            self.kernel.draw(self.generator, length)
        )
        self.counts += winners.sum(axis=0)
        self.edges_sampled += length * self.kernel.n_union_edges
        self.edges_queried += length * 4 * self.kernel.n_candidates
        self._vectorized.inc(length)
        if self._tracked_indices:
            self._record_traces(winners, start, length)

    def _record_traces(
        self, winners: np.ndarray, start: int, length: int
    ) -> None:
        """Record schedule points landing inside this block.

        The per-trial walk records ``counts/trial`` after each scheduled
        trial; the block equivalent reconstructs those intermediate
        counts from the within-block cumulative winner sums.
        """
        points = [
            t for t in range(start + 1, start + length + 1)
            if t in self._schedule
        ]
        if not points:
            return
        tracked = winners[:, self._tracked_indices]
        cumulative = np.cumsum(tracked, axis=0)
        counts_before = self.counts[self._tracked_indices] - tracked.sum(
            axis=0
        )
        for t in points:
            at_t = counts_before + cumulative[t - start - 1]
            for slot, index in enumerate(self._tracked_indices):
                self.traces[self.items[index].key].record(
                    t, at_t[slot] / t
                )

    # ------------------------------------------------------------------
    # Engine contract
    # ------------------------------------------------------------------

    def state_payload(self, completed: int) -> Dict:
        return {
            "draw": UNION_DRAW,
            "candidates": [list(b.key) for b in self.items],
            "counts": [int(count) for count in self.counts],
            "edges_sampled": int(self.edges_sampled),
            "edges_queried": int(self.edges_queried),
            **self.schedule_payload(),
            "traces": encode_traces(self.traces),
            "rng": rng_state_payload(self.generator),
        }

    def restore_state(self, payload: Dict) -> None:
        if payload.get("draw") != UNION_DRAW:
            raise CheckpointError(
                "checkpoint was written when OLS blocks drew full-graph "
                "masks; this run draws candidate edges only, so it "
                "cannot continue that stream — rerun from the start"
            )
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self.require_schedule(payload)
        self.counts = np.asarray(
            [int(count) for count in payload["counts"]], dtype=np.int64
        )
        self.edges_sampled = int(payload["edges_sampled"])
        self.edges_queried = int(payload["edges_queried"])
        self.traces = decode_traces(payload["traces"], keys=self.traces)
        restore_rng_state(self.generator, payload["rng"])

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def estimates(self, trials: int) -> Dict[ButterflyKey, float]:
        """Winner frequencies over ``trials`` completed trials."""
        if trials <= 0:
            return {butterfly.key: 0.0 for butterfly in self.items}
        return {
            butterfly.key: int(count) / trials
            for butterfly, count in zip(self.items, self.counts)
        }
