"""Vectorised Algorithm 5: the OLS candidate block kernel.

The scalar optimised estimator walks the weight-sorted candidate list
once per trial, lazily sampling edges until the first strictly lighter
candidate.  This kernel evaluates a whole *block* of trials at once:

1. the candidate→edge incidence matrix (``|C_MB| × 4`` edge indices) is
   gathered once per run;
2. a ``(block, n_edges)`` mask matrix from
   :meth:`~repro.worlds.sampler.WorldSampler.sample_mask_block` yields
   the presence of every candidate in every trial with one NumPy gather
   and an ``all``-reduce;
3. the weight-ordered "first surviving weight class wins" rule
   (Alg. 5 line 5) becomes a vectorised ``argmax`` over the per-trial
   presence matrix — candidates are weight-sorted, so the first present
   candidate pins ``w_max`` and every present candidate of equal weight
   shares the win, exactly like the scalar walk.

The winner rule compares candidate weights exactly (as the scalar walk
does); weight-class *construction* tolerance lives upstream in
:mod:`repro.butterfly.max_weight`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..butterfly import ButterflyKey
from ..observability import Observer, ensure_observer
from ..sampling import ConvergenceTrace, checkpoint_schedule
from ..sampling.convergence import decode_traces, encode_traces
from ..worlds import WorldSampler
from .blocks import BlockSchedule


class CandidateBlockKernel:
    """Presence/winner evaluation for one fixed candidate set.

    Attributes:
        edge_index: ``(|C|, 4)`` candidate→edge incidence matrix.
        weights: ``(|C|,)`` candidate weights, descending.
        n_union_edges: Distinct edges referenced by any candidate — the
            per-trial ``edges_sampled`` accounting unit (the world
            restricted to candidate edges is all a trial consumes).
    """

    def __init__(self, candidates) -> None:
        items = candidates.butterflies
        self.n_candidates = len(items)
        self.edge_index = np.asarray(
            [butterfly.edges for butterfly in items], dtype=np.intp
        ).reshape(self.n_candidates, 4)
        self.weights = np.asarray(
            [butterfly.weight for butterfly in items], dtype=float
        )
        self.n_union_edges = int(np.unique(self.edge_index).size)

    def presence(self, masks: np.ndarray) -> np.ndarray:
        """``(block, |C|)`` — whether each candidate exists per trial."""
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
    boundaries only, where the wrapped sampler's RNG stream position is
    exact.  Snapshot state matches the scalar loop (candidate keys,
    winner counts, edge accounting, traces) plus the sampler state and
    the block size — resuming at a different block size is rejected, as
    the scalar/batched equivalence contract only holds per block size.

    Edge accounting follows the batched access pattern: every trial
    gathers all ``4·|C_MB|`` incidence slots (``edges_queried``) from a
    world restricted to the distinct candidate edges
    (``edges_sampled``), so the lazy-cache hit rate degenerates to the
    candidate-set edge-sharing ratio.
    """

    def __init__(
        self,
        candidates,
        sampler: WorldSampler,
        n_target: int,
        block_size: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
        observer: Optional[Observer] = None,
    ) -> None:
        super().__init__(n_target, block_size)
        self.candidates = candidates
        self.sampler = sampler
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
        masks = self.sampler.sample_mask_block(length)
        winners = self.kernel.winners(masks)
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

        The scalar loop records ``counts/trial`` after each scheduled
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
            "candidates": [list(b.key) for b in self.items],
            "counts": [int(count) for count in self.counts],
            "edges_sampled": int(self.edges_sampled),
            "edges_queried": int(self.edges_queried),
            **self.schedule_payload(),
            "traces": encode_traces(self.traces),
            "sampler": self.sampler.state_payload(),
        }

    def restore_state(self, payload: Dict) -> None:
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self.require_schedule(payload)
        self.counts = np.asarray(
            [int(count) for count in payload["counts"]], dtype=np.int64
        )
        self.edges_sampled = int(payload["edges_sampled"])
        self.edges_queried = int(payload["edges_queried"])
        self.traces = decode_traces(payload["traces"], keys=self.traces)
        self.sampler.restore_state(payload["sampler"])

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
