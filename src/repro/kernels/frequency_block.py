"""Block driver for the winner-frequency methods (MC-VP and OS).

MC-VP and OS evaluate one sampled world per trial; the world *sampling*
is batched here: one
:meth:`~repro.worlds.sampler.WorldSampler.sample_mask_block` call draws
a whole block's Bernoulli matrix at once, and the whole mask matrix is
handed to the vectorised wedge kernel
(:class:`~repro.kernels.wedge_block.WedgeBlockKernel`), which returns
every row's winner set in one shot.  :func:`wedge_block_loop` sets
that kernel up for one run: wedge index, bytes-budgeted block size and
the ``kernel.*`` gauges.

Because mask blocks are stream-equivalent to repeated one-world draws,
the world sequence — and therefore every winner count, trace point, and
estimate — is bit-identical to the one-world-per-trial reference
(:mod:`repro.core.reference`) for *any* block size (see the equivalence
contract in ``docs/kernels.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import CheckpointError
from ..observability import Observer, ensure_observer
from ..runtime.frequency import WinnerCountLoop
from .blocks import BlockSchedule, resolve_block_size
from .memory import resolve_block_budget
from .wedge_block import WedgeBlockKernel, WedgeIndex

#: The work counters a block loop's result stats carry.
_KERNEL_STATS = ("wedges_scanned", "trials_pruned")


def wedge_block_loop(
    inner: WinnerCountLoop,
    n_trials: int,
    block_size: Optional[int],
    observer: Observer,
    *,
    index: Optional[WedgeIndex],
    build: Callable[[], WedgeIndex],
    tie_mode: str,
) -> "BlockedWinnerLoop":
    """MC-VP's or OS's winner loop, run block by block on the wedge kernel.

    ``index`` (e.g. one attached from shared memory by the worker pool)
    is reused as is; without one, ``build`` makes a fresh one inside the
    ``wedge-index`` span.  The caller supplies ``build`` so the build
    stays bound in the estimator's own module.  The requested block
    (``None``: :data:`~repro.kernels.blocks.DEFAULT_BLOCK_SIZE`) is
    clamped to the trial budget, then shrunk to fit the kernel bytes
    budget, and the decision is recorded in the ``kernel.block_size``,
    ``kernel.bytes_budget``, ``kernel.block_bytes`` and
    ``kernel.wedges`` gauges.  ``tie_mode`` goes to the kernel.
    """
    block = resolve_block_size(n_trials, block_size)
    with observer.span("wedge-index"):
        if index is None:
            index = build()
    graph = inner.graph
    kernel = WedgeBlockKernel(graph, index, tie_mode=tie_mode)
    budget = resolve_block_budget(
        block, graph.n_edges, index.n_wedges, index.n_groups
    )
    observer.set("kernel.block_size", float(budget.block_size))
    observer.set("kernel.bytes_budget", float(budget.budget_bytes))
    observer.set("kernel.block_bytes", float(budget.block_bytes))
    observer.set("kernel.wedges", float(index.n_wedges))
    return BlockedWinnerLoop(
        inner, kernel, n_trials, budget.block_size, observer=observer
    )


class BlockedWinnerLoop(BlockSchedule):
    """Engine loop running a :class:`WinnerCountLoop` block by block.

    One engine "trial" is one block: the wrapped sampler draws the
    block's mask matrix in a single RNG call, the wedge kernel returns
    each row's winner set, and each set is folded into the inner loop's
    counters via :meth:`WinnerCountLoop.record_winners` (so histograms,
    traces, and checkpoint payloads are byte-compatible with the
    reference loop's, apart from the added ``block_size`` guard).  The
    inner loop's stats are the kernel scan's own work counters:
    ``wedges_scanned`` presence evaluations and ``trials_pruned``
    early-exited worlds.
    """

    def __init__(
        self,
        inner: WinnerCountLoop,
        kernel: WedgeBlockKernel,
        n_trials: int,
        block_size: int,
        observer: Optional[Observer] = None,
    ) -> None:
        super().__init__(n_trials, block_size)
        self.inner = inner
        self.kernel = kernel
        inner.stats.update(dict.fromkeys(_KERNEL_STATS, 0.0))
        self._vectorized = ensure_observer(observer).metrics.counter(
            "kernel.trials_vectorized"
        )

    # ------------------------------------------------------------------
    # Engine contract
    # ------------------------------------------------------------------

    def run_trial(self, block: int) -> None:
        """Evaluate the 1-based ``block`` against one shared mask matrix."""
        length = self.lengths[block - 1]
        start = self.starts[block - 1]
        masks = self.inner.sampler.sample_mask_block(length)
        outcome = self.kernel.evaluate_block(masks)
        stats = self.inner.stats
        stats["wedges_scanned"] += outcome.wedges_scanned
        stats["trials_pruned"] += outcome.rows_pruned
        for offset, winners in enumerate(outcome.winners):
            self.inner.record_winners(start + offset + 1, winners)
        self._vectorized.inc(length)

    def state_payload(self, completed: int) -> Dict:
        payload = self.inner.state_payload(
            self.trials_completed(completed)
        )
        payload.update(self.schedule_payload())
        return payload

    def restore_state(self, payload: Dict) -> None:
        self.require_schedule(payload)
        missing = sorted(set(_KERNEL_STATS) - set(payload["stats"]))
        if missing:
            raise CheckpointError(
                f"checkpoint stats lack the wedge kernel's {missing}; "
                "it was written by another search"
            )
        self.inner.restore_state(payload)
