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

Because mask blocks are stream-equivalent to repeated scalar draws, the
world sequence — and therefore every winner count, trace point, and
estimate — is bit-identical to the scalar path for *any* block size
(see the equivalence contract in ``docs/kernels.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..observability import Observer, ensure_observer
from ..runtime.frequency import WinnerCountLoop
from .blocks import BlockSchedule, resolve_block_size
from .memory import resolve_block_budget
from .wedge_block import BlockOutcome, WedgeBlockKernel, WedgeIndex

#: Folds one evaluated block's work counters into the method's stats.
TallyFn = Callable[[BlockOutcome], None]


def wedge_block_loop(
    inner: WinnerCountLoop,
    n_trials: int,
    block_size: int,
    observer: Observer,
    *,
    index: Optional[WedgeIndex],
    priority_kind: str,
    build: Callable[[], WedgeIndex],
    tie_mode: str,
    with_stats: bool,
    tally: TallyFn,
) -> "BlockedWinnerLoop":
    """MC-VP's or OS's winner loop, run block by block on the wedge kernel.

    ``index`` (e.g. one attached from shared memory by the worker pool)
    is reused only when it was built with ``priority_kind``; otherwise
    ``build`` makes a fresh one inside the ``wedge-index`` span.  The
    caller supplies ``build`` so the build stays bound in the
    estimator's own module.  The requested block is clamped to the
    trial budget, then shrunk to fit the kernel bytes budget, and the
    decision is recorded in the ``kernel.block_size``,
    ``kernel.bytes_budget``, ``kernel.block_bytes`` and
    ``kernel.wedges`` gauges.  ``tie_mode`` and ``with_stats`` go to
    the kernel; ``tally`` receives every block's outcome.
    """
    block = resolve_block_size(n_trials, block_size)
    with observer.span("wedge-index"):
        if index is None or index.priority_kind != priority_kind:
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
        inner, kernel, n_trials, budget.block_size,
        with_stats=with_stats, tally=tally, observer=observer,
    )


class BlockedWinnerLoop(BlockSchedule):
    """Engine loop running a :class:`WinnerCountLoop` block by block.

    One engine "trial" is one block: the wrapped sampler draws the
    block's mask matrix in a single RNG call, the wedge kernel returns
    each row's winner set, and each set is folded into the inner loop's
    counters via :meth:`WinnerCountLoop.record_winners` (so histograms,
    traces, and checkpoint payloads are byte-compatible with the scalar
    loop's, apart from the added ``block_size`` guard).
    """

    def __init__(
        self,
        inner: WinnerCountLoop,
        kernel: WedgeBlockKernel,
        n_trials: int,
        block_size: int,
        with_stats: bool,
        tally: TallyFn,
        observer: Optional[Observer] = None,
    ) -> None:
        super().__init__(n_trials, block_size)
        self.inner = inner
        self.kernel = kernel
        self._with_stats = with_stats
        self._tally = tally
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
        outcome = self.kernel.evaluate_block(
            masks, with_stats=self._with_stats
        )
        self._tally(outcome)
        for offset, winners in enumerate(outcome.winners):
            self.inner.record_winners(start + offset + 1, winners)
        self._vectorized.inc(length)

    def state_payload(self, completed: int) -> Dict:
        payload = self.inner.state_payload(
            self.trials_completed(completed)
        )
        payload["block_size"] = self.block_size
        return payload

    def restore_state(self, payload: Dict) -> None:
        self.require_block_size(payload)
        self.inner.restore_state(payload)
