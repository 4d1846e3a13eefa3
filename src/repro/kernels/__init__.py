"""Batched trial kernels: the vectorised sampling hot path.

This package evaluates Monte-Carlo trials in *blocks* — one NumPy kernel
call per few hundred trials instead of a Python-level per-trial loop.
Every estimator routes through it when given a ``block_size``:

- MC-VP / OS: :func:`wedge_block_loop` builds a :class:`BlockedWinnerLoop`
  that draws one mask matrix per block and hands the whole matrix to
  the vectorised wedge kernel (:class:`WedgeBlockKernel` over a
  once-built :class:`WedgeIndex`), whose per-world winner sets are
  bit-identical to the scalar search.
- OLS: :class:`BlockedOptimizedLoop` + :class:`CandidateBlockKernel`
  replace the per-trial candidate walk with gather/reduce/argmax.
- OLS-KL: :class:`UnionBlockKernel` vectorises the Karp-Luby
  (event, world) trials of each candidate through the shared
  :func:`first_all_present` CSR presence primitive.

Peak block memory is capped by the bytes budget of
:mod:`repro.kernels.memory` (:func:`resolve_block_budget`).  See
``docs/kernels.md`` for the kernel design and the scalar/batched
equivalence contract, ``docs/performance.md`` for measured numbers.
"""

from .blocks import (
    DEFAULT_BLOCK_SIZE,
    block_lengths,
    block_starts,
    resolve_block_size,
    trials_in_blocks,
)
from .frequency_block import BlockedWinnerLoop, wedge_block_loop
from .karp_luby_block import UnionBlockKernel
from .memory import (
    DEFAULT_BYTES_BUDGET,
    BlockBudget,
    kernel_row_bytes,
    resolve_block_budget,
)
from .ols_kernel import BlockedOptimizedLoop, CandidateBlockKernel
from .wedge_block import (
    WedgeBlockKernel,
    WedgeIndex,
    build_wedge_index,
    first_all_present,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_BYTES_BUDGET",
    "BlockBudget",
    "BlockedOptimizedLoop",
    "BlockedWinnerLoop",
    "CandidateBlockKernel",
    "UnionBlockKernel",
    "WedgeBlockKernel",
    "WedgeIndex",
    "block_lengths",
    "block_starts",
    "build_wedge_index",
    "first_all_present",
    "kernel_row_bytes",
    "resolve_block_budget",
    "resolve_block_size",
    "trials_in_blocks",
    "wedge_block_loop",
]
