"""Batched trial kernels: the vectorised sampling hot path.

This package evaluates Monte-Carlo trials in *blocks* — one NumPy kernel
call per few hundred trials instead of a Python-level per-trial loop.
Every sampling method runs on it; ``block_size`` (``None``:
:data:`DEFAULT_BLOCK_SIZE`) sizes the blocks:

- MC-VP / OS: :func:`wedge_block_loop` builds a :class:`BlockedWinnerLoop`
  that draws one mask matrix per block and hands the whole matrix to
  the vectorised wedge kernel (:class:`WedgeBlockKernel` over a
  once-built :class:`WedgeIndex`), whose per-world winner sets are
  bit-identical to the reference search (:mod:`repro.core.reference`).
- OLS: :class:`BlockedOptimizedLoop` + :class:`CandidateBlockKernel`
  replace the per-trial candidate walk with gather/reduce/argmax over
  a block drawn on the candidate-union edges only.
- OLS-KL: :class:`UnionBlockKernel` vectorises the Karp-Luby
  (event, world) trials of each candidate through the shared
  :func:`first_all_present` CSR presence primitive.

MC-VP/OS block memory is capped by the bytes budget of
:mod:`repro.kernels.memory` (:func:`resolve_block_budget`); an OLS
block holds ``block × n_union`` entries, bounded by the candidate set.
See ``docs/kernels.md`` for the kernel design and the kernel/reference
contract, ``docs/performance.md`` for measured numbers.
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
