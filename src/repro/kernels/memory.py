"""Bytes-budgeted block sizing for the vectorised wedge kernel.

The batched winner kernel (:mod:`repro.kernels.wedge_block`) trades
memory for speed: every block materialises a ``(block, n_edges)`` mask
matrix, a ``(block, n_wedges)`` wedge-presence matrix, per-group count
rows, and bounded chunk scratch for the winner scan.  On large graphs a
naive ``block_size=256`` would allocate hundreds of megabytes, so the
kernel caps the block size to a fixed **bytes budget** instead of
trusting the caller's number blindly.

The per-row cost model (see ``docs/kernels.md`` for the derivation)::

    row_bytes = n_edges                  # mask row (bool)
              + n_wedges                 # wedge presence row (bool)
              + 4 * WEDGE_CHUNK          # int32 count scratch (chunked)
              + 8 * n_groups             # per-group count row (int64)
              + 24 * WEDGE_CHUNK         # three float64 chunk buffers
              + 16 * chunk_groups        # top-1/top-2 chunk rows

and ``block = clamp(budget // row_bytes, 1, requested)``.  The policy is
deterministic — the same graph and budget always resolve to the same
block size, which checkpoint resume relies on — and it only ever
*shrinks* the requested block, so the MC-VP/OS bit-identity contract
(results identical for any block size) makes the cap semantically free.

Batched runs surface the decision through the ``kernel.bytes_budget``
and ``kernel.block_bytes`` gauges (see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

#: Default peak-bytes budget for one block's kernel working set (64 MiB).
DEFAULT_BYTES_BUDGET = 64 * 1024 * 1024

#: Upper bound on wedges reduced per *counter* chunk (MC-VP's
#: index-order presence pass).  Bounds the int32 prefix-sum scratch
#: independently of the wedge-index size (a single oversized group
#: still forms its own chunk).
WEDGE_CHUNK = 8192

#: Upper bound on wedges evaluated per *winner-scan* chunk.  Much
#: smaller than :data:`WEDGE_CHUNK`: the scan visits chunks in
#: descending static-bound order and exits between chunks, so the chunk
#: width is the floor on wasted work per world — most worlds find a
#: winner within the first few hundred wedges, and a narrow chunk lets
#: them stop there (measured ~15x scan speedup over 8192 on the bench
#: datasets, with the per-chunk NumPy dispatch overhead amortised away
#: by ~1024 wedges).
SCAN_CHUNK = 1024


@dataclass(frozen=True)
class BlockBudget:
    """Resolved block sizing for one batched run.

    Attributes:
        block_size: The effective block size (requested, possibly
            shrunk to fit the budget; always at least 1).
        row_bytes: Estimated working-set bytes per block row.
        block_bytes: Estimated peak working-set bytes of one block
            (``block_size * row_bytes``).
        budget_bytes: The budget the block was sized against.
        capped: Whether the budget shrank the requested block.
    """

    block_size: int
    row_bytes: int
    block_bytes: int
    budget_bytes: int
    capped: bool


def kernel_row_bytes(n_edges: int, n_wedges: int, n_groups: int) -> int:
    """Estimated kernel working-set bytes per block row.

    Mirrors the allocations of
    :meth:`~repro.kernels.wedge_block.WedgeBlockKernel.evaluate_block`;
    the chunk terms are bounded by :data:`WEDGE_CHUNK` because the
    winner scan and the count reduction both work on group chunks, never
    on the whole wedge axis at float width.
    """
    chunk = min(WEDGE_CHUNK, max(int(n_wedges), 1))
    # Chunks hold whole groups; in the worst case every chunk group has
    # two wedges, so the group-row scratch is at most chunk/2 wide.
    chunk_groups = max(chunk // 2, 1)
    return int(
        max(int(n_edges), 1)
        + max(int(n_wedges), 1)
        + 4 * chunk
        + 8 * max(int(n_groups), 1)
        + 24 * chunk
        + 16 * chunk_groups
    )


def resolve_block_budget(
    requested: int,
    n_edges: int,
    n_wedges: int,
    n_groups: int,
) -> BlockBudget:
    """Cap a requested block size to :data:`DEFAULT_BYTES_BUDGET`.

    Args:
        requested: Block size the caller asked for (already clamped to
            the trial budget by
            :func:`~repro.kernels.blocks.resolve_block_size`).
        n_edges: Edge count of the graph.
        n_wedges: Wedge count of the precomputed index.
        n_groups: Endpoint-pair group count of the index.

    Returns:
        The resolved :class:`BlockBudget`; ``block_size`` is never
        larger than ``requested`` and never smaller than 1 (one row must
        always fit, otherwise no block size could make progress).

    Raises:
        ConfigurationError: On a non-positive requested size.
    """
    if requested < 1:
        raise ConfigurationError(
            f"block_size must be positive, got {requested}"
        )
    row = kernel_row_bytes(n_edges, n_wedges, n_groups)
    fitting = max(1, DEFAULT_BYTES_BUDGET // row)
    block = min(int(requested), fitting)
    return BlockBudget(
        block_size=block,
        row_bytes=row,
        block_bytes=block * row,
        budget_bytes=DEFAULT_BYTES_BUDGET,
        capped=block < int(requested),
    )
