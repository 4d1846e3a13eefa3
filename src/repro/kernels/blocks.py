"""Block scheduling for the batched trial kernels.

A *block* is a contiguous run of Monte-Carlo trials evaluated by one
vectorised kernel call instead of a Python-level per-trial loop.  The
runtime engine executes blocked loops with ``unit="block"``: its
checkpoints land on block boundaries only, so the snapshotted RNG stream
position is always exact (no half-consumed mask matrix), and a resumed
run reproduces the uninterrupted run bit for bit at the same block size.

The schedule is deterministic: ``n_trials`` splits into full blocks of
``block_size`` trials plus one trailing remainder block, and degraded or
deadline-stopped runs normalise their estimates over
``completed_blocks × block_size + remainder`` via :func:`trials_in_blocks`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import CheckpointError, ConfigurationError

#: Default trials per vectorised block.  Large enough to amortise the
#: Python dispatch of one kernel call over hundreds of trials, small
#: enough that a ``(block, n_edges)`` float matrix stays cache-friendly
#: and deadline checks (between blocks) stay responsive.
DEFAULT_BLOCK_SIZE = 256


def resolve_block_size(
    n_trials: int, block_size: Optional[int] = None
) -> int:
    """The effective block size for a run of ``n_trials`` trials.

    ``None`` selects :data:`DEFAULT_BLOCK_SIZE`; either way the result is
    clamped to ``n_trials`` so a tiny run is one exact block.

    Raises:
        ConfigurationError: If ``block_size`` is given but not positive.
    """
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if block_size <= 0:
        raise ConfigurationError(
            f"block_size must be positive, got {block_size}"
        )
    return max(1, min(block_size, n_trials))


def block_lengths(n_trials: int, block_size: int) -> List[int]:
    """Per-block trial counts: full blocks plus one remainder block.

    Raises:
        ConfigurationError: On non-positive ``n_trials``/``block_size``.
    """
    if n_trials <= 0:
        raise ConfigurationError(
            f"n_trials must be positive, got {n_trials}"
        )
    if block_size <= 0:
        raise ConfigurationError(
            f"block_size must be positive, got {block_size}"
        )
    full, remainder = divmod(n_trials, block_size)
    lengths = [block_size] * full
    if remainder:
        lengths.append(remainder)
    return lengths


def trials_in_blocks(lengths: Sequence[int], completed: int) -> int:
    """Trials contained in the first ``completed`` blocks of a schedule.

    This is the normaliser a degraded blocked run divides by:
    ``completed_blocks × block_size`` plus the remainder block if it ran.
    """
    if completed <= 0:
        return 0
    return int(sum(lengths[: min(completed, len(lengths))]))


def block_starts(lengths: Sequence[int]) -> List[int]:
    """Trial count preceding each block (0-based cumulative offsets)."""
    starts: List[int] = []
    total = 0
    for length in lengths:
        starts.append(total)
        total += length
    return starts


class BlockSchedule:
    """The block layout of one batched run, shared by the block loops.

    One engine unit is one block; :attr:`lengths` is what the trial
    driver hands the engine as ``unit_lengths``.  A checkpoint records
    the block size, and :meth:`require_block_size` rejects resuming it
    at another one: the batched equivalence contract is per block size.
    """

    def __init__(self, n_trials: int, block_size: int) -> None:
        self.block_size = int(block_size)
        self.lengths = block_lengths(n_trials, block_size)
        self.starts = block_starts(self.lengths)

    def trials_completed(self, completed_blocks: int) -> int:
        """Trials contained in the first ``completed_blocks`` blocks."""
        return trials_in_blocks(self.lengths, completed_blocks)

    def require_block_size(self, payload: Dict) -> None:
        """Raise unless ``payload`` was written at this block size.

        Raises:
            CheckpointError: On a block-size mismatch.
        """
        snapshot_block = int(payload.get("block_size", self.block_size))
        if snapshot_block != self.block_size:
            raise CheckpointError(
                f"checkpoint was written at block_size={snapshot_block}; "
                f"this run uses block_size={self.block_size} — resume "
                "with the block size the checkpoint was written at"
            )
