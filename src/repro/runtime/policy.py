"""Execution policy for the resilient trial runtime.

A :class:`RuntimePolicy` bundles everything the trial engine needs to
know beyond the algorithm itself: where to checkpoint and how often,
where to resume from, the wall-clock budget, and an optional
fault-injection plan.  Estimators accept a policy via their
``runtime=`` keyword; with no policy they run exactly as before (one
uninterruptible in-process loop, apart from graceful Ctrl-C handling).
A degraded run re-widens its guarantee at the ``mu`` and ``delta`` its
method was called with, not at a policy setting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from ..errors import ConfigurationError
from .faults import FaultPlan


def check_adaptive(adaptive: bool) -> None:
    """Reject an ``adaptive=`` switch that is not ``True`` or ``False``."""
    if not isinstance(adaptive, bool):
        raise ConfigurationError(
            f"adaptive must be True or False, got {adaptive!r}"
        )


class Deadline:
    """A wall-clock budget, started at construction.

    The clock is injectable so tests can drive deadline expiry
    deterministically instead of sleeping.
    """

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds <= 0.0:
            raise ConfigurationError(f"seconds must be positive, got {seconds}")
        self.seconds = float(seconds)
        self._clock = clock
        self._started = clock()

    @property
    def elapsed(self) -> float:
        """Seconds since construction."""
        return self._clock() - self._started

    @property
    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.seconds - self.elapsed

    @property
    def expired(self) -> bool:
        """Whether the budget is exhausted."""
        return self.remaining <= 0.0


@dataclass
class RuntimePolicy:
    """Resilience knobs for one trial-loop execution.

    Attributes:
        checkpoint_path: Where to write atomic JSON snapshots; ``None``
            disables checkpointing.
        checkpoint_every: Trials (or rounds, for OLS-KL) between
            periodic snapshots; a block-granular loop snapshots at the
            first block boundary at or past each multiple.  A final
            snapshot is always written when the loop ends, degrades, or
            is interrupted.
        resume_from: Snapshot to restore before running.  A missing file
            starts a fresh run (so the same command line works for the
            first run and every rerun); a snapshot from a different
            method, graph, or trial target raises
            :class:`~repro.errors.CheckpointError`.
        timeout_seconds: Wall-clock budget.  On expiry the loop stops
            cleanly and the result is flagged ``degraded=True`` with its
            ε re-widened to the trials actually completed.
        on_checkpoint_error: ``"raise"`` (default) propagates
            :class:`~repro.errors.CheckpointError` on a failed snapshot
            write; ``"continue"`` logs it into the loop report and keeps
            sampling.
        faults: Optional deterministic fault-injection plan.
        clock: Monotonic clock used for the deadline (injectable for
            tests).
    """

    checkpoint_path: Optional[Union[str, Path]] = None
    checkpoint_every: int = 1_000
    resume_from: Optional[Union[str, Path]] = None
    timeout_seconds: Optional[float] = None
    on_checkpoint_error: str = "raise"
    faults: Optional[FaultPlan] = None
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.checkpoint_every <= 0:
            raise ConfigurationError(
                f"checkpoint_every must be positive, "
                f"got {self.checkpoint_every}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0.0:
            raise ConfigurationError(
                f"timeout_seconds must be positive, "
                f"got {self.timeout_seconds}"
            )
        if self.on_checkpoint_error not in ("raise", "continue"):
            raise ConfigurationError(
                "on_checkpoint_error must be 'raise' or 'continue', "
                f"got {self.on_checkpoint_error!r}"
            )

    def make_deadline(self) -> Optional[Deadline]:
        """The run's :class:`Deadline` (``None`` without a timeout)."""
        if self.timeout_seconds is None:
            return None
        return Deadline(self.timeout_seconds, clock=self.clock)
