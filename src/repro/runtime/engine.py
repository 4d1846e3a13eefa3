"""The resilient trial-execution engine.

:func:`execute_trial_loop` is the one outer loop every sampling estimator
routes through.  The estimator supplies a *checkpointable loop* — an
object that runs one trial (or a block of them, or, for OLS-KL, one
round of blocks), snapshots its counters + RNG stream into a JSON
payload, and restores itself from such a payload — and the engine
supplies everything resilience needs around
it: resume from a snapshot, periodic atomic checkpoints, wall-clock
deadlines with clean early stop, graceful Ctrl-C handling, deterministic
fault injection, and observability (the ``engine.*`` metrics and the
``trial-loop`` span).

Paper context: the trial budgets this loop executes are the ones the
theory sizes — ``N ≥ (1/μ)·4 ln(2/δ)/ε²`` direct Monte-Carlo trials for
the frequency methods (Theorem IV.1; Lemma V.2 restates it for OS), and
the per-candidate Karp-Luby budgets of Lemma VI.4 / Eq. (8) when the
loop unit is a round.  A run that stops early therefore certifies a
*weaker* guarantee, which :mod:`repro.runtime.degradation` re-widens.

The contract that makes checkpoint/resume bit-for-bit deterministic:
``restore_state(state_payload())`` must reproduce the loop's counters
*and* its RNG stream position exactly, so a resumed run consumes the
same random numbers an uninterrupted run would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence

from ..errors import ConfigurationError, TrialBudgetExceeded
from ..observability import Observer, ensure_observer
from .checkpoint import (
    checkpoint_document,
    read_checkpoint,
    validate_checkpoint,
    write_checkpoint,
)
from .faults import InjectedCrash
from .policy import Deadline, RuntimePolicy


class CheckpointableLoop(Protocol):
    """What an estimator's inner loop must expose to the engine."""

    def run_trial(self, trial: int) -> None:
        """Execute the 1-based ``trial`` and fold it into the counters."""

    def state_payload(self, completed: int) -> Dict:
        """JSON-serialisable snapshot after ``completed`` trials."""

    def restore_state(self, payload: Dict) -> None:
        """Restore counters and RNG stream from a snapshot payload."""


class LoopInterrupt(Exception):
    """Raised by a loop body to stop the engine early with a reason.

    Used by adapters that detect deadline expiry *inside* one trial unit
    (e.g. OLS-KL mid-round) — the engine records the reason and
    finishes exactly like its own between-trial deadline check.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class LoopReport:
    """What happened to one engine execution.

    Attributes:
        completed: Trials completed in total (including resumed ones).
        target: The trial budget the run was sized for.
        resumed_from: Trials restored from a snapshot (0 for fresh runs).
        stop_reason: ``None`` when the full budget ran; ``"deadline"``
            or ``"interrupted"`` when the loop degraded.
        checkpoints_written: Snapshot writes performed (including the
            final one).
        checkpoint_errors: Failed snapshot writes that were tolerated
            (only with ``on_checkpoint_error="continue"``).
        trials_completed: Monte-Carlo trials completed, which differs
            from ``completed`` only for block-granular loops (where one
            engine unit is a whole block).  Defaults to ``completed``.
        trials_target: Trial budget behind ``target`` units; defaults
            to ``target``.
    """

    completed: int
    target: int
    resumed_from: int = 0
    stop_reason: Optional[str] = None
    checkpoints_written: int = 0
    checkpoint_errors: int = 0
    trials_completed: Optional[int] = None
    trials_target: Optional[int] = None

    @property
    def n_trials(self) -> int:
        """Trials completed, whatever the engine unit was."""
        return (
            self.completed
            if self.trials_completed is None
            else self.trials_completed
        )

    @property
    def n_trials_target(self) -> int:
        """Trial budget, whatever the engine unit was."""
        return (
            self.target if self.trials_target is None else self.trials_target
        )

    @property
    def degraded(self) -> bool:
        """Whether the loop stopped before its target budget."""
        return self.stop_reason is not None


def execute_trial_loop(
    *,
    method: str,
    graph_name: str,
    n_target: int,
    loop: CheckpointableLoop,
    policy: Optional[RuntimePolicy] = None,
    deadline: Optional[Deadline] = None,
    unit: str = "trial",
    unit_lengths: Optional[Sequence[int]] = None,
    observer: Optional[Observer] = None,
) -> LoopReport:
    """Run ``loop`` for up to ``n_target`` trials under ``policy``.

    Args:
        method: Method identifier stamped into checkpoints (``"os"``,
            ``"ols-kl"``, ...).
        graph_name: Graph identifier stamped into checkpoints.
        n_target: The trial budget.
        loop: The estimator's checkpointable inner loop.
        policy: Resilience knobs; ``None`` means a plain in-process loop
            (still with graceful Ctrl-C handling).
        deadline: Pre-built deadline to honour — pass when the loop body
            also needs it (OLS-KL checks mid-round); by default one
            is built from ``policy.timeout_seconds``.
        unit: Human/checkpoint name of one loop iteration (``"trial"``,
            ``"block"``, ``"round"`` or ``"candidate"``).
        unit_lengths: For block-granular loops: how many Monte-Carlo
            trials each of the ``n_target`` engine units contains.  The
            engine then counts real trials in the ``engine.trials.*``
            metrics, snapshots at the first block boundary at or past
            each multiple of ``policy.checkpoint_every`` trials, and
            reports ``trials_completed``/``trials_target`` so degraded
            runs normalise over trials, not blocks.
        observer: Optional :class:`~repro.observability.Observer`; when
            given, the loop runs inside a ``trial-loop`` span and keeps
            the ``engine.trials.completed`` / ``engine.trials.resumed``
            counters and checkpoint counters up to date.

    Returns:
        A :class:`LoopReport`; ``report.degraded`` distinguishes early
        stops from complete runs.

    Raises:
        ValueError: If ``n_target`` is not positive.
        CheckpointError: On resume/validation failures, or write
            failures when ``on_checkpoint_error="raise"``.
        InjectedCrash: When the fault plan schedules a simulated crash.
    """
    if n_target <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_target}")
    if unit_lengths is not None and len(unit_lengths) != n_target:
        raise ConfigurationError(
            f"unit_lengths covers {len(unit_lengths)} units but the "
            f"target is {n_target}"
        )
    policy = policy or RuntimePolicy()
    faults = policy.faults
    observer = ensure_observer(observer)
    trials_completed = observer.metrics.counter("engine.trials.completed")

    resumed_from = 0
    if policy.resume_from is not None:
        document = read_checkpoint(policy.resume_from)
        if document is not None:
            validate_checkpoint(
                document,
                method=method,
                graph_name=graph_name,
                unit=unit,
                target=n_target,
            )
            loop.restore_state(document["state"])
            resumed_from = min(int(document["completed"]), n_target)

    if deadline is None:
        deadline = policy.make_deadline()

    report = LoopReport(
        completed=resumed_from, target=n_target, resumed_from=resumed_from
    )
    if unit_lengths is not None:
        report.trials_target = int(sum(unit_lengths))
        report.trials_completed = int(sum(unit_lengths[:resumed_from]))

    def _snapshot() -> None:
        index = report.checkpoints_written + report.checkpoint_errors + 1
        fail_hook = None
        if faults is not None and faults.checkpoint_write_should_fail(index):
            def fail_hook() -> None:
                raise OSError("injected checkpoint write failure")  # repro: noqa[EXC001]
        document = checkpoint_document(
            method=method,
            graph_name=graph_name,
            unit=unit,
            target=n_target,
            completed=report.completed,
            state=loop.state_payload(report.completed),
        )
        try:
            write_checkpoint(
                policy.checkpoint_path, document, fail_hook=fail_hook
            )
        except Exception:
            report.checkpoint_errors += 1
            observer.inc("engine.checkpoints.errors")
            if policy.on_checkpoint_error == "raise":
                raise
        else:
            report.checkpoints_written += 1
            observer.inc("engine.checkpoints.written")

    if resumed_from:
        observer.inc(
            "engine.trials.resumed",
            resumed_from
            if unit_lengths is None
            else int(sum(unit_lengths[:resumed_from])),
        )
    with observer.span(
        "trial-loop", method=method, unit=unit, target=n_target
    ) as loop_span:
        try:
            for trial in range(resumed_from + 1, n_target + 1):
                if deadline is not None and deadline.expired:
                    report.stop_reason = "deadline"
                    break
                if faults is not None:
                    if faults.interrupt_before_trial == trial:
                        raise KeyboardInterrupt
                    if faults.crash_before_trial == trial:
                        raise InjectedCrash(
                            f"injected crash before {unit} {trial} "
                            f"of {method}"
                        )
                loop.run_trial(trial)
                report.completed = trial
                step, done = 1, trial
                if unit_lengths is not None:
                    step = int(unit_lengths[trial - 1])
                    report.trials_completed = (
                        (report.trials_completed or 0) + step
                    )
                    done = report.trials_completed
                trials_completed.inc(step)
                every = policy.checkpoint_every
                if (
                    policy.checkpoint_path is not None
                    and report.completed < n_target
                    and done // every > (done - step) // every
                ):
                    _snapshot()
        except KeyboardInterrupt:
            report.stop_reason = "interrupted"
        except LoopInterrupt as interrupt:
            report.stop_reason = interrupt.reason
        if loop_span is not None and report.stop_reason is not None:
            loop_span.meta["stop_reason"] = report.stop_reason

    if policy.checkpoint_path is not None and (
        report.completed > resumed_from or report.checkpoints_written == 0
    ):
        _snapshot()
    return report


def require_complete(report: LoopReport) -> LoopReport:
    """Raise unless the full budget ran (for strict certification runs).

    Raises:
        TrialBudgetExceeded: If the loop degraded.
    """
    if report.degraded:
        raise TrialBudgetExceeded(
            f"trial loop stopped after {report.completed} of "
            f"{report.target} trials ({report.stop_reason})"
        )
    return report
