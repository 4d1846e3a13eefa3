"""The one trial driver of the winner-frequency estimators.

MC-VP (Alg. 1), OS (Alg. 2) and OLS's shared-trial estimator (Alg. 5)
are one estimator with three per-trial searches: each estimates
``P(B)`` as how often ``B`` wins a sampled world, the estimator
Theorem IV.1 sizes.  Each method supplies only its checkpointable loop
(blocked over a batched kernel, or per trial in the references);
:func:`drive_frequency_loop` owns everything around it — the one engine
call, the anytime racing wrap, and the certified-stop or degraded-run
guarantee.
:func:`search_winners` adds the ``sampling`` span and the result for
MC-VP and OS, whose production (wedge kernel) and reference
(:mod:`repro.core.reference`) runs share one winner loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

from ..observability import Observer
from ..observability.profiling import stopwatch
from ..runtime.degradation import Guarantee, recompute_guarantee
from ..runtime.engine import CheckpointableLoop, LoopReport, execute_trial_loop
from ..runtime.frequency import WinnerCountLoop
from ..runtime.policy import RuntimePolicy, check_adaptive
from ..sampling.bounds import check_target
from .results import (
    MPMBResult,
    record_sampling_metrics,
    result_from_frequency_loop,
)


@dataclass
class FrequencyRun:
    """One driven run: the engine's report, the guarantee (a certified
    racing stop's realised one, or a degraded run's re-widened one) and
    the racing stats (``trials_saved``, ``candidates_eliminated``)."""

    report: LoopReport
    guarantee: Optional[Guarantee] = None
    stats: Dict[str, float] = field(default_factory=dict)


def drive_frequency_loop(
    loop: CheckpointableLoop,
    *,
    method: str,
    graph_name: str,
    n_trials: int,
    counts: Callable[[], Iterable[int]],
    phantom: bool,
    runtime: Optional[RuntimePolicy],
    observer: Observer,
    mu: float,
    delta: float,
    adaptive: bool = False,
) -> FrequencyRun:
    """Run one frequency estimator's loop under the engine.

    A loop exposing per-block trial counts as ``lengths`` runs one
    engine unit per block, checkpointing on block boundaries; any other
    (the per-trial references) runs one unit per trial.  With
    ``adaptive`` on (block loops only), the racing rule reads the
    per-arm winner ``counts`` at every block boundary; ``phantom`` adds
    a zero-count arm for every butterfly not yet seen (MC-VP/OS race
    over an open set, OLS over its fixed candidate list).  A certified
    stop and a degraded run both state their guarantee at ``mu`` and
    ``delta``.
    """
    check_adaptive(adaptive)
    check_target(mu, delta)
    lengths = getattr(loop, "lengths", None)
    racer = None
    if adaptive:
        # Lazy import: repro.adaptive consumes the core estimators, so
        # importing it eagerly here would cycle at package load.
        from ..adaptive import racing

        racer = loop = racing.RacingFrequencyLoop(
            loop,
            counts_fn=counts,
            delta=delta,
            mu=mu,
            phantom=phantom,
            unit_lengths=lengths,
        )
    report = execute_trial_loop(
        method=method,
        graph_name=graph_name,
        n_target=n_trials if lengths is None else len(lengths),
        loop=loop,
        policy=runtime,
        unit="trial" if lengths is None else "block",
        unit_lengths=lengths,
        observer=observer,
    )
    run = FrequencyRun(report)
    if racer is not None:
        # Must run before the degraded check: a certified racing stop
        # is cleared from the report so the run is not marked degraded.
        run.guarantee = racing.frequency_racing_summary(
            racer, report, observer
        )
        if run.guarantee is not None:
            run.stats = {
                "trials_saved": float(
                    report.n_trials_target - report.n_trials
                ),
                "candidates_eliminated": float(racer.eliminated),
            }
    if report.degraded:
        run.guarantee = recompute_guarantee(
            report.n_trials, report.n_trials_target, mu=mu, delta=delta,
        )
    return run


def search_winners(
    method: str,
    loop: WinnerCountLoop,
    n_trials: int,
    engine_loop: Callable[[WinnerCountLoop], CheckpointableLoop],
    *,
    runtime: Optional[RuntimePolicy],
    observer: Observer,
    mu: float,
    delta: float,
    adaptive: bool = False,
) -> MPMBResult:
    """Run MC-VP's or OS's winner ``loop`` and assemble its result.

    ``engine_loop`` turns ``loop`` into what the engine runs — the
    wedge kernel's block loop in production, the loop itself in the
    reference — inside the ``sampling`` span, so an index build is
    timed there.  Records the ``sampling.*`` and ``<method>.*``
    metrics of :func:`~repro.core.results.record_sampling_metrics`.
    """
    with observer.span("sampling", method=method), stopwatch() as timer:
        run = drive_frequency_loop(
            engine_loop(loop), method=method, graph_name=loop.graph.name,
            n_trials=n_trials, counts=lambda: loop.counts.values(),
            phantom=True, runtime=runtime, observer=observer,
            mu=mu, delta=delta, adaptive=adaptive,
        )
    result = result_from_frequency_loop(method, loop.graph, loop, run)
    record_sampling_metrics(observer, result, timer.seconds)
    return result
