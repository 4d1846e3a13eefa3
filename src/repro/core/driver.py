"""The one trial driver of the winner-frequency estimators.

MC-VP (Alg. 1), OS (Alg. 2) and OLS's shared-trial estimator (Alg. 5)
are one estimator with three per-trial searches: each estimates
``P(B)`` as how often ``B`` wins a sampled world, the estimator
Theorem IV.1 sizes.  Each method supplies only its checkpointable loop
(scalar, or blocked over a batched kernel); :func:`drive_frequency_loop`
owns everything around it — the one engine call, the anytime racing
wrap, and the certified-stop or degraded-run guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

from ..observability import Observer
from ..runtime.degradation import Guarantee, recompute_guarantee
from ..runtime.engine import CheckpointableLoop, LoopReport, execute_trial_loop
from ..runtime.policy import RuntimePolicy


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
    adaptive=None,
) -> FrequencyRun:
    """Run one frequency estimator's loop under the engine.

    A loop exposing per-block trial counts as ``lengths`` runs one
    engine unit per block, checkpointing on block boundaries; any other
    runs one unit per trial.  With ``adaptive`` on (anything
    :func:`~repro.adaptive.resolve_adaptive` accepts), the racing rule
    reads the per-arm winner ``counts``; ``phantom`` adds a zero-count
    arm for every butterfly not yet seen (MC-VP/OS race over an open
    set, OLS over its fixed candidate list).
    """
    lengths = getattr(loop, "lengths", None)
    config = racer = None
    if adaptive is not None:
        # Lazy import: repro.adaptive consumes the core estimators, so
        # importing it eagerly here would cycle at package load.
        from ..adaptive import racing

        config = racing.resolve_adaptive(adaptive)
    if config is not None:
        racer = loop = racing.RacingFrequencyLoop(
            loop,
            counts_fn=counts,
            config=config,
            delta=racing.adaptive_delta(config, runtime),
            mu=racing.adaptive_mu(runtime),
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
            report.n_trials,
            report.n_trials_target,
            mu=runtime.guarantee_mu if runtime is not None else 0.05,
            delta=runtime.guarantee_delta if runtime is not None else 0.1,
        )
    return run
