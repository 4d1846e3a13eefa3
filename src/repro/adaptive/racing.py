"""Racing trial allocation with anytime elimination.

Two racers share the empirical-Bernstein machinery of
:mod:`~repro.adaptive.intervals`, and each wraps the loop a fixed run
drives:

- :class:`RacingFrequencyLoop` wraps the frequency-method loops (MC-VP,
  OS, and OLS's optimised estimator — block loops and the per-trial
  references alike) and
  stops the whole run as soon as the incumbent butterfly's lower
  confidence limit clears every rival's upper limit.  Frequency trials
  are shared by all arms, so "racing" degenerates to certified early
  stopping; the stop rule is a pure function of the checkpointed winner
  counts, evaluated at deterministic trial boundaries, which makes
  checkpoint/resume exact with no extra state.
- :class:`KarpLubyRacer` wraps Algorithm 4's round loop
  (:class:`~repro.core.karp_luby_estimator.KarpLubyRounds`), in which
  each engine unit hands one union-kernel block of trials to every
  candidate that still needs some.  The racer drops the candidates the
  sublinear pre-screen dominates, eliminates between rounds every
  candidate whose ``P(B)`` upper bound falls below the incumbent's
  lower bound (it stops consuming trials), and ends the run when one
  survivor remains (or every survivor exhausts its static Lemma VI.4
  budget — the fixed run's worst case).  The eliminations and the
  pre-screen's outcome ride in the checkpoint payload, so a resumed run
  keeps the interrupted run's pre-screen instead of drawing a new one.

Both report the ε they *realised* — the final half-width of the
incumbent's interval in Theorem IV.1's relative form — through the
``adaptive.realized_epsilon`` gauge and the extended
:class:`~repro.runtime.degradation.Guarantee` payload, alongside
``adaptive.trials_saved`` and ``adaptive.candidates_eliminated``.

An early stop triggered by the racing rule is a *certified* outcome,
not degradation: the engine's ``"adaptive-stop"`` interrupt reason is
cleared before results are assembled, unlike ``"deadline"`` or
``"interrupted"`` which keep marking the run degraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..butterfly import ButterflyKey
from ..core.candidates import CandidateSet
from ..core.estimation import EstimationOutcome
from ..core.karp_luby_estimator import KarpLubyRounds
from ..errors import CheckpointError, ConfigurationError
from ..kernels import WedgeIndex
from ..observability import Observer
from ..runtime.checkpoint import read_checkpoint
from ..runtime.degradation import Guarantee
from ..runtime.engine import LoopInterrupt, LoopReport
from ..runtime.policy import RuntimePolicy
from .intervals import (
    EBInterval,
    anytime_delta,
    realized_epsilon,
    split_delta,
)
from .prescreen import prescreen_candidates

#: Engine interrupt reason for a *certified* racing stop.  Result
#: assembly clears it — unlike ``"deadline"``, it does not degrade.
ADAPTIVE_STOP = "adaptive-stop"

#: What a raced OLS-KL checkpoint adds to the round loop's state, under
#: ``"race"``: the bound that eliminated each candidate, and the
#: pre-screen's eliminations and lower bounds.
RACE_KEYS = ("eliminated_upper", "pre_eliminated", "pre_lower")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs of the anytime adaptive mode.

    Attributes:
        delta: Total failure budget of the anytime claim (pre-screen +
            every elimination check, union-bounded).  ``None`` inherits
            the method's own δ so the adaptive run certifies the same
            confidence level as the fixed-budget run it replaces.
        check_every: Trials between stop-rule evaluations on the
            frequency methods' per-trial references
            (:mod:`repro.core.reference`).  Production MC-VP, OS and
            OLS check at every block boundary instead, and OLS-KL
            checks between rounds, each of which hands every surviving
            candidate one kernel block (``block_size``).
        min_trials: Trials required before the first frequency-method
            stop-rule evaluation may fire.
        prescreen: Run the sublinear wedge-pair pre-screen before
            OLS/OLS-KL sampling (half of ``delta`` is spent on it).
        prescreen_samples: Wedge-pair samples the pre-screen draws.
    """

    delta: Optional[float] = None
    check_every: int = 256
    min_trials: int = 64
    prescreen: bool = True
    prescreen_samples: int = 2048

    def __post_init__(self) -> None:
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ConfigurationError(
                f"adaptive delta must be in (0, 1), got {self.delta}"
            )
        for name in ("check_every", "min_trials"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(
                    f"adaptive {name} must be positive, got {value}"
                )
        if self.prescreen_samples < 0:
            raise ConfigurationError(
                "adaptive prescreen_samples must be >= 0, got "
                f"{self.prescreen_samples}"
            )


def resolve_adaptive(
    value: Union[None, bool, Dict, AdaptiveConfig],
) -> Optional[AdaptiveConfig]:
    """Normalise an ``adaptive=`` argument into a config (or ``None``).

    ``None``/``False`` disable the mode (the fixed-budget paths run
    bit-identically); ``True`` enables the defaults; a dict supplies
    :class:`AdaptiveConfig` fields; a config passes through.
    """
    if value is None or value is False:
        return None
    if value is True:
        return AdaptiveConfig()
    if isinstance(value, AdaptiveConfig):
        return value
    if isinstance(value, dict):
        return AdaptiveConfig(**value)
    raise ConfigurationError(
        f"adaptive must be a bool, dict, or AdaptiveConfig, got {value!r}"
    )


class RacingFrequencyLoop:
    """Certified early stopping for the winner-frequency loops.

    Wraps an engine loop (per-trial or blocked) and raises
    :data:`ADAPTIVE_STOP` once the incumbent's empirical-Bernstein
    lower limit exceeds every rival's upper limit — including, when
    ``phantom`` is set, a phantom zero-count arm standing in for every
    butterfly not yet observed (MC-VP/OS race over an open set of
    arms; OLS's optimised estimator races over the fixed candidate
    list and needs no phantom).

    The stop rule for the state after unit ``t`` is evaluated at the
    *start* of unit ``t+1`` from the inner loop's own counts, so a
    resumed run stops at exactly the trial a continuous run would have
    — the checkpoint payload is the inner loop's, untouched.
    """

    def __init__(
        self,
        inner,
        counts_fn: Callable[[], Sequence[int]],
        config: AdaptiveConfig,
        delta: float,
        mu: float,
        phantom: bool = True,
        unit_lengths: Optional[Sequence[int]] = None,
    ) -> None:
        self.inner = inner
        self._counts_fn = counts_fn
        self.config = config
        self.delta = delta
        self.mu = mu
        self.phantom = phantom
        self._cumulative = (
            list(accumulate(unit_lengths))
            if unit_lengths is not None
            else None
        )
        self.stopped_at: Optional[int] = None
        self.eliminated = 0
        self.halfwidth = math.inf
        self.realized = math.inf

    def run_trial(self, trial: int) -> None:
        done, check = self._boundary(trial - 1)
        if (
            check is not None
            and done >= self.config.min_trials
            and self._separated(done, check)
        ):
            self.stopped_at = done
            raise LoopInterrupt(ADAPTIVE_STOP)
        self.inner.run_trial(trial)

    def state_payload(self, completed: int) -> Dict:
        return self.inner.state_payload(completed)

    def restore_state(self, payload: Dict) -> None:
        self.inner.restore_state(payload)

    def _boundary(self, units: int) -> "tuple[int, Optional[int]]":
        """(trials done, check index) for ``units`` completed units."""
        if units <= 0:
            return 0, None
        if self._cumulative is not None:
            return int(self._cumulative[units - 1]), units
        if units % self.config.check_every != 0:
            return units, None
        return units, units // self.config.check_every

    def _separated(self, done: int, check: int) -> bool:
        counts = [int(count) for count in self._counts_fn()]
        arms = len(counts)
        if arms == 0 or (arms == 1 and not self.phantom):
            return False
        delta_check = anytime_delta(self.delta, check)
        delta_arm = split_delta(delta_check, arms + int(self.phantom))
        intervals = [
            EBInterval(1.0, done, float(c), float(c)) for c in counts
        ]
        lowers = [iv.lower(delta_arm) for iv in intervals]
        uppers = [iv.upper(delta_arm) for iv in intervals]
        best = max(range(arms), key=lambda i: (lowers[i], -i))
        rival = max(
            (uppers[i] for i in range(arms) if i != best),
            default=0.0,
        )
        if self.phantom:
            rival = max(
                rival, EBInterval(1.0, done, 0.0, 0.0).upper(delta_arm)
            )
        if lowers[best] <= rival:
            return False
        self.eliminated = arms - 1
        self.halfwidth = (uppers[best] - lowers[best]) / 2.0
        self.realized = realized_epsilon(
            self.halfwidth, intervals[best].mean, self.mu
        )
        return True


def frequency_racing_summary(
    racer: RacingFrequencyLoop,
    report: LoopReport,
    observer: Observer,
) -> Optional[Guarantee]:
    """Post-run bookkeeping for an adaptive frequency-method run.

    When the engine stopped through the racing rule, the stop is
    certified: the report's stop reason is cleared so downstream result
    assembly does not flag the run degraded, the ``adaptive.*`` metrics
    are recorded, and the realised guarantee (with the
    ``realized_trials``/``eliminated`` payload) is returned.  Runs that
    completed their full budget, or degraded for real reasons, return
    ``None`` untouched.
    """
    if report.stop_reason != ADAPTIVE_STOP:
        return None
    report.stop_reason = None
    saved = report.n_trials_target - report.n_trials
    observer.inc("adaptive.trials_saved", float(saved))
    observer.inc(
        "adaptive.candidates_eliminated", float(racer.eliminated)
    )
    observer.set("adaptive.realized_epsilon", float(racer.realized))
    return Guarantee(
        mu=racer.mu,
        epsilon=racer.realized,
        delta=racer.delta,
        achieved_trials=report.n_trials,
        target_trials=report.n_trials_target,
        realized_trials=report.n_trials,
        eliminated=racer.eliminated,
    )


class KarpLubyRacer:
    """Racing elimination around Algorithm 4's round loop.

    Wraps :class:`~repro.core.karp_luby_estimator.KarpLubyRounds` the
    way :class:`RacingFrequencyLoop` wraps the winner loops.  Built, it
    runs the sublinear pre-screen (unless disabled or with fewer than
    two candidates; half of ``delta`` goes to it) and retires the
    candidates it dominates; resuming (``runtime.resume_from``), it
    takes the interrupted run's pre-screen from the checkpoint instead.
    Before round ``k+1`` it eliminates, for the state after round
    ``k``, every live candidate whose ``P(B)`` upper bound falls below
    the best lower bound — a pure function of the checkpointed counts,
    so resume replays it exactly — and stops, certified
    (:data:`ADAPTIVE_STOP`), at one survivor or once no survivor needs
    trials.  The static budgets still cap each candidate's trials and
    are the baseline ``trials_saved`` is measured against.
    """

    def __init__(
        self,
        inner: KarpLubyRounds,
        config: AdaptiveConfig,
        delta: float,
        mu: float,
        *,
        wedge_index: Optional[WedgeIndex] = None,
        runtime: Optional[RuntimePolicy] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.inner = inner
        self.delta = delta
        self.mu = mu
        use_prescreen = config.prescreen and len(inner.items) >= 2
        delta_pre = delta / 2.0 if use_prescreen else 0.0
        self.delta_race = delta - delta_pre
        self.pre_eliminated: List[int] = []
        self.pre_lower: List[float] = []
        resumed = _resumed_race(runtime, inner.candidates)
        if resumed is not None:
            # A resumed run starts its generator elsewhere in the
            # stream, so a fresh pre-screen could drop other candidates
            # (and change the round target); keep the interrupted run's.
            self._restore_prescreen(resumed)
        elif use_prescreen:
            report = prescreen_candidates(
                inner.candidates, inner.generator,
                n_samples=config.prescreen_samples,
                delta=delta_pre, wedge_index=wedge_index, observer=observer,
            )
            self.pre_eliminated = report.eliminated
            self.pre_lower = report.lower_bounds
        for index in self.pre_eliminated:
            inner.retire(index)
        #: The certified upper bound that eliminated each candidate.
        self.ceilings: List[Optional[float]] = [None] * len(inner.items)

    def run_trial(self, trial: int) -> None:
        self._check(trial - 1)
        self.inner.run_trial(trial)

    def state_payload(self, completed: int) -> Dict:
        payload = self.inner.state_payload(completed)
        payload["race"] = {
            "eliminated_upper": list(self.ceilings),
            "pre_eliminated": list(self.pre_eliminated),
            "pre_lower": list(self.pre_lower),
        }
        return payload

    def restore_state(self, payload: Dict) -> None:
        state = dict(payload)
        race = state.pop("race", None)
        if race is None:
            raise CheckpointError(
                "OLS-KL checkpoint lacks the racing state ('race') an "
                "adaptive resume needs"
            )
        self._restore_prescreen(race)
        self.inner.restore_state(state)
        self.ceilings = [
            None if value is None else float(value)
            for value in race["eliminated_upper"]
        ]

    def _restore_prescreen(self, race: Dict) -> None:
        missing = [key for key in RACE_KEYS if key not in race]
        if missing:
            raise CheckpointError(
                "OLS-KL checkpoint racing state lacks "
                + ", ".join(repr(key) for key in missing)
            )
        self.pre_eliminated = [int(i) for i in race["pre_eliminated"]]
        self.pre_lower = [float(value) for value in race["pre_lower"]]

    def _check(self, check: int) -> None:
        """Eliminate and possibly stop, for the state after round ``check``."""
        inner = self.inner
        survivors = [i for i, live in enumerate(inner.live) if live]
        if check >= 1 and len(survivors) > 1:
            bounds = self.bounds_at(check)
            best_lower = max(bounds[i][0] for i in survivors)
            for index in survivors:
                if bounds[index][1] < best_lower:
                    inner.retire(index)
                    self.ceilings[index] = bounds[index][1]
            survivors = [i for i in survivors if inner.live[i]]
        if len(survivors) <= 1 or not any(
            inner.needs_trials(i) for i in survivors
        ):
            raise LoopInterrupt(ADAPTIVE_STOP)

    def bounds_at(self, check: int) -> List["tuple[float, float]"]:
        """Per-candidate ``P(B)`` intervals at elimination check ``k``."""
        inner = self.inner
        delta_arm = split_delta(
            anytime_delta(self.delta_race, check), len(inner.items)
        )
        bounds = []
        for index, existence in enumerate(inner.existence):
            if existence == 0.0 or inner.masses[index] == 0.0:
                estimate = inner.estimate(index)
                bounds.append((estimate, estimate))
                continue
            done = inner.done[index]
            if done == 0:
                bounds.append((0.0, existence))
                continue
            accepted = float(inner.accepted[index])
            interval = EBInterval(1.0, done, accepted, accepted)
            # A high union rate means a low P(B), and vice versa.
            bounds.append((
                inner.probability(index, interval.upper(delta_arm)),
                inner.probability(index, interval.lower(delta_arm)),
            ))
        return bounds

    def estimates(self) -> Dict[ButterflyKey, float]:
        """Final reported estimates.

        Survivors report their point estimates.  Eliminated candidates
        report the *smaller* of their point estimate and the certified
        bound that eliminated them — the race's upper bound, or the
        pre-screen's lower bound for a candidate that never sampled — so
        a noisy partial estimate cannot outrank the certified winner.
        """
        inner = self.inner
        values: Dict[ButterflyKey, float] = {}
        for index, butterfly in enumerate(inner.items):
            estimate = inner.estimate(index)
            ceiling = self.ceilings[index]
            if ceiling is not None:
                estimate = min(estimate, ceiling)
            values[butterfly.key] = estimate
        for index in self.pre_eliminated:
            key = inner.items[index].key
            values[key] = min(values[key], self.pre_lower[index])
        return values

    def outcome(
        self, report: LoopReport, base: int, observer: Observer
    ) -> EstimationOutcome:
        """The adaptive run's outcome, with its realised guarantee.

        A certified stop is not degradation: its reason is cleared and
        the ``adaptive.*`` metrics are recorded.  A deadline still
        degrades, but the anytime intervals keep the partial run's
        bounds honest: the guarantee reflects the trials and
        eliminations that actually happened.
        """
        inner = self.inner
        used = sum(inner.done)
        static_total = sum(inner.budgets)
        saved = max(0, static_total - used)
        eliminated = len(self.pre_eliminated) + sum(
            ceiling is not None for ceiling in self.ceilings
        )
        estimates = self.estimates()
        bounds = self.bounds_at(max(1, report.completed))
        winner = max(
            (i for i, live in enumerate(inner.live) if live),
            key=lambda i: (estimates[inner.items[i].key], -i),
            default=0,
        )
        realized = realized_epsilon(
            (bounds[winner][1] - bounds[winner][0]) / 2.0,
            estimates[inner.items[winner].key], self.mu,
        )
        stop_reason = report.stop_reason
        if stop_reason == ADAPTIVE_STOP:
            stop_reason = None
        if stop_reason is None:
            observer.inc("adaptive.trials_saved", float(saved))
            observer.inc("adaptive.candidates_eliminated", float(eliminated))
            observer.set("adaptive.realized_epsilon", float(realized))
        return EstimationOutcome(
            method="karp-luby",
            estimates=estimates,
            traces=inner.traces,
            trials_per_candidate=list(inner.done),
            stats={
                "total_trials": float(used),
                "base_trials": float(base),
                "trials_saved": float(saved),
                "candidates_eliminated": float(eliminated),
            },
            stop_reason=stop_reason,
            target_trials=None if stop_reason is None else static_total,
            guarantee=Guarantee(
                mu=self.mu,
                epsilon=realized,
                delta=self.delta,
                achieved_trials=used,
                target_trials=static_total,
                realized_trials=used,
                eliminated=eliminated,
            ),
        )


def _resumed_race(
    runtime: Optional[RuntimePolicy], candidates: CandidateSet
) -> Optional[Dict]:
    """The racing state of the OLS-KL checkpoint ``runtime`` resumes
    from, if it has one for ``candidates`` (the engine validates the
    rest of the document on restore)."""
    if runtime is None or runtime.resume_from is None:
        return None
    document = read_checkpoint(runtime.resume_from)
    if document is None or document.get("method") != "ols-kl":
        return None
    state = document.get("state", {})
    race = state.get("race")
    if race is not None:
        candidates.require_checkpoint_keys(state.get("candidates", []))
    return race


def adaptive_delta(
    config: AdaptiveConfig, runtime: Optional[RuntimePolicy]
) -> float:
    """The δ an adaptive frequency run certifies.

    ``config.delta`` when set, else the runtime policy's guarantee δ,
    else the paper default 0.1 — mirroring how degraded frequency runs
    re-widen their guarantees.
    """
    if config.delta is not None:
        return config.delta
    if runtime is not None:
        return runtime.guarantee_delta
    return 0.1


def adaptive_mu(runtime: Optional[RuntimePolicy]) -> float:
    """The μ the realised-ε statement normalises against."""
    if runtime is not None:
        return runtime.guarantee_mu
    return 0.05


def split_worker_delta(
    config: AdaptiveConfig, n_workers: int, default_delta: float = 0.1
) -> AdaptiveConfig:
    """δ-split an adaptive config across pool workers.

    Each worker races its own trial shard independently; giving every
    worker ``δ/n`` keeps the pooled claim at δ by a union bound.
    """
    if n_workers <= 1:
        return config
    effective = (
        config.delta if config.delta is not None else default_delta
    )
    return replace(config, delta=effective / n_workers)
