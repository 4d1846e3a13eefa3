"""Racing trial allocation with anytime elimination.

Two racers call the one empirical-Bernstein core of
:mod:`~repro.adaptive.intervals` (:func:`bernstein_limits`), and each
wraps the loop a fixed run drives:

- :class:`RacingFrequencyLoop` wraps the block loops of the frequency
  methods (MC-VP, OS, and OLS's optimised estimator) and stops the
  whole run as soon as the incumbent butterfly's lower confidence limit
  clears every rival's upper limit.  Frequency trials are shared by all
  arms, so "racing" degenerates to certified early stopping; the stop
  rule is a pure function of the checkpointed winner counts, evaluated
  at every block boundary, which makes checkpoint/resume exact with no
  extra state.  The per-trial references take no ``adaptive=``.
- :class:`KarpLubyRacer` wraps Algorithm 4's round loop
  (:class:`~repro.core.karp_luby_estimator.KarpLubyRounds`), in which
  each engine unit hands one union-kernel block of trials to every
  candidate that still needs some.  The racer drops the candidates the
  exact pre-screen dominates, eliminates between rounds every
  candidate whose ``P(B)`` upper bound falls below the incumbent's
  lower bound (it stops consuming trials), and ends the run when one
  survivor with union trials remains (or every survivor exhausts its
  static Lemma VI.4 budget — the fixed run's worst case).  The
  eliminations ride in the checkpoint payload; the pre-screen is a
  function of the candidate set alone, so a resumed run recomputes it.

Both report the ε they *realised*, in Theorem IV.1's relative form:
the final half-width of the incumbent's interval (frequency racing), or
the distance from the estimate to that interval's farther end
(OLS-KL) — through the
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
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..butterfly import ButterflyKey
from ..core.estimation import EstimationOutcome
from ..core.karp_luby_estimator import KarpLubyRounds
from ..errors import CheckpointError
from ..observability import Observer
from ..runtime.degradation import Guarantee
from ..runtime.engine import LoopInterrupt, LoopReport
from .intervals import bernstein_limits, realized_epsilon
from .prescreen import prescreen_candidates

#: Engine interrupt reason for a *certified* racing stop.  Result
#: assembly clears it — unlike ``"deadline"``, it does not degrade.
ADAPTIVE_STOP = "adaptive-stop"

#: Trials a frequency race runs before its first stop-rule check.
FIRST_CHECK_TRIALS = 64


class RacingFrequencyLoop:
    """Certified early stopping for the winner-frequency loops.

    Wraps a block loop whose unit ``k`` runs ``unit_lengths[k-1]``
    trials, and raises :data:`ADAPTIVE_STOP` once the incumbent's
    empirical-Bernstein lower limit exceeds every rival's upper limit —
    including, when ``phantom`` is set, a phantom zero-count arm
    standing in for every butterfly not yet observed (MC-VP/OS race
    over an open set of arms; OLS's optimised estimator races over the
    fixed candidate list and needs no phantom).

    The stop rule for the state after unit ``k`` is evaluated, as check
    ``k``, at the *start* of unit ``k+1`` from the inner loop's own
    counts, so a resumed run stops at exactly the block a continuous
    run would have — the checkpoint payload is the inner loop's,
    untouched.
    """

    def __init__(
        self,
        inner,
        counts_fn: Callable[[], Sequence[int]],
        delta: float,
        mu: float,
        unit_lengths: Sequence[int],
        phantom: bool = True,
    ) -> None:
        self.inner = inner
        self._counts_fn = counts_fn
        self.delta = delta
        self.mu = mu
        self.phantom = phantom
        #: Trials done once unit ``k`` has run, at index ``k``.
        self._done = [0, *accumulate(unit_lengths)]
        self.stopped_at: Optional[int] = None
        self.eliminated = 0
        self.halfwidth = math.inf
        self.realized = math.inf

    def run_trial(self, trial: int) -> None:
        # FIRST_CHECK_TRIALS >= 1, so check 0 (no trials yet) never runs.
        done = int(self._done[trial - 1])
        if done >= FIRST_CHECK_TRIALS and self._separated(
            done, trial - 1
        ):
            self.stopped_at = done
            raise LoopInterrupt(ADAPTIVE_STOP)
        self.inner.run_trial(trial)

    def state_payload(self, completed: int) -> Dict:
        return self.inner.state_payload(completed)

    def restore_state(self, payload: Dict) -> None:
        self.inner.restore_state(payload)

    def _separated(self, done: int, check: int) -> bool:
        counts = np.fromiter(self._counts_fn(), dtype=np.float64)
        arms = counts.size
        if arms == 0 or (arms == 1 and not self.phantom):
            return False
        if self.phantom:
            counts = np.append(counts, 0.0)
        lower, upper = bernstein_limits(
            counts, done, self.delta, check, counts.size
        )
        # The first of equal lower limits; the phantom is never it.
        best = int(np.argmax(lower[:arms]))
        if lower[best] <= np.delete(upper, best).max(initial=0.0):
            return False
        self.eliminated = arms - 1
        self.halfwidth = float(upper[best] - lower[best]) / 2.0
        self.realized = realized_epsilon(
            self.halfwidth, float(counts[best]) / done, self.mu
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
    runs the exact pre-screen and retires the candidates it dominates;
    the pre-screen depends on the candidate set alone, so a resumed run
    recomputes the interrupted run's.
    Before round ``k+1`` it eliminates, for the state after round
    ``k``, every live candidate whose ``P(B)`` upper bound falls below
    the best lower bound — a pure function of the checkpointed counts,
    so resume replays it exactly — and stops, certified
    (:data:`ADAPTIVE_STOP`), once one survivor with union trials
    remains or no survivor needs trials.  The static budgets still cap
    each candidate's trials and are the baseline ``trials_saved`` is
    measured against.
    """

    def __init__(
        self,
        inner: KarpLubyRounds,
        delta: float,
        mu: float,
    ) -> None:
        self.inner = inner
        self.delta = delta
        self.mu = mu
        report = prescreen_candidates(inner.candidates)
        self.pre_eliminated: List[int] = report.eliminated
        self.pre_lower: List[float] = report.lower_bounds
        for index in self.pre_eliminated:
            inner.retire(index)
        #: The certified upper bound that eliminated each candidate.
        self.ceilings: List[Optional[float]] = [None] * len(inner.items)

    def run_trial(self, trial: int) -> None:
        self._check(trial - 1)
        self.inner.run_trial(trial)

    def state_payload(self, completed: int) -> Dict:
        payload = self.inner.state_payload(completed)
        payload["race"] = {"eliminated_upper": list(self.ceilings)}
        return payload

    def restore_state(self, payload: Dict) -> None:
        state = dict(payload)
        # What the race adds to the round loop's state: the bound that
        # eliminated each candidate.
        race = state.pop("race", None)
        if race is None or sorted(race) != ["eliminated_upper"]:
            raise CheckpointError(
                "OLS-KL checkpoint lacks the racing state an adaptive "
                "resume needs ('race' holding only 'eliminated_upper'): "
                "a fixed run or an older adaptive run wrote it"
            )
        self.inner.restore_state(state)
        self.ceilings = [
            None if value is None else float(value)
            for value in race["eliminated_upper"]
        ]
        # Only the pre-screen retires a candidate without a ceiling.
        dropped = [
            index for index, live in enumerate(self.inner.live)
            if not live and self.ceilings[index] is None
        ]
        if dropped != self.pre_eliminated:
            raise CheckpointError(
                "OLS-KL checkpoint retires other candidates without a "
                "race bound than this candidate set's pre-screen drops"
            )

    def _check(self, check: int) -> None:
        """Eliminate and possibly stop, for the state after round ``check``."""
        inner = self.inner
        survivors = [i for i, live in enumerate(inner.live) if live]
        if check >= 1 and len(survivors) > 1:
            lower, upper = self.bounds_at(check)
            best_lower = lower[survivors].max()
            for index in survivors:
                if upper[index] < best_lower:
                    inner.retire(index)
                    self.ceilings[index] = float(upper[index])
            survivors = [i for i in survivors if inner.live[i]]
        # Before its first union trial a sole survivor's estimate is
        # Pr[E(B)], far above P(B) when heavier candidates block it.
        if not any(inner.needs_trials(i) for i in survivors) or (
            len(survivors) == 1 and inner.done[survivors[0]] > 0
        ):
            raise LoopInterrupt(ADAPTIVE_STOP)

    def bounds_at(self, check: int) -> "tuple[np.ndarray, np.ndarray]":
        """Per-candidate ``P(B)`` lower and upper limits at elimination
        check ``k``; the check's δ share splits over every candidate."""
        inner = self.inner
        existence = np.array(inner.existence)
        masses = np.array(inner.masses, dtype=np.float64)
        done = np.array(inner.done)
        # P(B) is exactly Pr[E(B)] when nothing heavier can block B (no
        # blocking mass) or B cannot exist; unsampled, it lies anywhere
        # in [0, Pr[E(B)]].
        exact = (existence == 0.0) | (masses == 0.0)
        sampled = ~exact & (done > 0)
        lower, upper = np.where(exact, existence, 0.0), existence.copy()
        rate_lower, rate_upper = bernstein_limits(
            np.array(inner.accepted)[sampled], done[sampled], self.delta,
            check, len(existence),
        )
        # Algorithm 4 line 10, clamped into [0, Pr[E(B)]]: a high union
        # rate means a low P(B), and vice versa.
        existence, masses = existence[sampled], masses[sampled]
        lower[sampled] = np.minimum(existence, np.maximum(
            0.0, (1.0 - rate_upper * masses) * existence
        ))
        upper[sampled] = np.minimum(existence, np.maximum(
            0.0, (1.0 - rate_lower * masses) * existence
        ))
        return lower, upper

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
        lowers, uppers = self.bounds_at(max(1, report.completed))
        winner = max(
            (i for i, live in enumerate(inner.live) if live),
            key=lambda i: (estimates[inner.items[i].key], -i),
            default=0,
        )
        # The interval need not be centred on the estimate: its farther
        # end is what the claim about the estimate must cover.
        estimate = estimates[inner.items[winner].key]
        lower, upper = float(lowers[winner]), float(uppers[winner])
        realized = realized_epsilon(
            max(upper - estimate, estimate - lower), estimate, self.mu
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
