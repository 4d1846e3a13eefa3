"""Racing trial allocation with anytime elimination.

Two schedulers share the empirical-Bernstein machinery of
:mod:`~repro.adaptive.intervals`:

- :class:`RacingFrequencyLoop` wraps the frequency-method loops (MC-VP,
  OS, and OLS's optimised estimator — block loops and the per-trial
  references alike) and
  stops the whole run as soon as the incumbent butterfly's lower
  confidence limit clears every rival's upper limit.  Frequency trials
  are shared by all arms, so "racing" degenerates to certified early
  stopping; the stop rule is a pure function of the checkpointed winner
  counts, evaluated at deterministic trial boundaries, which makes
  checkpoint/resume exact with no extra state.
- :func:`adaptive_karp_luby` replaces Algorithm 4's fixed per-candidate
  Lemma VI.4 budgets: each engine unit is one *round* handing one
  union-kernel block of trials to every surviving candidate, candidates whose
  ``P(B)`` upper bound falls below the incumbent's lower bound are
  eliminated and stop consuming trials, and the run ends when one
  survivor remains (or every survivor exhausts its static budget — the
  fixed-path worst case).  Survivor set and interval state ride in the
  checkpoint payload.

Both paths report the ε they *realised* — the final half-width of the
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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..butterfly import ButterflyKey
from ..core.candidates import CandidateSet
from ..core.estimation import EstimationOutcome
from ..core.karp_luby_estimator import (
    _candidate_budget,
    _to_probability,
    union_block_size,
    union_blocks,
)
from ..errors import ConfigurationError
from ..kernels import DEFAULT_BLOCK_SIZE, UnionBlockKernel, WedgeIndex
from ..observability import Observer, ensure_observer
from ..runtime.degradation import Guarantee
from ..runtime.engine import LoopInterrupt, LoopReport, execute_trial_loop
from ..runtime.policy import RuntimePolicy
from ..sampling import (
    ConvergenceTrace,
    KarpLubyUnionSampler,
    RngLike,
    ensure_rng,
    monte_carlo_trial_bound,
)
from ..sampling.convergence import decode_traces, encode_traces
from ..sampling.rng import restore_rng_state, rng_state_payload
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
            OLS check at every block boundary instead, and adaptive
            OLS-KL hands each surviving candidate one kernel block
            (``block_size``) per racing round.
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


class _RacingKarpLubyLoop:
    """Algorithm 4's candidate sampling as racing rounds.

    One engine unit is one *round*: every surviving, trial-needing
    candidate receives one :class:`~repro.kernels.UnionBlockKernel`
    block of up to ``block`` Karp-Luby union trials, capped at its
    static Lemma VI.4 budget.
    Eliminations for the state after round ``k`` are applied at the
    start of round ``k+1`` — a pure function of the checkpointed
    interval state, so resume replays them exactly.
    """

    def __init__(
        self,
        candidates: CandidateSet,
        generator,
        budgets: List[int],
        mass: List[float],
        delta_race: float,
        config: AdaptiveConfig,
        pre_eliminated: Iterable[int] = (),
        track: Optional[Iterable[ButterflyKey]] = None,
        deadline=None,
        block: int = DEFAULT_BLOCK_SIZE,
        observer: Optional[Observer] = None,
    ) -> None:
        self.candidates = candidates
        self.generator = generator
        self.items = candidates.butterflies
        self.m = len(candidates)
        self.budgets = budgets
        self.mass = mass
        self.delta_race = delta_race
        self.config = config
        self.deadline = deadline
        self.block = block
        self._tracked = set(track) if track is not None else set()
        self.existence = [
            candidates.existence_probability(i) for i in range(self.m)
        ]
        self.alive = [True] * self.m
        for index in pre_eliminated:
            self.alive[index] = False
        self.done = [0] * self.m
        self.intervals = [EBInterval(1.0) for _ in range(self.m)]
        self.eliminated_upper: List[Optional[float]] = [None] * self.m
        self.race_eliminated = 0
        self.traces: Dict[ButterflyKey, ConvergenceTrace] = {}
        self._kernels: Dict[int, UnionBlockKernel] = {}
        self._events: Dict[int, list] = {}
        self._vectorized = ensure_observer(observer).metrics.counter(
            "kernel.trials_vectorized"
        )

    # ------------------------------------------------------------------
    # Engine contract
    # ------------------------------------------------------------------

    def run_trial(self, trial: int) -> None:
        self._check(trial - 1)
        interrupted = False
        for index in range(self.m):
            if not self._needs_trials(index):
                continue
            if self.deadline is not None and self.deadline.expired:
                interrupted = True
                break
            share = min(self.block, self.budgets[index] - self.done[index])
            accepted = sum(
                int(flags.sum()) for flags in union_blocks(
                    self._kernel(index), share, self.block,
                    self._vectorized,
                )
            )
            self.intervals[index].update_block(
                share, float(accepted), float(accepted)
            )
            self.done[index] += share
            key = self.items[index].key
            if key in self._tracked:
                trace = self.traces.setdefault(
                    key, ConvergenceTrace(label=str(key))
                )
                trace.record(self.done[index], self._estimate(index))
        if interrupted:
            raise LoopInterrupt("deadline")

    def state_payload(self, completed: int) -> Dict:
        return {
            "candidates": [list(b.key) for b in self.items],
            "alive": [int(flag) for flag in self.alive],
            "done": [int(n) for n in self.done],
            "intervals": [iv.to_dict() for iv in self.intervals],
            "eliminated_upper": [
                None if value is None else float(value)
                for value in self.eliminated_upper
            ],
            "race_eliminated": int(self.race_eliminated),
            "traces": encode_traces(self.traces),
            "rng": rng_state_payload(self.generator),
        }

    def restore_state(self, payload: Dict) -> None:
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self.alive = [bool(flag) for flag in payload["alive"]]
        self.done = [int(n) for n in payload["done"]]
        self.intervals = [
            EBInterval.from_dict(raw) for raw in payload["intervals"]
        ]
        self.eliminated_upper = [
            None if value is None else float(value)
            for value in payload["eliminated_upper"]
        ]
        self.race_eliminated = int(payload["race_eliminated"])
        self.traces = decode_traces(payload["traces"])
        self._kernels = {}
        restore_rng_state(self.generator, payload["rng"])

    # ------------------------------------------------------------------
    # Racing internals
    # ------------------------------------------------------------------

    def _events_of(self, index: int) -> list:
        if index not in self._events:
            self._events[index] = self.candidates.difference_events(index)
        return self._events[index]

    def _kernel(self, index: int) -> UnionBlockKernel:
        """Candidate ``index``'s union kernel, built once with its
        sampler."""
        kernel = self._kernels.get(index)
        if kernel is None:
            probs = self.candidates.graph.probs
            sampler = KarpLubyUnionSampler(
                self._events_of(index),
                lambda e: float(probs[e]),
                self.generator,
            )
            kernel = self._kernels[index] = UnionBlockKernel(sampler)
            # The sampler's event-ordered sum is the S_i every estimate
            # uses from here on (bit-consistent with the fixed path).
            self.mass[index] = sampler.weight_sum
        return kernel

    def _needs_trials(self, index: int) -> bool:
        return (
            self.alive[index]
            and self.existence[index] > 0.0
            and self.mass[index] > 0.0
            and self.done[index] < self.budgets[index]
        )

    def _estimate(self, index: int) -> float:
        existence = self.existence[index]
        if existence == 0.0:
            return 0.0
        raw = self.intervals[index].mean * self.mass[index]
        return _to_probability(raw, existence)

    def bounds_at(self, check: int) -> List["tuple[float, float]"]:
        """Per-candidate ``P(B)`` intervals at elimination check ``k``."""
        delta_arm = split_delta(
            anytime_delta(self.delta_race, check), self.m
        )
        bounds = []
        for index in range(self.m):
            existence = self.existence[index]
            if existence == 0.0 or self.mass[index] == 0.0:
                bounds.append((self._estimate(index), self._estimate(index)))
                continue
            interval = self.intervals[index]
            if interval.count == 0:
                bounds.append((0.0, existence))
                continue
            mass = self.mass[index]
            low = _to_probability(interval.upper(delta_arm) * mass, existence)
            high = _to_probability(interval.lower(delta_arm) * mass, existence)
            bounds.append((low, high))
        return bounds

    def _check(self, check: int) -> None:
        """Eliminate and possibly stop, for the state after round ``check``."""
        survivors = [i for i in range(self.m) if self.alive[i]]
        if check >= 1 and len(survivors) > 1:
            bounds = self.bounds_at(check)
            best_lower = max(bounds[i][0] for i in survivors)
            for index in survivors:
                if bounds[index][1] < best_lower:
                    self.alive[index] = False
                    self.eliminated_upper[index] = bounds[index][1]
                    self.race_eliminated += 1
            survivors = [i for i in range(self.m) if self.alive[i]]
        if len(survivors) <= 1:
            raise LoopInterrupt(ADAPTIVE_STOP)
        if not any(self._needs_trials(i) for i in survivors):
            raise LoopInterrupt(ADAPTIVE_STOP)

    @property
    def total_trials(self) -> int:
        return sum(self.done)

    def estimates(self) -> Dict[ButterflyKey, float]:
        """Final reported estimates.

        Survivors report their point estimates.  Race-eliminated
        candidates report the *smaller* of their point estimate and the
        certified upper bound that eliminated them, so a noisy partial
        estimate cannot outrank the certified winner.  (Pre-screen
        eliminations are capped by the driver, which holds the
        pre-screen bounds.)
        """
        values: Dict[ButterflyKey, float] = {}
        for index in range(self.m):
            estimate = self._estimate(index)
            ceiling = self.eliminated_upper[index]
            if ceiling is not None:
                estimate = min(estimate, ceiling)
            values[self.items[index].key] = estimate
        return values


def adaptive_karp_luby(
    candidates: CandidateSet,
    rng: RngLike = None,
    *,
    config: AdaptiveConfig,
    n_trials: Optional[int] = None,
    mu: float = 0.05,
    epsilon: float = 0.1,
    delta: float = 0.1,
    min_trials: int = 16,
    max_trials: int = 200_000,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    block_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    wedge_index: Optional[WedgeIndex] = None,
) -> EstimationOutcome:
    """Anytime replacement for Algorithm 4's fixed Lemma VI.4 budgets.

    Runs the sublinear pre-screen (unless disabled), then races the
    surviving candidates: one union-kernel block of ``block_size``
    Karp-Luby trials (``None``:
    :data:`~repro.kernels.DEFAULT_BLOCK_SIZE`) per survivor and round,
    interval eliminations between rounds, early stop at one survivor.  The
    static Lemma VI.4 budgets are still computed — they cap each
    candidate's trials and are the baseline the reported
    ``trials_saved`` is measured against.

    The total failure budget δ (``config.delta`` or the method's
    ``delta``) splits half to the pre-screen and half to the racing
    checks (all of it to racing when the pre-screen is off), so the
    returned guarantee certifies the overall claim at δ with the ε the
    intervals actually realised.

    Returns an :class:`~repro.core.estimation.EstimationOutcome` with
    ``method="karp-luby"`` (interchangeable with the fixed-path
    estimator) whose stats add ``trials_saved`` and
    ``candidates_eliminated``, and whose guarantee is populated even on
    complete runs — the *realised* budget.  A deadline expiry still
    degrades, but the anytime intervals keep the partial run's bounds
    honest: the guarantee reflects the trials and eliminations that
    actually happened.

    ``wedge_index`` is an optional prebuilt wedge-CSR index for the
    pre-screen (OLS-KL passes the one its preparing phase ran on); the
    pre-screen builds its own when it is absent.
    """
    observer = ensure_observer(observer)
    generator = ensure_rng(rng)
    if n_trials is not None and n_trials <= 0:
        raise ConfigurationError(
            f"n_trials must be positive, got {n_trials}"
        )
    base = monte_carlo_trial_bound(mu, epsilon, delta)
    m = len(candidates)
    if m == 0:
        return EstimationOutcome(
            method="karp-luby",
            estimates={},
            stats={"total_trials": 0.0, "base_trials": float(base)},
        )
    delta_total = config.delta if config.delta is not None else delta
    use_prescreen = config.prescreen and m >= 2
    delta_pre = delta_total / 2.0 if use_prescreen else 0.0
    delta_race = delta_total - delta_pre

    pre_lower: List[float] = []
    pre_eliminated: List[int] = []
    if use_prescreen:
        report = prescreen_candidates(
            candidates, generator,
            n_samples=config.prescreen_samples,
            delta=delta_pre, wedge_index=wedge_index, observer=observer,
        )
        pre_eliminated = report.eliminated
        pre_lower = report.lower_bounds

    mass = [candidates.blocking_mass(i) for i in range(m)]
    budgets = []
    for index in range(m):
        existence = candidates.existence_probability(index)
        if existence == 0.0 or mass[index] == 0.0:
            budgets.append(0)
            continue
        budgets.append(_candidate_budget(
            n_trials, existence, mass[index], mu, epsilon, delta,
            min_trials, max_trials,
        ))
    static_total = sum(budgets)
    block = union_block_size(n_trials, max_trials, block_size, observer)
    max_rounds = 1
    for index in range(m):
        if index in pre_eliminated or budgets[index] == 0:
            continue
        max_rounds = max(max_rounds, -(-budgets[index] // block))

    deadline = runtime.make_deadline() if runtime is not None else None
    loop = _RacingKarpLubyLoop(
        candidates, generator, budgets, mass, delta_race, config,
        pre_eliminated=pre_eliminated, track=track, deadline=deadline,
        block=block, observer=observer,
    )
    with observer.span(
        "sampling", method="ols-kl", candidates=m, adaptive=True
    ):
        report_loop = execute_trial_loop(
            method="ols-kl",
            graph_name=candidates.graph.name,
            n_target=max_rounds,
            loop=loop,
            policy=runtime,
            deadline=deadline,
            unit="round",
            observer=observer,
        )
    for done in loop.done:
        observer.observe("ols-kl.trials_per_candidate", done)

    used = loop.total_trials
    saved = static_total - used
    eliminated = loop.race_eliminated + len(pre_eliminated)
    estimates = loop.estimates()
    if pre_eliminated:
        # Cap pre-screen-eliminated candidates at their certified lower
        # bound — they received no trials, and reporting their bare
        # existence probability could outrank the certified winner.
        for index in pre_eliminated:
            key = candidates[index].key
            estimates[key] = min(estimates[key], pre_lower[index])

    final_check = max(1, report_loop.completed)
    bounds = loop.bounds_at(final_check)
    winner = max(
        (i for i in range(m) if loop.alive[i]),
        key=lambda i: (estimates[candidates[i].key], -i),
        default=0,
    )
    halfwidth = (bounds[winner][1] - bounds[winner][0]) / 2.0
    realized = realized_epsilon(
        halfwidth, estimates[candidates[winner].key], mu
    )

    stop_reason = report_loop.stop_reason
    if stop_reason == ADAPTIVE_STOP:
        stop_reason = None
    degraded = stop_reason is not None
    if not degraded:
        observer.inc("adaptive.trials_saved", float(max(0, saved)))
        observer.inc("adaptive.candidates_eliminated", float(eliminated))
        observer.set("adaptive.realized_epsilon", float(realized))
    guarantee = Guarantee(
        mu=mu,
        epsilon=realized,
        delta=delta_total,
        achieved_trials=used,
        target_trials=static_total,
        realized_trials=used,
        eliminated=eliminated,
    )
    return EstimationOutcome(
        method="karp-luby",
        estimates=estimates,
        traces=loop.traces,
        trials_per_candidate=list(loop.done),
        stats={
            "total_trials": float(used),
            "base_trials": float(base),
            "trials_saved": float(max(0, saved)),
            "candidates_eliminated": float(eliminated),
        },
        stop_reason=stop_reason,
        target_trials=static_total if degraded else None,
        guarantee=guarantee,
    )


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
