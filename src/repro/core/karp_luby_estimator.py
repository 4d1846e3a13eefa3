"""Algorithm 4 — per-candidate probability estimation via Karp-Luby.

For each candidate ``B_i`` the estimator targets the union of the
blocking events ``E(B_j \\ B_i)`` over strictly heavier candidates
``B_j`` and converts the union estimate into

    ``P(B_i) = (1 − (Cnt_i/N_kl) · S_i) · Pr[E(B_i)]``    (Alg. 4 line 10).

Trial counts are either fixed or sized dynamically per candidate through
the Lemma VI.4 ratio (Equation 8) against a common Monte-Carlo baseline —
which is exactly how the paper configures OLS-KL in Section VIII-B.

The union trials run in *rounds* (:class:`KarpLubyRounds`): each round
hands every candidate that still needs trials one
:class:`~repro.kernels.UnionBlockKernel` block, so a candidate's budget
splits into the same blocks it would get run on its own.  A fixed run
takes every candidate to its static budget; adaptive mode wraps the same
loop with the racer of :mod:`repro.adaptive.racing` (exact pre-screen,
empirical-Bernstein eliminations, certified stop).  The paper's
candidate-at-a-time, one-trial-at-a-time loop is the reference
(:func:`~repro.core.reference.reference_listing_sampling`), which shares
the samplers, budgets and outcome assembly here.

The rounds route through the resilient runtime engine with
``unit="round"``: checkpoints snapshot every candidate's counts at round
boundaries, and a wall-clock deadline can stop inside a round, between
blocks — the run then degrades with a guarantee re-widened via the
inverted Lemma VI.4 bound over the trials each candidate received.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..butterfly import ButterflyKey
from ..errors import CheckpointError, ConfigurationError
from ..kernels import UnionBlockKernel, resolve_block_size
from ..observability import Observer, ensure_observer
from ..sampling import (
    ConvergenceTrace,
    KarpLubyUnionSampler,
    RngLike,
    checkpoint_schedule,
    ensure_rng,
    monte_carlo_trial_bound,
)
from ..sampling.convergence import decode_traces, encode_traces
from ..sampling.rng import restore_rng_state, rng_state_payload
from ..runtime.degradation import Guarantee
from ..runtime.engine import LoopInterrupt, LoopReport, execute_trial_loop
from ..runtime.policy import Deadline, RuntimePolicy, check_adaptive
from .bounds import karp_luby_achievable_epsilon, karp_luby_trial_bound
from .candidates import CandidateSet
from .estimation import EstimationOutcome


#: The keys of a round checkpoint's state payload.
STATE_KEYS = ("candidates", "live", "done", "accepted", "traces", "rng")


class KarpLubyRounds:
    """Algorithm 4's union trials behind the engine's contract, one
    engine unit per round.

    Round ``k`` gives every live candidate that still needs trials one
    union-kernel block of ``min(block, budget − done)`` trials.  A
    candidate's kernel is built around its sampler for its first block,
    and both are freed once its budget is spent or it is retired
    (:meth:`retire`, how the racer eliminates), so the loop holds at
    most the live set.  Snapshot state: per-candidate trial and
    acceptance counts, the live flags, traces, the candidate keys
    (resume validation) and the RNG stream position.
    """

    def __init__(
        self,
        candidates: CandidateSet,
        generator,
        samplers: List[KarpLubyUnionSampler],
        budgets: List[int],
        *,
        block: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
        deadline: Optional[Deadline] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.candidates = candidates
        self.generator = generator
        self.items = candidates.butterflies
        self.budgets = budgets
        self.masses = [sampler.weight_sum for sampler in samplers]
        self.block = block
        self.deadline = deadline
        m = len(self.items)
        self.existence = [
            candidates.existence_probability(i) for i in range(m)
        ]
        self.live = [True] * m
        self.done = [0] * m
        self.accepted = [0] * m
        self.traces: Dict[ButterflyKey, ConvergenceTrace] = {}
        self._schedules: Dict[int, set] = {}
        tracked = set(track) if track is not None else set()
        for index, butterfly in enumerate(self.items):
            if butterfly.key not in tracked:
                continue
            if budgets[index] > 0:
                self._schedules[index] = set(
                    checkpoint_schedule(budgets[index], checkpoints)
                )
            elif self.existence[index] > 0.0:
                # Nothing heavier can block it: P(B) = Pr[E(B)].
                trace = ConvergenceTrace(label=str(butterfly.key))
                trace.record(1, self.existence[index])
                self.traces[butterfly.key] = trace
        self._samplers: List[Optional[KarpLubyUnionSampler]] = list(
            samplers
        )
        self._kernels: Dict[int, UnionBlockKernel] = {}
        self._vectorized = ensure_observer(observer).metrics.counter(
            "kernel.trials_vectorized"
        )

    def rounds(self) -> int:
        """Rounds the live candidates' budgets take (at least one)."""
        return max([1] + [
            -(-budget // self.block)
            for budget, live in zip(self.budgets, self.live) if live
        ])

    def needs_trials(self, index: int) -> bool:
        return self.live[index] and self.done[index] < self.budgets[index]

    def retire(self, index: int) -> None:
        """Stop sampling candidate ``index`` and free its kernel."""
        self.live[index] = False
        self._free(index)

    def _free(self, index: int) -> None:
        self._kernels.pop(index, None)
        self._samplers[index] = None

    def run_trial(self, trial: int) -> None:
        """Run round ``trial``; a deadline is checked before each block,
        and the blocks run before it expired stay counted."""
        for index in range(len(self.items)):
            if not self.needs_trials(index):
                continue
            if self.deadline is not None and self.deadline.expired:
                raise LoopInterrupt("deadline")
            self._run_block(index)

    def _run_block(self, index: int) -> None:
        kernel = self._kernels.get(index)
        if kernel is None:
            kernel = self._kernels[index] = UnionBlockKernel(
                self._samplers[index]
            )
        done, before = self.done[index], self.accepted[index]
        share = min(self.block, self.budgets[index] - done)
        accepted = kernel.run_block(share)
        self._vectorized.inc(share)
        self.done[index] += share
        self.accepted[index] += int(accepted.sum())
        if self.done[index] == self.budgets[index]:
            self._free(index)
        schedule = self._schedules.get(index)
        if schedule:
            # Trace points inside the block come from its acceptance
            # vector.
            key = self.items[index].key
            cumulative = np.cumsum(accepted)
            for t in range(done + 1, done + share + 1):
                if t in schedule:
                    rate = (before + int(cumulative[t - done - 1])) / t
                    self.traces.setdefault(
                        key, ConvergenceTrace(label=str(key))
                    ).record(t, self.probability(index, rate))

    def probability(self, index: int, rate: float) -> float:
        """Algorithm 4 line 10 for candidate ``index`` at union
        acceptance rate ``rate``, clamped into ``[0, Pr[E(B)]]``."""
        return to_probability(rate * self.masses[index], self.existence[index])

    def estimate(self, index: int) -> float:
        done = self.done[index]
        return self.probability(
            index, self.accepted[index] / done if done else 0.0
        )

    def estimates(self) -> Dict[ButterflyKey, float]:
        """Every candidate's estimate, except those a deadline stopped
        before their first trial."""
        return {
            butterfly.key: self.estimate(index)
            for index, butterfly in enumerate(self.items)
            if self.done[index] or not self.budgets[index]
        }

    def state_payload(self, completed: int) -> Dict:
        return {
            "candidates": [list(b.key) for b in self.items],
            "live": [int(flag) for flag in self.live],
            "done": [int(n) for n in self.done],
            "accepted": [int(n) for n in self.accepted],
            "traces": encode_traces(self.traces),
            "rng": rng_state_payload(self.generator),
        }

    def restore_state(self, payload: Dict) -> None:
        if "race" in payload:
            raise CheckpointError(
                "checkpoint was written by an adaptive OLS-KL run; "
                "resume it with adaptive on"
            )
        missing = [key for key in STATE_KEYS if key not in payload]
        if missing:
            raise CheckpointError(
                "OLS-KL round checkpoint lacks "
                + ", ".join(repr(key) for key in missing)
            )
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self.live = [bool(flag) for flag in payload["live"]]
        self.done = [int(n) for n in payload["done"]]
        self.accepted = [int(n) for n in payload["accepted"]]
        self.traces = decode_traces(payload["traces"])
        for index in range(len(self.items)):
            if not self.needs_trials(index):
                self._free(index)
            elif self._samplers[index] is None:
                raise CheckpointError(
                    f"OLS-KL checkpoint samples candidate {index}, which "
                    "this run has retired"
                )
        restore_rng_state(self.generator, payload["rng"])


def estimate_probabilities_karp_luby(
    candidates: CandidateSet,
    rng: RngLike = None,
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
    adaptive: bool = False,
) -> EstimationOutcome:
    """Estimate ``P(B)`` for every candidate with per-candidate KL runs.

    Args:
        candidates: The weight-sorted candidate set.
        rng: Seed or generator.
        n_trials: Fixed ``N_kl`` for every candidate; ``None`` (default)
            sizes each candidate dynamically via Lemma VI.4 with the
            ``mu``/``epsilon``/``delta`` target.
        mu: Certification target ``μ`` for the dynamic sizing; clamped
            per candidate to its existence probability (``P(B) ≤
            Pr[E(B)]``).  Every guarantee the run states covers it.
        epsilon: Relative error of the ε-δ guarantee.
        delta: Failure probability of the ε-δ guarantee: the dynamic
            sizing's, a degraded run's re-widened one and an adaptive
            run's certified one.
        min_trials: Floor on the per-candidate trial count (a ratio of 0
            still needs some trials to return an estimate).
        max_trials: Cap on the per-candidate trial count.
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        block_size: Union trials per
            :class:`~repro.kernels.UnionBlockKernel` call, and so per
            candidate and round (``None``:
            :data:`~repro.kernels.DEFAULT_BLOCK_SIZE`).  Deterministic
            for a fixed block size.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling round-granular checkpoint/resume and deadline
            degradation (the deadline is also checked *inside* each
            round, between blocks).
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span, engine counters, and the
            per-candidate trial-count histogram (the Lemma VI.4 budget
            spread).
        adaptive: ``True`` races the rounds with
            :class:`~repro.adaptive.racing.KarpLubyRacer` — the exact
            pre-screen, then interval eliminations between rounds
            against the static budgets, which still cap each
            candidate.  ``False`` (default) runs every candidate to its
            budget.

    Returns:
        An :class:`~repro.core.estimation.EstimationOutcome` with
        ``method="karp-luby"`` and stats counters ``total_trials`` and
        ``base_trials`` (the Monte-Carlo baseline the ratios scale).  A
        degraded fixed run keeps the estimate of every candidate that
        received trials and re-widens ε through the inverted Lemma VI.4
        bound over the trials each candidate actually received.  An
        adaptive run adds ``trials_saved`` and ``candidates_eliminated``
        and always carries its realised guarantee.
    """
    if n_trials is not None and n_trials <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
    check_adaptive(adaptive)
    observer = ensure_observer(observer)
    generator = ensure_rng(rng)
    base = monte_carlo_trial_bound(mu, epsilon, delta)
    if len(candidates) == 0:
        return EstimationOutcome(
            method="karp-luby",
            estimates={},
            stats={"total_trials": 0.0, "base_trials": float(base)},
        )
    # Clamped to the largest per-candidate budget, which never changes
    # how a budget splits into blocks.
    block = resolve_block_size(
        max_trials if n_trials is None else n_trials, block_size
    )
    observer.set("kernel.block_size", float(block))
    samplers, budgets = union_samplers(
        candidates, generator, n_trials, mu, epsilon, delta,
        min_trials, max_trials,
    )
    deadline = runtime.make_deadline() if runtime is not None else None
    loop = KarpLubyRounds(
        candidates, generator, samplers, budgets, block=block,
        track=track, checkpoints=checkpoints, deadline=deadline,
        observer=observer,
    )
    racer = None
    if adaptive:
        # Lazy import: repro.adaptive consumes the core estimators, so
        # importing it eagerly here would cycle at package load.
        from ..adaptive import racing

        racer = racing.KarpLubyRacer(loop, delta=delta, mu=mu)
    meta = {} if racer is None else {"adaptive": True}
    with observer.span(
        "sampling", method="ols-kl", candidates=len(candidates), **meta
    ):
        report = execute_trial_loop(
            method="ols-kl",
            graph_name=candidates.graph.name,
            n_target=loop.rounds(),
            loop=loop if racer is None else racer,
            policy=runtime,
            deadline=deadline,
            unit="round",
            observer=observer,
        )
    for done in loop.done:
        observer.observe("ols-kl.trials_per_candidate", done)
    if racer is not None:
        return racer.outcome(report, base, observer)
    return karp_luby_outcome(loop, report, base, mu, delta)


def union_samplers(
    candidates: CandidateSet,
    generator: np.random.Generator,
    n_trials: Optional[int],
    mu: float,
    epsilon: float,
    delta: float,
    min_trials: int = 16,
    max_trials: int = 200_000,
) -> Tuple[List[KarpLubyUnionSampler], List[int]]:
    """Every candidate's union sampler and static trial budget.

    Candidate ``i``'s sampler runs Algorithm 4's union trials over its
    blocking events ``E(B_j \\ B_i)``, drawing from ``generator``; its
    ``weight_sum`` is the blocking mass ``S_i``.  The budget is the
    fixed ``n_trials``, or the Lemma VI.4 bound at target
    ``min(μ, Pr[E(B)])`` clamped to ``[min_trials, max_trials]``; a
    candidate that cannot exist, or that nothing heavier blocks, needs
    no trials (budget 0).
    """
    probs = candidates.graph.probs

    def prob_of(edge: int) -> float:
        return float(probs[edge])

    samplers: List[KarpLubyUnionSampler] = []
    budgets: List[int] = []
    for index in range(len(candidates)):
        sampler = KarpLubyUnionSampler(
            candidates.difference_events(index), prob_of, generator
        )
        samplers.append(sampler)
        existence = candidates.existence_probability(index)
        mass = sampler.weight_sum
        if existence == 0.0 or mass == 0.0:
            budgets.append(0)
        elif n_trials is not None:
            budgets.append(n_trials)
        else:
            bound = karp_luby_trial_bound(
                existence, mass, min(mu, existence), epsilon, delta,
                minimum=min_trials,
            )
            budgets.append(max(min_trials, min(max_trials, bound)))
    return samplers, budgets


def karp_luby_outcome(
    loop, report: LoopReport, base: int, mu: float, delta: float
) -> EstimationOutcome:
    """A fixed-budget run's outcome, from a finished loop exposing
    ``candidates``, ``budgets``, ``masses``, per-candidate ``done``,
    ``traces`` and ``estimates()`` (the round loop or the reference).

    A degraded run re-widens ε to the *widest* error certified among
    the candidates that received trials (inverted Lemma VI.4); it is
    infinite when a trial-needing candidate received none.  The target
    budget sums every candidate's static budget, so callers can see how
    far the run got.
    """
    guarantee = None
    if report.degraded:
        widths: List[float] = []
        shortfall = False
        for index, budget in enumerate(loop.budgets):
            if budget == 0:
                continue
            done = loop.done[index]
            if done == 0:
                shortfall = True
                continue
            existence = loop.candidates.existence_probability(index)
            widths.append(karp_luby_achievable_epsilon(
                existence, loop.masses[index], min(mu, existence), done,
                delta,
            ))
        guarantee = Guarantee(
            mu=mu,
            epsilon=math.inf if shortfall or not widths else max(widths),
            delta=delta,
            achieved_trials=sum(loop.done),
            target_trials=sum(loop.budgets),
        )
    return EstimationOutcome(
        method="karp-luby",
        estimates=loop.estimates(),
        traces=loop.traces,
        trials_per_candidate=list(loop.done),
        stats={
            "total_trials": float(sum(loop.done)),
            "base_trials": float(base),
        },
        stop_reason=report.stop_reason,
        target_trials=None if guarantee is None else guarantee.target_trials,
        guarantee=guarantee,
    )


def to_probability(raw_union: float, existence: float) -> float:
    """Algorithm 4 line 10 with clamping into ``[0, Pr[E(B)]]``."""
    value = (1.0 - raw_union) * existence
    return float(min(existence, max(0.0, value)))
