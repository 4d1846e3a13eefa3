"""Algorithm 4 — per-candidate probability estimation via Karp-Luby.

For each candidate ``B_i`` the estimator targets the union of the
blocking events ``E(B_j \\ B_i)`` over strictly heavier candidates
``B_j`` and converts the union estimate into

    ``P(B_i) = (1 − (Cnt_i/N_kl) · S_i) · Pr[E(B_i)]``    (Alg. 4 line 10).

Trial counts are either fixed or sized dynamically per candidate through
the Lemma VI.4 ratio (Equation 8) against a common Monte-Carlo baseline —
which is exactly how the paper configures OLS-KL in Section VIII-B.

The candidate loop routes through the resilient runtime engine with
``unit="candidate"``: checkpoints snapshot fully-completed candidates
only, and a wall-clock deadline can stop *inside* a candidate's trial
run — the partial estimate is kept and the outcome degrades with a
guarantee re-widened via the inverted Lemma VI.4 bound.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..butterfly import ButterflyKey
from ..errors import ConfigurationError
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
from ..runtime.engine import LoopInterrupt, execute_trial_loop
from ..runtime.policy import Deadline, RuntimePolicy
from .bounds import karp_luby_achievable_epsilon, karp_luby_trial_bound
from .candidates import CandidateSet
from .estimation import EstimationOutcome

#: How many Karp-Luby trials run between mid-candidate deadline checks.
DEADLINE_CHECK_EVERY = 64


class _KarpLubyLoop:
    """Algorithm 4's candidate loop behind the engine's contract.

    One engine "trial" is one candidate.  Snapshot state covers
    fully-completed candidates only — their estimates, per-candidate
    trial counts, traces — plus the candidate keys (resume validation)
    and the RNG stream position; a candidate interrupted mid-run is
    re-estimated from scratch on resume, which keeps the checkpoint
    payload exact.
    """

    def __init__(
        self,
        candidates: CandidateSet,
        generator,
        n_trials: Optional[int],
        mu: float,
        epsilon: float,
        delta: float,
        min_trials: int,
        max_trials: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
        deadline: Optional[Deadline] = None,
        block_size: Optional[int] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.candidates = candidates
        self.generator = generator
        self.items = candidates.butterflies
        self.n_trials = n_trials
        self.mu = mu
        self.epsilon = epsilon
        self.delta = delta
        self.min_trials = min_trials
        self.max_trials = max_trials
        self.deadline = deadline
        self.block_size = block_size
        self._tracked = set(track) if track is not None else set()
        self._checkpoints = checkpoints
        self.estimates: Dict[ButterflyKey, float] = {}
        self.traces: Dict[ButterflyKey, ConvergenceTrace] = {}
        self.trials_per_candidate: List[int] = []
        self._vectorized = ensure_observer(observer).metrics.counter(
            "kernel.trials_vectorized"
        )

    @property
    def total_trials(self) -> int:
        return sum(self.trials_per_candidate)

    def run_trial(self, trial: int) -> None:
        """Estimate candidate ``trial - 1`` (engine trials are 1-based)."""
        index = trial - 1
        butterfly = self.items[index]
        probs = self.candidates.graph.probs
        existence = self.candidates.existence_probability(index)
        if existence == 0.0:
            self.estimates[butterfly.key] = 0.0
            self.trials_per_candidate.append(0)
            return
        events = self.candidates.difference_events(index)
        if not events:
            # Nothing heavier can block this candidate: P(B) = Pr[E(B)].
            self.estimates[butterfly.key] = existence
            self.trials_per_candidate.append(0)
            if butterfly.key in self._tracked:
                trace = ConvergenceTrace(label=str(butterfly.key))
                trace.record(1, existence)
                self.traces[butterfly.key] = trace
            return

        sampler = KarpLubyUnionSampler(
            events, lambda e: float(probs[e]), self.generator
        )
        budget = _candidate_budget(
            self.n_trials, existence, sampler.weight_sum, self.mu,
            self.epsilon, self.delta, self.min_trials, self.max_trials,
        )
        trace: Optional[ConvergenceTrace] = None
        schedule: set = set()
        if butterfly.key in self._tracked:
            trace = ConvergenceTrace(label=str(butterfly.key))
            schedule = set(checkpoint_schedule(budget, self._checkpoints))

        if self.block_size is not None:
            done = self._run_blocked(
                sampler, budget, existence, trace, schedule
            )
        else:
            done = 0
            for step in range(1, budget + 1):
                sampler.trial()
                done = step
                if trace is not None and step in schedule:
                    trace.record(
                        step,
                        _to_probability(
                            sampler.estimate().raw_probability, existence
                        ),
                    )
                if (
                    self.deadline is not None
                    and step < budget
                    and step % DEADLINE_CHECK_EVERY == 0
                    and self.deadline.expired
                ):
                    break

        self.estimates[butterfly.key] = _to_probability(
            sampler.estimate().raw_probability, existence
        )
        self.trials_per_candidate.append(done)
        if trace is not None:
            self.traces[butterfly.key] = trace
        if done < budget:
            # The partial estimate above is kept for the degraded result,
            # but the engine's completed count excludes this candidate.
            raise LoopInterrupt("deadline")

    def _run_blocked(
        self,
        sampler: KarpLubyUnionSampler,
        budget: int,
        existence: float,
        trace: Optional[ConvergenceTrace],
        schedule: set,
    ) -> int:
        """This candidate's trials via the vectorised union kernel.

        Deadlines are checked between blocks (the block takes over the
        scalar path's every-:data:`DEADLINE_CHECK_EVERY` cadence), and
        scheduled trace points inside a block are reconstructed from the
        kernel's per-trial acceptance vector.
        """
        kernel = UnionBlockKernel(sampler)
        block = resolve_block_size(budget, self.block_size)
        done = 0
        while done < budget:
            length = min(block, budget - done)
            accepted = kernel.run_block(length)
            self._vectorized.inc(length)
            if trace is not None:
                points = [
                    t for t in range(done + 1, done + length + 1)
                    if t in schedule
                ]
                if points:
                    before = sampler.accepted - int(accepted.sum())
                    cumulative = np.cumsum(accepted)
                    for t in points:
                        raw = (
                            (before + int(cumulative[t - done - 1])) / t
                            * sampler.weight_sum
                        )
                        trace.record(t, _to_probability(raw, existence))
            done += length
            if (
                self.deadline is not None
                and done < budget
                and self.deadline.expired
            ):
                break
        return done

    def state_payload(self, completed: int) -> Dict:
        completed_items = self.items[:completed]
        index_of = {b.key: i for i, b in enumerate(self.items)}
        return {
            "candidates": [list(b.key) for b in self.items],
            "estimates": [
                [list(b.key), float(self.estimates[b.key])]
                for b in completed_items
            ],
            "trials_per_candidate": [
                int(n) for n in self.trials_per_candidate[:completed]
            ],
            "traces": encode_traces({
                key: trace for key, trace in self.traces.items()
                if index_of[key] < completed
            }),
            "rng": rng_state_payload(self.generator),
        }

    def restore_state(self, payload: Dict) -> None:
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self.estimates = {
            tuple(int(part) for part in raw): float(value)
            for raw, value in payload["estimates"]
        }
        self.trials_per_candidate = [
            int(n) for n in payload["trials_per_candidate"]
        ]
        self.traces = decode_traces(payload["traces"])
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
            Pr[E(B)]``).
        epsilon: Relative error of the ε-δ guarantee.
        delta: Failure probability of the ε-δ guarantee.
        min_trials: Floor on the per-candidate trial count (a ratio of 0
            still needs some trials to return an estimate).
        max_trials: Cap on the per-candidate trial count.
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        block_size: Run each candidate's union trials through the
            vectorised :class:`~repro.kernels.UnionBlockKernel` in
            blocks of this size (``None`` keeps the scalar lazy trials).
            Unbiased either way; deterministic for a fixed block size.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling candidate-granular checkpoint/resume and deadline
            degradation (the deadline is also checked *inside* each
            candidate's trial run — every
            :data:`DEADLINE_CHECK_EVERY` trials on the scalar path,
            between blocks on the batched path).
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``sampling`` span, engine counters, and the
            per-candidate trial-count histogram (the Lemma VI.4 budget
            spread).

    Returns:
        An :class:`~repro.core.estimation.EstimationOutcome` with
        ``method="karp-luby"`` and stats counters ``total_trials`` and
        ``base_trials`` (the Monte-Carlo baseline the ratios scale).  A
        degraded outcome keeps every estimate computed so far (including
        the partially-sampled candidate) and re-widens ε through the
        inverted Lemma VI.4 bound over the trials each candidate
        actually received; unprocessed candidates have no estimate.
    """
    if n_trials is not None and n_trials <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
    observer = ensure_observer(observer)
    generator = ensure_rng(rng)
    base = monte_carlo_trial_bound(mu, epsilon, delta)
    if len(candidates) == 0:
        return EstimationOutcome(
            method="karp-luby",
            estimates={},
            stats={"total_trials": 0.0, "base_trials": float(base)},
        )
    deadline = runtime.make_deadline() if runtime is not None else None
    if block_size is not None:
        if block_size <= 0:
            raise ConfigurationError(
                f"block_size must be positive, got {block_size}"
            )
        observer.set("kernel.block_size", float(block_size))
    loop = _KarpLubyLoop(
        candidates, generator, n_trials, mu, epsilon, delta,
        min_trials, max_trials,
        track=track, checkpoints=checkpoints, deadline=deadline,
        block_size=block_size, observer=observer,
    )
    with observer.span(
        "sampling", method="ols-kl", candidates=len(candidates)
    ):
        report = execute_trial_loop(
            method="ols-kl",
            graph_name=candidates.graph.name,
            n_target=len(candidates),
            loop=loop,
            policy=runtime,
            deadline=deadline,
            unit="candidate",
            observer=observer,
        )
    for done in loop.trials_per_candidate:
        observer.observe("ols-kl.trials_per_candidate", done)
    guarantee = None
    target_trials = None
    if report.degraded:
        guarantee, target_trials = _degraded_guarantee(
            candidates, loop, n_trials, mu, epsilon, delta,
            min_trials, max_trials,
        )
    return EstimationOutcome(
        method="karp-luby",
        estimates=dict(loop.estimates),
        traces=loop.traces,
        trials_per_candidate=list(loop.trials_per_candidate),
        stats={
            "total_trials": float(loop.total_trials),
            "base_trials": float(base),
        },
        stop_reason=report.stop_reason,
        target_trials=target_trials,
        guarantee=guarantee,
    )


def _degraded_guarantee(
    candidates: CandidateSet,
    loop: _KarpLubyLoop,
    n_trials: Optional[int],
    mu: float,
    epsilon: float,
    delta: float,
    min_trials: int,
    max_trials: int,
) -> tuple:
    """Re-widen a degraded KL run's guarantee from achieved trials.

    ε is the *widest* error certified among the candidates that received
    trials (inverted Lemma VI.4); it is infinite when a trial-needing
    candidate received none.  The target budget sums every candidate's
    planned trial count, so callers can see how far the run got.
    """
    target_total = 0
    eps_values: List[float] = []
    shortfall = False
    for index in range(len(candidates)):
        existence = candidates.existence_probability(index)
        if existence == 0.0:
            continue
        mass = candidates.blocking_mass(index)
        if mass == 0.0:
            continue
        budget = _candidate_budget(
            n_trials, existence, mass, mu, epsilon, delta,
            min_trials, max_trials,
        )
        target_total += budget
        done = (
            loop.trials_per_candidate[index]
            if index < len(loop.trials_per_candidate)
            else 0
        )
        if done > 0:
            eps_values.append(
                karp_luby_achievable_epsilon(
                    existence, mass, min(mu, existence), done, delta
                )
            )
        else:
            shortfall = True
    if shortfall or not eps_values:
        achieved_epsilon = math.inf
    else:
        achieved_epsilon = max(eps_values)
    guarantee = Guarantee(
        mu=mu,
        epsilon=achieved_epsilon,
        delta=delta,
        achieved_trials=loop.total_trials,
        target_trials=target_total,
    )
    return guarantee, target_total


def _candidate_budget(
    n_trials: Optional[int],
    existence: float,
    blocking_mass: float,
    mu: float,
    epsilon: float,
    delta: float,
    min_trials: int,
    max_trials: int,
) -> int:
    """Per-candidate trial count: fixed, or dynamic per Lemma VI.4."""
    if n_trials is not None:
        return n_trials
    target = min(mu, existence)
    bound = karp_luby_trial_bound(
        existence, blocking_mass, target, epsilon, delta, minimum=min_trials
    )
    return max(min_trials, min(max_trials, bound))


def _to_probability(raw_union: float, existence: float) -> float:
    """Algorithm 4 line 10 with clamping into ``[0, Pr[E(B)]]``."""
    value = (1.0 - raw_union) * existence
    return float(min(existence, max(0.0, value)))
