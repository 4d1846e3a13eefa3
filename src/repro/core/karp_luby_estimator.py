"""Algorithm 4 — per-candidate probability estimation via Karp-Luby.

For each candidate ``B_i`` the estimator targets the union of the
blocking events ``E(B_j \\ B_i)`` over strictly heavier candidates
``B_j`` and converts the union estimate into

    ``P(B_i) = (1 − (Cnt_i/N_kl) · S_i) · Pr[E(B_i)]``    (Alg. 4 line 10).

Trial counts are either fixed or sized dynamically per candidate through
the Lemma VI.4 ratio (Equation 8) against a common Monte-Carlo baseline —
which is exactly how the paper configures OLS-KL in Section VIII-B.

Each candidate's union trials run in blocks on the vectorised
:class:`~repro.kernels.UnionBlockKernel`; the paper's one-trial-at-a-time
union loop is the reference
(:func:`~repro.core.reference.reference_listing_sampling`), which shares
everything here but the per-candidate runner.

The candidate loop routes through the resilient runtime engine with
``unit="candidate"``: checkpoints snapshot fully-completed candidates
only, and a wall-clock deadline can stop *inside* a candidate's trial
run, between blocks — the partial estimate is kept and the outcome
degrades with a guarantee re-widened via the inverted Lemma VI.4 bound.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..butterfly import ButterflyKey
from ..errors import ConfigurationError
from ..kernels import DEFAULT_BLOCK_SIZE, UnionBlockKernel, resolve_block_size
from ..observability import Counter, Observer, ensure_observer
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


class _KarpLubyLoop:
    """Algorithm 4's candidate loop behind the engine's contract.

    One engine "trial" is one candidate.  Snapshot state covers
    fully-completed candidates only — their estimates, per-candidate
    trial counts, traces — plus the candidate keys (resume validation)
    and the RNG stream position; a candidate interrupted mid-run is
    re-estimated from scratch on resume, which keeps the checkpoint
    payload exact.  A candidate's trials run in :meth:`_run_candidate`,
    the one method the reference's per-trial loop overrides.
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
        block: int = DEFAULT_BLOCK_SIZE,
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
        self.block = block
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

        done = self._run_candidate(
            sampler, budget, existence, trace, schedule
        )
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

    def _run_candidate(
        self,
        sampler: KarpLubyUnionSampler,
        budget: int,
        existence: float,
        trace: Optional[ConvergenceTrace],
        schedule: set,
    ) -> int:
        """Run this candidate's ``budget`` union trials in kernel blocks
        and return how many ran before a deadline stopped them; trace
        points inside a block come from its acceptance vector."""
        done = 0
        for accepted in union_blocks(
            UnionBlockKernel(sampler), budget, self.block,
            self._vectorized, self.deadline,
        ):
            if trace is not None:
                before = sampler.accepted - int(accepted.sum())
                cumulative = np.cumsum(accepted)
                for t in range(done + 1, done + accepted.size + 1):
                    if t in schedule:
                        raw = (
                            (before + int(cumulative[t - done - 1])) / t
                            * sampler.weight_sum
                        )
                        trace.record(t, _to_probability(raw, existence))
            done += accepted.size
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
        block_size: Union trials per
            :class:`~repro.kernels.UnionBlockKernel` call (``None``:
            :data:`~repro.kernels.DEFAULT_BLOCK_SIZE`).  Deterministic
            for a fixed block size.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            enabling candidate-granular checkpoint/resume and deadline
            degradation (the deadline is also checked *inside* each
            candidate's trial run, between blocks).
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
    observer = ensure_observer(observer)
    return run_karp_luby_loop(
        _KarpLubyLoop, candidates, rng,
        n_trials=n_trials, mu=mu, epsilon=epsilon, delta=delta,
        min_trials=min_trials, max_trials=max_trials,
        track=track, checkpoints=checkpoints,
        runtime=runtime, observer=observer,
        block=union_block_size(n_trials, max_trials, block_size, observer),
    )


def run_karp_luby_loop(
    loop_type: type,
    candidates: CandidateSet,
    rng: RngLike = None,
    *,
    n_trials: Optional[int] = None,
    mu: float = 0.05,
    epsilon: float = 0.1,
    delta: float = 0.1,
    min_trials: int = 16,
    max_trials: int = 200_000,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    block: int = DEFAULT_BLOCK_SIZE,
) -> EstimationOutcome:
    """Run Algorithm 4's candidate loop under the engine.

    ``loop_type`` is :class:`_KarpLubyLoop` (kernel blocks of
    ``block`` trials) in production and its per-trial subclass in the
    reference; the other arguments are
    :func:`estimate_probabilities_karp_luby`'s.
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
    loop = loop_type(
        candidates, generator, n_trials, mu, epsilon, delta,
        min_trials, max_trials,
        track=track, checkpoints=checkpoints, deadline=deadline,
        block=block, observer=observer,
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


def union_block_size(
    n_trials: Optional[int],
    max_trials: int,
    block_size: Optional[int],
    observer: Observer,
) -> int:
    """The union kernel's block size, clamped to the largest
    per-candidate budget (which never changes how a budget splits into
    blocks) and recorded as ``kernel.block_size``."""
    block = resolve_block_size(
        max_trials if n_trials is None else n_trials, block_size
    )
    observer.set("kernel.block_size", float(block))
    return block


def union_blocks(
    kernel: UnionBlockKernel,
    count: int,
    block: int,
    vectorized: Counter,
    deadline: Optional[Deadline] = None,
) -> Iterator[np.ndarray]:
    """Run ``count`` union trials on ``kernel`` in blocks of at most
    ``block``, yielding each block's per-trial acceptance vector.

    Counts every trial in ``vectorized`` (``kernel.trials_vectorized``)
    and stops early, between blocks, once ``deadline`` has expired.
    """
    done = 0
    while done < count:
        length = min(block, count - done)
        accepted = kernel.run_block(length)
        vectorized.inc(length)
        yield accepted
        done += length
        if deadline is not None and done < count and deadline.expired:
            return


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
