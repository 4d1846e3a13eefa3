"""Reference searches and sampling phases: the paper's per-trial loops.

Production evaluates blocks of trials on the kernels of
:mod:`repro.kernels`.  This module keeps the paper's one-trial-at-a-time
algorithms as the timing and test reference:

- :func:`reference_search` — MC-VP and OS.  Algorithm 1 enumerates
  every angle and butterfly of the world with the BFC-VP
  vertex-priority scheme [50] (the cost profile Section V removes);
  Algorithm 2 runs the Section V weight-ordered search.  Both count
  winners through the same trial driver as production — the estimator
  Theorem IV.1 sizes — so checkpoints and deadlines apply unchanged.
  The kernel must reproduce their estimates, winner sets and traces
  (``docs/kernels.md``); their own work counters are what the
  experiments harness times.
- :func:`reference_listing_sampling` — OLS and OLS-KL with the paper's
  sampling loops: Algorithm 5's lazy walk over the weight-sorted
  candidates (one trial per engine unit) and Algorithm 4's
  candidate-at-a-time union loop (one candidate per engine unit, one
  union trial at a time).  It shares the preparing phase, the
  checkpoint rebuild of ``C_MB`` and the result assembly with
  production (:func:`~repro.core.ols.run_listing_sampling`), and with
  production OLS-KL its static budgets and outcome; the kernels agree
  with it in distribution, not bit for bit (``docs/kernels.md``).

Both run the paper's fixed budgets only: adaptive mode races the
kernels' blocks, so neither takes ``adaptive=``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..butterfly import Butterfly, ButterflyKey, max_weight_butterflies
from ..butterfly.bfc_vp import assemble_butterfly
from ..errors import CheckpointError, ConfigurationError
from ..graph import (
    UncertainBipartiteGraph,
    degree_priority,
    expected_degree_priority,
)
from ..observability import Observer, ensure_observer
from ..runtime.engine import LoopInterrupt, execute_trial_loop
from ..runtime.frequency import WinnerCountLoop
from ..runtime.policy import Deadline, RuntimePolicy
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
from ..worlds import WorldSampler
from .candidates import CandidateSet
from .driver import search_winners
from .estimation import EstimationOutcome
from .karp_luby_estimator import (
    karp_luby_outcome,
    to_probability,
    union_samplers,
)
from .ols import DEFAULT_PREPARE_TRIALS, run_listing_sampling
from .optimized_estimator import run_optimized_loop
from .results import MPMBResult


def reference_search(
    graph: UncertainBipartiteGraph,
    method: str,
    n_trials: int,
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    antithetic: bool = False,
    prune: bool = True,
    pair_side: str = "auto",
    priority_kind: str = "degree",
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    mu: float = 0.05,
    delta: float = 0.1,
) -> MPMBResult:
    """Run reference MC-VP (``method="mc-vp"``) or OS (``"os"``).

    ``n_trials``, ``rng``, ``track``, ``checkpoints``, ``antithetic``,
    ``runtime``, ``observer``, ``mu`` and ``delta`` are as in
    :func:`~repro.core.mc_vp.mc_vp`, except that the engine unit is one
    trial.  The ablation switches:

    Args:
        prune: OS only — apply the Section V-B edge-ordering early exit
            (the result distribution is identical either way).
        pair_side: OS only — endpoint-pair side for the angle index:
            ``"auto"`` (Lemma V.1 cost minimisation), ``"left"`` or
            ``"right"``.
        priority_kind: MC-VP only — ``"degree"`` (the paper's BFC-VP
            order) or ``"expected-degree"`` (rank by ``d̄(u) = Σ p(e)``,
            the quantity Lemma IV.1's cost is written in).

    Returns:
        An :class:`~repro.core.results.MPMBResult` whose stats are the
        algorithm's work counters: ``angles_processed``,
        ``angles_stored_peak`` and ``butterflies_checked`` for MC-VP;
        ``edges_processed``, ``angles_processed``, ``angles_stored``
        and ``trials_pruned`` for OS (which also records the
        ``edge-ordering`` span).

    Raises:
        ConfigurationError: On an unknown method or priority kind, or
            when the other method's switch is set.
    """
    observer = ensure_observer(observer)
    sampler = WorldSampler(graph, ensure_rng(rng), antithetic=antithetic)
    if method == "mc-vp":
        if not prune or pair_side != "auto":
            raise ConfigurationError(
                "prune and pair_side are OS switches; reference MC-VP "
                "takes priority_kind only"
            )
        if priority_kind == "degree":
            priority = degree_priority(graph)
        elif priority_kind == "expected-degree":
            priority = expected_degree_priority(graph)
        else:
            raise ConfigurationError(
                f"priority_kind must be 'degree' or 'expected-degree', "
                f"got {priority_kind!r}"
            )
        stats = {
            "angles_processed": 0.0,
            "angles_stored_peak": 0.0,
            "butterflies_checked": 0.0,
        }

        def run_trial() -> List[Butterfly]:
            winners, (angles, checked) = _max_butterflies_vertex_priority(
                graph, sampler.sample_mask(), priority
            )
            stats["angles_processed"] += angles
            stats["angles_stored_peak"] = max(
                stats["angles_stored_peak"], angles
            )
            stats["butterflies_checked"] += checked
            return winners

    elif method == "os":
        if priority_kind != "degree":
            raise ConfigurationError(
                "priority_kind is an MC-VP switch; reference OS takes "
                "prune and pair_side only"
            )
        with observer.span("edge-ordering"):
            order = graph.edges_by_weight_desc
        stats = {
            "edges_processed": 0.0,
            "angles_processed": 0.0,
            "angles_stored": 0.0,
            "trials_pruned": 0.0,
        }

        def run_trial() -> List[Butterfly]:
            mask = sampler.sample_mask()
            search = max_weight_butterflies(
                graph, order[mask[order]], prune=prune, pair_side=pair_side
            )
            stats["edges_processed"] += search.n_edges_processed
            stats["angles_processed"] += search.n_angles_processed
            stats["angles_stored"] += search.n_angles_stored
            if search.pruned:
                stats["trials_pruned"] += 1
            return search.butterflies

    else:
        raise ConfigurationError(
            f"reference_search runs 'mc-vp' or 'os', got {method!r}"
        )
    loop = WinnerCountLoop(
        graph, sampler, run_trial, n_trials,
        track=track, checkpoints=checkpoints, stats=stats,
        observer=observer,
    )
    return search_winners(
        method, loop, n_trials, lambda loop: loop,
        runtime=runtime, observer=observer, mu=mu, delta=delta,
    )


def reference_listing_sampling(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    n_prepare: int = DEFAULT_PREPARE_TRIALS,
    estimator: str = "optimized",
    rng: RngLike = None,
    track: Optional[Iterable[ButterflyKey]] = None,
    checkpoints: int = 40,
    candidates: Optional[CandidateSet] = None,
    mu: float = 0.05,
    epsilon: float = 0.1,
    delta: float = 0.1,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
) -> MPMBResult:
    """Run reference OLS (``estimator="optimized"``) or OLS-KL
    (``"karp-luby"``) with the paper's per-trial sampling loops.

    The arguments are those of
    :func:`~repro.core.ols.ordering_listing_sampling` without
    ``block_size``, ``wedge_index`` and ``adaptive``.  Algorithm 5 walks
    the weight-sorted candidates once per trial, sampling edges lazily
    and stopping at the first candidate lighter than the heaviest
    existing one; its engine unit is one trial.  Algorithm 4 runs one
    candidate per engine unit, its union trials one at a time under the
    same fixed or Lemma VI.4 budgets as production, checking a deadline
    after every trial.  Neither side resumes the other's checkpoints:
    OLS checkpoints count trials here and blocks in production, and
    OLS-KL ones count candidates here and rounds in production (a
    reference checkpoint also records its runner, so one written by an
    older candidate-unit production run is refused too).

    Raises:
        ConfigurationError: On an unknown estimator.
    """
    observer = ensure_observer(observer)

    def sample(candidates, generator):
        if estimator == "optimized":
            loop = _OptimizedLoop(
                candidates, generator, n_trials,
                track=track, checkpoints=checkpoints,
            )
            return run_optimized_loop(
                loop, n_trials, runtime=runtime, observer=observer,
                mu=mu, delta=delta,
            )
        return _per_trial_karp_luby(
            candidates, generator, n_trials if n_trials > 0 else None,
            mu, epsilon, delta, track, checkpoints, runtime, observer,
        )

    return run_listing_sampling(
        graph, n_trials, n_prepare, estimator, rng, candidates,
        runtime, observer, sample,
    )


class _OptimizedLoop:
    """Algorithm 5's per-trial walk behind the engine's checkpoint
    contract.

    Snapshot state: per-candidate winner counts (in candidate order),
    the candidate keys themselves (resume validation), the lazy-sampling
    edge counters, trace checkpoints, and the RNG stream position.
    """

    def __init__(
        self,
        candidates: CandidateSet,
        generator,
        n_target: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
    ) -> None:
        self.candidates = candidates
        self.generator = generator
        self.items = candidates.butterflies
        self.counts = [0] * len(self.items)
        self.edges_sampled = 0
        self.edges_queried = 0
        tracked = set(track) if track is not None else set()
        self.traces: Dict[ButterflyKey, ConvergenceTrace] = {
            key: ConvergenceTrace(label=str(key)) for key in tracked
        }
        self._tracked_indices = [
            index for index, butterfly in enumerate(self.items)
            if butterfly.key in tracked
        ]
        self._schedule = set(checkpoint_schedule(n_target, checkpoints))

    def run_trial(self, trial: int) -> None:
        lazy = LazyEdgeTrial(self.candidates.graph, self.generator)
        w_max = float("-inf")
        # Walk candidates heaviest-first; the first existing butterfly
        # pins w_max, equal-weight peers are still checked, and the loop
        # exits at the first strictly lighter candidate (Alg. 5 line 5).
        for index, butterfly in enumerate(self.items):
            if butterfly.weight < w_max:
                break
            if lazy.all_present(butterfly.edges):
                self.counts[index] += 1
                w_max = butterfly.weight
        self.edges_sampled += lazy.n_sampled
        self.edges_queried += lazy.n_queries
        if self.traces and trial in self._schedule:
            for index in self._tracked_indices:
                self.traces[self.items[index].key].record(
                    trial, self.counts[index] / trial
                )

    def state_payload(self, completed: int) -> Dict:
        return {
            "candidates": [list(b.key) for b in self.items],
            "counts": list(self.counts),
            "edges_sampled": int(self.edges_sampled),
            "edges_queried": int(self.edges_queried),
            "traces": encode_traces(self.traces),
            "rng": rng_state_payload(self.generator),
        }

    def restore_state(self, payload: Dict) -> None:
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self.counts = [int(count) for count in payload["counts"]]
        self.edges_sampled = int(payload["edges_sampled"])
        # Checkpoints written before the query counter existed lack the
        # key; resuming from them keeps the hit rate merely incomplete.
        self.edges_queried = int(payload.get("edges_queried", 0))
        self.traces = decode_traces(payload["traces"], keys=self.traces)
        restore_rng_state(self.generator, payload["rng"])

    def estimates(self, completed: int) -> Dict[ButterflyKey, float]:
        if completed <= 0:
            return {butterfly.key: 0.0 for butterfly in self.items}
        return {
            butterfly.key: count / completed
            for butterfly, count in zip(self.items, self.counts)
        }


class LazyEdgeTrial:
    """Memoised per-edge Bernoulli sampling within a single trial.

    Algorithm 5's walk never materialises a full world: each trial asks
    about at most a few dozen edges (those of the candidate butterflies it
    walks before the weight-order early exit).  This class samples each
    queried edge exactly once per trial, so the answers within a trial are
    mutually consistent — together they describe one possible world
    restricted to the queried edges.

    Attributes:
        n_queries: Total :meth:`edge_present` calls this trial (memoised
            hits included); with :attr:`n_sampled` it yields the lazy
            cache hit rate ``1 - n_sampled / n_queries``.
    """

    __slots__ = ("_graph", "_rng", "_state", "n_queries")

    def __init__(
        self, graph: UncertainBipartiteGraph, rng: np.random.Generator
    ) -> None:
        self._graph = graph
        self._rng = rng
        self._state: Dict[int, bool] = {}
        self.n_queries = 0

    def edge_present(self, edge: int) -> bool:
        """Whether ``edge`` exists in this trial's implicit world."""
        self.n_queries += 1
        state = self._state.get(edge)
        if state is None:
            state = bool(self._rng.random() < self._graph.probs[edge])
            self._state[edge] = state
        return state

    def force_present(self, edges: Iterable[int]) -> None:
        """Condition this trial's world on the given edges being present,
        as Algorithm 4 line 7 samples a world *given* that a chosen
        butterfly's extra edges exist.

        Raises:
            ConfigurationError: If an edge was already sampled absent —
                the caller must force edges before querying them.
        """
        for edge in edges:
            previous = self._state.get(edge)
            if previous is False:
                raise ConfigurationError(
                    f"edge {edge} was already sampled absent; conditioning "
                    "must happen before the edge is queried"
                )
            self._state[edge] = True

    def all_present(self, edges: Iterable[int]) -> bool:
        """Whether every edge in ``edges`` exists in this trial's world."""
        return all(self.edge_present(e) for e in edges)

    @property
    def n_sampled(self) -> int:
        """How many distinct edges this trial has touched."""
        return len(self._state)


def _per_trial_karp_luby(
    candidates: CandidateSet,
    generator,
    n_trials: Optional[int],
    mu: float,
    epsilon: float,
    delta: float,
    track: Optional[Iterable[ButterflyKey]],
    checkpoints: int,
    runtime: Optional[RuntimePolicy],
    observer: Observer,
) -> EstimationOutcome:
    """Algorithm 4 candidate by candidate under the engine, with
    production's samplers, static budgets and outcome assembly."""
    samplers, budgets = union_samplers(
        candidates, generator, n_trials, mu, epsilon, delta
    )
    deadline = runtime.make_deadline() if runtime is not None else None
    loop = _PerTrialKarpLubyLoop(
        candidates, generator, samplers, budgets,
        track=track, checkpoints=checkpoints, deadline=deadline,
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
    for done in loop.done:
        observer.observe("ols-kl.trials_per_candidate", done)
    return karp_luby_outcome(
        loop, report, monte_carlo_trial_bound(mu, epsilon, delta), mu, delta
    )


class _PerTrialKarpLubyLoop:
    """Algorithm 4's candidate loop behind the engine's contract.

    One engine unit is one candidate, whose union trials run one
    :meth:`KarpLubyUnionSampler.trial` at a time.  Snapshot state
    covers fully-completed candidates only — their estimates, trial
    counts, traces — plus the candidate keys (resume validation) and
    the RNG stream position; a candidate interrupted mid-run is
    re-estimated from its first trial on resume.  A checkpoint records
    its runner (:attr:`RUNNER`) and resumes only on the same one.
    """

    #: Checkpoint tag of this runner.
    RUNNER = "per-trial"

    def __init__(
        self,
        candidates: CandidateSet,
        generator,
        samplers: List[KarpLubyUnionSampler],
        budgets: List[int],
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.candidates = candidates
        self.generator = generator
        self.items = candidates.butterflies
        self.samplers = samplers
        self.budgets = budgets
        self.masses = [sampler.weight_sum for sampler in samplers]
        self.deadline = deadline
        self._tracked = set(track) if track is not None else set()
        self._checkpoints = checkpoints
        self._estimates: Dict[ButterflyKey, float] = {}
        self.traces: Dict[ButterflyKey, ConvergenceTrace] = {}
        self.done = [0] * len(self.items)

    def estimates(self) -> Dict[ButterflyKey, float]:
        return dict(self._estimates)

    def run_trial(self, trial: int) -> None:
        """Estimate candidate ``trial - 1`` (engine trials are 1-based)."""
        index = trial - 1
        key = self.items[index].key
        existence = self.candidates.existence_probability(index)
        budget = self.budgets[index]
        trace: Optional[ConvergenceTrace] = None
        if key in self._tracked:
            trace = ConvergenceTrace(label=str(key))
        if budget == 0:
            # Impossible (P(B) = 0), or nothing heavier can block it
            # (P(B) = Pr[E(B)]).
            self._estimates[key] = existence
            if trace is not None and existence > 0.0:
                trace.record(1, existence)
                self.traces[key] = trace
            return

        sampler = self.samplers[index]
        schedule = (
            set(checkpoint_schedule(budget, self._checkpoints))
            if trace is not None else set()
        )
        step = 0
        while step < budget:
            step += 1
            sampler.trial()
            if trace is not None and step in schedule:
                trace.record(step, to_probability(
                    sampler.estimate().raw_probability, existence
                ))
            if (
                self.deadline is not None
                and step < budget
                and self.deadline.expired
            ):
                break
        self.done[index] = step
        self._estimates[key] = to_probability(
            sampler.estimate().raw_probability, existence
        )
        if trace is not None:
            self.traces[key] = trace
        if step < budget:
            # The partial estimate above is kept for the degraded result,
            # but the engine's completed count excludes this candidate.
            raise LoopInterrupt("deadline")

    def state_payload(self, completed: int) -> Dict:
        finished = self.items[:completed]
        return {
            "runner": self.RUNNER,
            "candidates": [list(b.key) for b in self.items],
            "estimates": [
                [list(b.key), float(self._estimates[b.key])]
                for b in finished
            ],
            "trials_per_candidate": [int(n) for n in self.done[:completed]],
            "traces": encode_traces({
                b.key: self.traces[b.key]
                for b in finished if b.key in self.traces
            }),
            "rng": rng_state_payload(self.generator),
        }

    def restore_state(self, payload: Dict) -> None:
        runner = payload.get("runner")
        if runner != self.RUNNER:
            written = "an untagged" if runner is None else f"the {runner!r}"
            raise CheckpointError(
                f"checkpoint was written by {written} Karp-Luby runner; "
                f"this run uses the {self.RUNNER!r} runner, which draws "
                "another stream — resume through the entry point that "
                "wrote it"
            )
        self.candidates.require_checkpoint_keys(payload["candidates"])
        self._estimates = {
            tuple(int(part) for part in raw): float(value)
            for raw, value in payload["estimates"]
        }
        finished = [int(n) for n in payload["trials_per_candidate"]]
        self.done = finished + [0] * (len(self.items) - len(finished))
        self.traces = decode_traces(payload["traces"])
        restore_rng_state(self.generator, payload["rng"])


def os_trial(
    graph: UncertainBipartiteGraph,
    sampler: WorldSampler,
    prune: bool = True,
    pair_side: str = "auto",
) -> List[Butterfly]:
    """One OS trial (Algorithm 2 lines 4-20): sample a world, return its
    maximum-weight butterfly set ``S_MB`` (possibly empty)."""
    mask = sampler.sample_mask()
    order = graph.edges_by_weight_desc
    search = max_weight_butterflies(
        graph, order[mask[order]], prune=prune, pair_side=pair_side
    )
    return search.butterflies


def _max_butterflies_vertex_priority(
    graph: UncertainBipartiteGraph,
    mask: np.ndarray,
    priority: np.ndarray,
) -> Tuple[List[Butterfly], Tuple[int, int]]:
    """One MC-VP trial body (Algorithm 1 lines 5-17).

    Builds every angle of the sampled world grouped by endpoint pair,
    combines each angle pair into a butterfly, and keeps the maximum
    weight set.  Returns ``(S_MB, (n_angles, n_butterflies_checked))``.
    """
    offset = graph.n_left
    weights = graph.weights
    edge_left = graph.edge_left
    edge_right = graph.edge_right

    # World adjacency over global vertex ids (Algorithm 1 works on V).
    adjacency: List[List[Tuple[int, int]]] = [
        [] for _ in range(graph.n_vertices)
    ]
    for e in np.flatnonzero(mask):
        e = int(e)
        u = int(edge_left[e])
        v = offset + int(edge_right[e])
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))

    n_angles = 0
    n_checked = 0
    w_max = -np.inf
    winners: List[Butterfly] = []

    for x in range(graph.n_vertices):
        px = priority[x]
        groups: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
        for y, edge_xy in adjacency[x]:
            if px <= priority[y]:
                continue
            for z, edge_yz in adjacency[y]:
                if z == x or px <= priority[z]:
                    continue
                groups[z].append((y, edge_xy, edge_yz))
                n_angles += 1
        for z, angles in groups.items():
            if len(angles) < 2:
                continue
            for (m1, e1a, e1b), (m2, e2a, e2b) in combinations(angles, 2):
                # Algorithm 1 materialises every butterfly before comparing
                # (that cost is what Section V removes).  Assembling also
                # fixes the weight's summation order to the canonical edge
                # order, so equal-weight ties compare exactly.
                n_checked += 1
                butterfly = assemble_butterfly(
                    x, z, m1, m2, (e1a, e1b, e2a, e2b), offset, weights
                )
                if butterfly.weight < w_max:
                    continue
                if butterfly.weight > w_max:
                    w_max = butterfly.weight
                    winners = [butterfly]
                else:
                    winners.append(butterfly)
    return winners, (n_angles, n_checked)
