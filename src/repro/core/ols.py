"""Algorithm 3 — Ordering-Listing Sampling (OLS).

OLS splits the work into two phases:

1. **Preparing phase** (lines 2-4): a small number of OS trials — the
   paper uses 100 against the 20 000 needed for direct estimation — whose
   per-trial maximum butterflies are unioned into the candidate set
   ``C_MB`` (Lemma VI.1 bounds the chance of missing a high-probability
   butterfly).  The trials run as mask blocks through the vectorised
   wedge kernel (:class:`~repro.kernels.wedge_block.WedgeBlockKernel`
   in ``rtol`` tie mode), whose per-world winner sets equal the scalar
   :func:`~repro.core.reference.os_trial` search's, so ``C_MB`` and the
   RNG position after the phase are those of the scalar loop.
2. **Sampling phase** (line 5): a probability estimator runs over the
   small candidate set only, never touching the full network again —
   either the paper's optimised shared-trial estimator (Algorithm 5,
   method ``"ols"``) or per-candidate Karp-Luby (Algorithm 4, method
   ``"ols-kl"``), each on its block kernel; the paper's per-trial loops
   are :func:`~repro.core.reference.reference_listing_sampling`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from ..butterfly import Butterfly, ButterflyKey, top_weight_butterflies
from ..butterfly.model import make_butterfly
from ..errors import CheckpointError, ConfigurationError
from ..graph import UncertainBipartiteGraph
from ..kernels import WedgeBlockKernel, WedgeIndex, resolve_block_budget
from ..kernels import wedge_block
from ..observability import Observer, ensure_observer
from ..observability.profiling import stopwatch
from ..sampling import RngLike, ensure_rng
from ..worlds import WorldSampler
from ..runtime.checkpoint import read_checkpoint
from ..runtime.policy import RuntimePolicy
from .candidates import CandidateSet
from .estimation import EstimationOutcome
from .karp_luby_estimator import estimate_probabilities_karp_luby
from .optimized_estimator import estimate_probabilities_optimized
from .results import MPMBResult, record_sampling_metrics

#: Paper default for the preparing phase (Section VIII-B).
DEFAULT_PREPARE_TRIALS = 100


def prepare_candidates(
    graph: UncertainBipartiteGraph,
    n_prepare: int = DEFAULT_PREPARE_TRIALS,
    rng: RngLike = None,
    seed_backbone_top: int = 0,
    observer: Optional[Observer] = None,
) -> CandidateSet:
    """The OLS preparing phase: list candidate butterflies via OS trials.

    Args:
        graph: The uncertain bipartite network.
        n_prepare: ``N_os`` preparing trials (paper default 100).
        rng: Seed or generator.
        observer: Optional :class:`~repro.observability.Observer`
            recording the ``candidate-generation`` span and the
            ``prepare.trials`` / ``candidates.listed`` metrics.
        seed_backbone_top: Additionally seed ``C_MB`` with the k heaviest
            *backbone* butterflies (an extension beyond the paper).  The
            Lemma VI.5 overestimation comes from strictly heavier
            butterflies missing from the candidate set, so guaranteeing
            the heaviest ones are present tightens the bound at the cost
            of one deterministic top-k search.

    Returns:
        The deduplicated, weight-sorted candidate set ``C_MB``.
    """
    return _prepare(graph, n_prepare, rng, seed_backbone_top, observer, None)


def _prepare(
    graph: UncertainBipartiteGraph,
    n_prepare: int,
    rng: RngLike,
    seed_backbone_top: int,
    observer: Optional[Observer],
    wedge_index: Optional[WedgeIndex],
) -> CandidateSet:
    """:func:`prepare_candidates` on a prebuilt wedge index, if given."""
    if n_prepare <= 0:
        raise ConfigurationError(f"n_prepare must be positive, got {n_prepare}")
    # No dry streak can outlast the trials run so far, so a patience of
    # n_prepare never cuts the fixed loop short.
    candidates, _ = _collect_candidates(
        graph, rng, seed_backbone_top, observer, wedge_index,
        patience=n_prepare, max_trials=n_prepare,
        span_meta={"trials": n_prepare},
    )
    return candidates


def adaptive_prepare_candidates(
    graph: UncertainBipartiteGraph,
    patience: int = 50,
    max_trials: int = 5_000,
    rng: RngLike = None,
    seed_backbone_top: int = 0,
    observer: Optional[Observer] = None,
) -> Tuple[CandidateSet, int]:
    """Preparing phase that stops when the candidate set stabilises.

    Instead of a fixed ``N_os``, keep running OS trials until ``patience``
    consecutive trials contribute no new butterfly (or ``max_trials`` is
    reached).  By Lemma VI.1 a butterfly with ``P(B) = p`` is missed
    after ``t`` dry trials with probability ``(1-p)^t``, so a long dry
    streak certifies that every remaining missing butterfly has small
    ``P(B)`` — which is exactly what the Lemma VI.5 error bound needs.

    Instrumentation matches :func:`prepare_candidates`: the trials run
    inside a ``candidate-generation`` span and feed the
    ``prepare.trials`` counter and ``candidates.listed`` gauge, and
    ``seed_backbone_top`` seeds the heaviest backbone butterflies the
    same way.

    Returns:
        ``(candidate_set, trials_used)``.
    """
    if patience <= 0:
        raise ConfigurationError(f"patience must be positive, got {patience}")
    if max_trials <= 0:
        raise ConfigurationError(f"max_trials must be positive, got {max_trials}")
    candidates, trials = _collect_candidates(
        graph, rng, seed_backbone_top, observer, None,
        patience=patience, max_trials=max_trials,
        span_meta={"patience": patience, "max_trials": max_trials},
    )
    return candidates, trials


def _collect_candidates(
    graph: UncertainBipartiteGraph,
    rng: RngLike,
    seed_backbone_top: int,
    observer: Optional[Observer],
    wedge_index: Optional[WedgeIndex],
    *,
    patience: int,
    max_trials: int,
    span_meta: Dict[str, int],
) -> Tuple[CandidateSet, int]:
    """Both preparing phases: OS trials until ``patience`` dry trials in
    a row or ``max_trials`` trials, returning ``(C_MB, trials_used)``.

    Trials run as mask blocks on the wedge kernel.  A block holds at
    most ``patience - dry`` trials, so a dry streak can reach
    ``patience`` only on a block's last trial: the loop stops after the
    same trial, with the same RNG position, as a one-trial-at-a-time
    loop would.
    """
    if seed_backbone_top < 0:
        raise ConfigurationError(
            f"seed_backbone_top must be non-negative, got {seed_backbone_top}"
        )
    observer = ensure_observer(observer)
    sampler = WorldSampler(graph, ensure_rng(rng))
    collected: Dict[ButterflyKey, Butterfly] = {}
    dry = 0
    trials = 0
    with observer.span("candidate-generation", **span_meta):
        if seed_backbone_top:
            for butterfly in top_weight_butterflies(graph, seed_backbone_top):
                collected.setdefault(butterfly.key, butterfly)
        if wedge_index is None:
            # Looked up on the module at call time, so a wrapper
            # installed there (as the service benchmark's traced run
            # does) sees this build.
            wedge_index = wedge_block.build_wedge_index(graph)
        kernel = WedgeBlockKernel(graph, wedge_index, tie_mode="rtol")
        budget = resolve_block_budget(
            max_trials, graph.n_edges, wedge_index.n_wedges,
            wedge_index.n_groups,
        ).block_size
        while trials < max_trials and dry < patience:
            length = min(budget, patience - dry, max_trials - trials)
            outcome = kernel.evaluate_block(
                sampler.sample_mask_block(length)
            )
            for winners in outcome.winners:
                new = False
                for butterfly in winners:
                    if butterfly.key not in collected:
                        collected[butterfly.key] = butterfly
                        new = True
                dry = 0 if new else dry + 1
            trials += length
    observer.inc("prepare.trials", trials)
    observer.set("candidates.listed", float(len(collected)))
    return CandidateSet(graph, collected.values()), trials


def ordering_listing_sampling(
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
    block_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
    observer: Optional[Observer] = None,
    adaptive=None,
    wedge_index: Optional[WedgeIndex] = None,
) -> MPMBResult:
    """Run OLS end to end (Algorithm 3).

    Args:
        graph: The uncertain bipartite network.
        n_trials: Sampling-phase trials — ``N_op`` for the optimised
            estimator; for Karp-Luby this is the *fixed* per-candidate
            ``N_kl``, or pass ``n_trials=0`` to use the dynamic Lemma VI.4
            sizing with the ``mu``/``epsilon``/``delta`` target.
        n_prepare: Preparing-phase OS trials (paper default 100).
        estimator: ``"optimized"`` (Algorithm 5 — the paper's OLS) or
            ``"karp-luby"`` (Algorithm 4 — OLS-KL).
        rng: Seed or generator (shared across both phases).
        track: Optional butterfly keys to trace (Figure 11).
        checkpoints: Number of evenly spaced trace checkpoints.
        candidates: Pre-computed candidate set; skips the preparing phase
            when given (used by experiments that sweep the sampling phase
            over one fixed candidate set).
        mu: Dynamic Karp-Luby certification target (ignored otherwise).
        epsilon: ε of the ε-δ guarantee for dynamic sizing.
        delta: δ of the ε-δ guarantee for dynamic sizing.
        block_size: Sampling-phase trials per kernel call (``None``:
            :data:`~repro.kernels.DEFAULT_BLOCK_SIZE`); see
            ``docs/performance.md``.
        runtime: Optional :class:`~repro.runtime.policy.RuntimePolicy`
            for the sampling phase.  On resume the candidate set is
            rebuilt from the checkpoint itself (its payload stores the
            candidate keys), so the preparing phase is skipped entirely.
        observer: Optional :class:`~repro.observability.Observer`
            recording both phases' spans and the ``ols.*`` /
            ``ols-kl.*`` metrics (including the lazy-sampling cache hit
            rate for the optimised estimator).
        adaptive: Optional :class:`~repro.adaptive.AdaptiveConfig` (or
            anything :func:`~repro.adaptive.resolve_adaptive` accepts)
            enabling anytime trial allocation in the sampling phase:
            the optimised estimator gains the racing stop rule, and
            Karp-Luby's rounds gain the exact pre-screen plus
            per-candidate racing elimination against the static
            Lemma VI.4 budgets.  ``None`` (default) keeps the fixed
            budgets bit-identical.
        wedge_index: Optional prebuilt
            :class:`~repro.kernels.wedge_block.WedgeIndex` of ``graph``
            (e.g. the service's shared one, or one attached from shared
            memory by the worker pool) for the preparing phase;
            otherwise the phase builds one.

    Returns:
        An :class:`~repro.core.results.MPMBResult` with ``method="ols"``
        or ``"ols-kl"`` and stats including ``n_prepare``,
        ``candidates_listed`` and the estimator's counters.
    """
    observer = ensure_observer(observer)

    def sample(candidates, generator):
        if estimator == "optimized":
            outcome = estimate_probabilities_optimized(
                candidates, n_trials, generator,
                track=track, checkpoints=checkpoints,
                block_size=block_size, runtime=runtime,
                observer=observer, adaptive=adaptive,
            )
        else:
            outcome = estimate_probabilities_karp_luby(
                candidates, generator,
                n_trials=n_trials if n_trials > 0 else None,
                mu=mu, epsilon=epsilon, delta=delta,
                track=track, checkpoints=checkpoints,
                block_size=block_size, runtime=runtime,
                observer=observer, adaptive=adaptive,
            )
        return outcome

    return run_listing_sampling(
        graph, n_trials, n_prepare, estimator, rng, candidates,
        runtime, observer, sample,
        wedge_index=wedge_index,
    )


def run_listing_sampling(
    graph: UncertainBipartiteGraph,
    n_trials: int,
    n_prepare: int,
    estimator: str,
    rng: RngLike,
    candidates: Optional[CandidateSet],
    runtime: Optional[RuntimePolicy],
    observer: Optional[Observer],
    sample: Callable[..., EstimationOutcome],
    *,
    wedge_index: Optional[WedgeIndex] = None,
) -> MPMBResult:
    """Algorithm 3 around ``sample(candidates, generator)``, the
    sampling phase, which is all production and the reference differ
    in: prepare ``C_MB`` (on ``wedge_index`` when given, or rebuild it
    from the resume checkpoint), sample, assemble the result and
    metrics.
    """
    if estimator not in ("optimized", "karp-luby"):
        raise ConfigurationError(
            "estimator must be 'optimized' or 'karp-luby', "
            f"got {estimator!r}"
        )
    observer = ensure_observer(observer)
    generator = ensure_rng(rng)
    method = "ols" if estimator == "optimized" else "ols-kl"
    resumed_candidates = False
    if candidates is None and runtime is not None:
        candidates = _candidates_from_checkpoint(graph, runtime, method)
        resumed_candidates = candidates is not None
    with stopwatch() as timer:
        if candidates is None:
            candidates = _prepare(
                graph, n_prepare, generator, 0, observer, wedge_index
            )
        if len(candidates) == 0:
            return MPMBResult(
                method=method,
                graph=graph,
                n_trials=0,
                estimates={},
                butterflies={},
                stats={
                    "n_prepare": float(n_prepare),
                    "candidates_listed": 0.0,
                },
            )
        if estimator == "optimized" and n_trials <= 0:
            raise ConfigurationError(
                f"n_trials must be positive for the optimised "
                f"estimator, got {n_trials}"
            )
        outcome = sample(candidates, generator)

    stats = {
        "n_prepare": float(n_prepare),
        "candidates_listed": float(len(candidates)),
    }
    if resumed_candidates:
        stats["resumed_candidates"] = 1.0
    stats.update(outcome.stats)
    result = MPMBResult(
        method=method,
        graph=graph,
        n_trials=outcome.total_trials,
        estimates=outcome.estimates,
        butterflies={b.key: b for b in candidates},
        traces=outcome.traces,
        stats=stats,
        degraded=outcome.degraded,
        degraded_reason=outcome.stop_reason,
        target_trials=outcome.target_trials,
        guarantee=outcome.guarantee,
    )
    record_sampling_metrics(observer, result, timer.seconds)
    # Both counters are read defensively: outcomes that predate the
    # counters (or never track them, like resumed/degraded Karp-Luby
    # runs) carry neither or only one of the keys, and a missing counter
    # must not fail the run after the sampling itself succeeded.
    queried = stats.get("edges_queried", 0.0)
    sampled = stats.get("edges_sampled", 0.0)
    if observer.enabled and queried > 0:
        observer.set(
            f"{method}.lazy_cache.hit_rate",
            1.0 - sampled / queried,
        )
    return result


def _candidates_from_checkpoint(
    graph: UncertainBipartiteGraph,
    runtime: RuntimePolicy,
    method: str,
) -> Optional[CandidateSet]:
    """Rebuild ``C_MB`` from a resume checkpoint, if one is readable.

    The sampling-phase checkpoints store the candidate keys in their
    state payload, so a resumed OLS run can skip the preparing phase and
    continue against the exact candidate set the interrupted run used —
    necessary for bit-identical resumption, since re-running the
    preparing phase would consume RNG draws the original run already
    made.
    """
    if runtime.resume_from is None:
        return None
    document = read_checkpoint(runtime.resume_from)
    if document is None or document.get("method") != method:
        return None
    butterflies = []
    for raw_key in document["state"]["candidates"]:
        key = tuple(int(part) for part in raw_key)
        butterfly = make_butterfly(graph, *key)
        if butterfly is None:
            raise CheckpointError(
                f"checkpointed candidate {key} does not exist in "
                f"graph {graph.name!r}"
            )
        butterflies.append(butterfly)
    return CandidateSet(graph, butterflies)
