"""One-call facade for MPMB search (Definitions 5-6, Section VII).

:func:`find_mpmb` is the one search call every front door makes (the
CLI, the query service, the experiments harness, pool workers): it
dispatches to any of the implemented methods, hands each one only the
arguments it takes, and fans a budget out over a worker pool when asked
to.  The default method is the paper's best performer, OLS with the
optimised estimator.  :func:`check_search` holds the rules a search
must meet before any work starts; :func:`find_mpmb` runs it first, and
the front doors run it before they load a graph or admit a request.
:func:`find_top_k_mpmb` implements the Section VII top-k extension on
top of whichever method ran.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional, Tuple

from ..butterfly import Butterfly
from ..errors import ConfigurationError
from ..graph import UncertainBipartiteGraph
from ..kernels import WedgeIndex
from ..observability import Observer, ensure_observer
from ..runtime.policy import RuntimePolicy, check_adaptive
from ..runtime.workers import POOLABLE_METHODS, WorkerPool, run_parallel_trials
from ..sampling import RngLike
from ..sampling.bounds import check_target
from .exact import exact_mpmb_by_inclusion_exclusion, exact_mpmb_by_worlds
from .mc_vp import mc_vp
from .ols import DEFAULT_PREPARE_TRIALS, ordering_listing_sampling
from .ordering_sampling import ordering_sampling
from .results import MPMBResult

#: Paper default for the direct sampling methods (Section VIII-B: assumes
#: μ=0.05 and ε=δ=0.1 in Theorem IV.1).
DEFAULT_TRIALS = 20_000

#: Every method name accepted by :func:`find_mpmb`.
METHODS = (
    "mc-vp",
    "os",
    "ols",
    "ols-kl",
    "exact-worlds",
    "exact-inclusion-exclusion",
)


def check_search(
    method: str,
    n_trials: int,
    n_prepare: int = DEFAULT_PREPARE_TRIALS,
    rng: RngLike = None,
    *,
    mu: float = 0.05,
    delta: float = 0.1,
    epsilon: float = 0.1,
    adaptive: bool = False,
    block_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
    workers: int = 1,
) -> None:
    """Reject a search no method can run, before any work starts.

    Takes :func:`find_mpmb`'s arguments of the same names.  The exact
    methods ignore ``n_trials``, but a negative count is still refused.

    Raises:
        ConfigurationError: Naming the first rule the search breaks.
    """
    if method not in METHODS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
        )
    exact = method.startswith("exact-")
    if n_trials < 0 or (n_trials == 0 and method != "ols-kl" and not exact):
        raise ConfigurationError(
            f"n_trials must be at least 1 for method {method!r} "
            f"(got {n_trials}); only ols-kl (dynamic Lemma VI.4 sizing) "
            "and the exact methods accept 0"
        )
    if n_prepare <= 0:
        raise ConfigurationError(
            f"n_prepare must be at least 1 (got {n_prepare})"
        )
    if block_size is not None and block_size <= 0:
        raise ConfigurationError(
            f"block_size must be at least 1 (got {block_size})"
        )
    if isinstance(rng, numbers.Integral) and rng < 0:
        raise ConfigurationError(f"seed must be non-negative (got {rng})")
    if workers <= 0:
        raise ConfigurationError(f"workers must be at least 1 (got {workers})")
    check_adaptive(adaptive)
    check_target(mu, delta)
    if not 0.0 < epsilon < math.inf:
        raise ConfigurationError(
            f"epsilon must be positive and finite (got {epsilon})"
        )
    policy = runtime or RuntimePolicy()
    timeout = policy.timeout_seconds
    if timeout is not None and not 0.0 < timeout < math.inf:
        raise ConfigurationError(
            f"timeout must be positive and finite (got {timeout})"
        )
    checkpointing = (
        policy.checkpoint_path is not None or policy.resume_from is not None
    )
    if exact and (
        timeout is not None or checkpointing or block_size is not None
        or workers > 1 or adaptive
    ):
        raise ConfigurationError(
            f"the exact method {method!r} takes no timeout, checkpoint, "
            "resume, block_size, workers > 1 or adaptive=True"
        )
    if workers > 1 and method not in POOLABLE_METHODS:
        raise ConfigurationError(
            f"workers > 1 requires a poolable method "
            f"({', '.join(POOLABLE_METHODS)}); {method!r} results cannot "
            "be pooled by trial-weighted averaging"
        )
    if workers > 1 and checkpointing:
        raise ConfigurationError(
            "checkpoint/resume cannot be combined with workers > 1; "
            "checkpointing covers the in-process loop"
        )


def find_mpmb(
    graph: UncertainBipartiteGraph,
    method: str = "ols",
    n_trials: int = DEFAULT_TRIALS,
    n_prepare: int = DEFAULT_PREPARE_TRIALS,
    rng: RngLike = None,
    observer: Optional[Observer] = None,
    *,
    mu: float = 0.05,
    delta: float = 0.1,
    epsilon: float = 0.1,
    adaptive: bool = False,
    block_size: Optional[int] = None,
    wedge_index: Optional[WedgeIndex] = None,
    runtime: Optional[RuntimePolicy] = None,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
    **kwargs,
) -> MPMBResult:
    """Find the most probable maximum weighted butterfly.

    Runs :func:`check_search` first, then hands each method only the
    settings it takes: the exact methods none after ``observer``, MC-VP
    and OS neither ``epsilon`` nor ``n_prepare``.

    Args:
        graph: The uncertain bipartite network.
        method: One of :data:`METHODS`.  ``"ols"`` (default) is the
            paper's fastest method; the exact methods are exponential and
            only suitable for small graphs.
        n_trials: Sampling trials (ignored by exact methods).  For
            ``"ols-kl"`` a value of 0 selects the dynamic Lemma VI.4
            per-candidate sizing.
        n_prepare: Preparing-phase trials (OLS variants only).
        rng: Seed or generator.
        observer: Optional :class:`~repro.observability.Observer`
            recording phase spans and per-method metrics.  Forwarded to
            the sampling methods; exact solvers run inside a single
            ``exact-solve`` span.
        mu: Smallest probability ``μ`` every guarantee of the run
            states; also OLS-KL's dynamic sizing target.
        delta: Failure probability ``δ`` every guarantee states.
        epsilon: OLS-KL's dynamic sizing target ε (OLS variants only).
        adaptive: ``True`` for the anytime racing stop rule.
        block_size: Trials per kernel call (``None``: 256-trial blocks).
        wedge_index: A prebuilt wedge index of ``graph`` for in-process
            runs; a pool publishes its own.
        runtime: Checkpoint, resume, deadline and fault-injection
            policy.  A pooled run takes no checkpoint or resume; its
            ``timeout_seconds`` becomes the pool's straggler cut-off,
            with in-pool retries off (a retry could only finish past
            the deadline), and its ``faults`` the pool's fault plan.
        workers: With ``workers > 1`` the budget runs on
            :func:`~repro.runtime.workers.run_parallel_trials` (MC-VP,
            OS and OLS only).
        pool: The :class:`~repro.runtime.workers.WorkerPool` a pooled
            run uses, left open for its owner; without one the run
            opens a pool of its own and closes it before returning.
        **kwargs: Method-specific extras, forwarded as given (e.g.
            ``track=``, ``antithetic=``, ``candidates=``,
            ``max_worlds=``).

    Returns:
        The :class:`~repro.core.results.MPMBResult`; ``result.best`` is
        the MPMB (or ``None`` when the graph has no butterfly).

    Raises:
        ConfigurationError: When :func:`check_search` refuses the search.
    """
    check_search(
        method, n_trials, n_prepare, rng, mu=mu, delta=delta,
        epsilon=epsilon, adaptive=adaptive, block_size=block_size,
        runtime=runtime, workers=workers,
    )
    if method.startswith("exact-"):
        solve = (
            exact_mpmb_by_worlds if method == "exact-worlds"
            else exact_mpmb_by_inclusion_exclusion
        )
        with ensure_observer(observer).span("exact-solve", method=method):
            return solve(graph, **kwargs)
    if workers > 1:
        cutoff = {}
        if runtime is not None and runtime.timeout_seconds is not None:
            cutoff = dict(
                straggler_timeout=runtime.timeout_seconds, max_attempts=1
            )
        return run_parallel_trials(
            graph, n_trials, workers, method=method, rng=rng,
            faults=None if runtime is None else runtime.faults,
            mu=mu, delta=delta, block_size=block_size, observer=observer,
            pool=pool, adaptive=adaptive, n_prepare=n_prepare,
            **cutoff, **kwargs,
        )
    sampling = dict(
        rng=rng, observer=observer, mu=mu, delta=delta, adaptive=adaptive,
        block_size=block_size, wedge_index=wedge_index, runtime=runtime,
        **kwargs,
    )
    if method == "mc-vp":
        return mc_vp(graph, n_trials, **sampling)
    if method == "os":
        return ordering_sampling(graph, n_trials, **sampling)
    return ordering_listing_sampling(
        graph, n_trials, n_prepare=n_prepare,
        estimator="optimized" if method == "ols" else "karp-luby",
        epsilon=epsilon, **sampling,
    )


def find_top_k_mpmb(
    graph: UncertainBipartiteGraph,
    k: int,
    method: str = "ols",
    n_trials: int = DEFAULT_TRIALS,
    n_prepare: int = DEFAULT_PREPARE_TRIALS,
    rng: RngLike = None,
    **kwargs,
) -> List[Tuple[Butterfly, float]]:
    """The top-k MPMBs (Section VII): butterflies ranked by ``P(B)``.

    For MC-VP and OS the ranking is over every butterfly that won a trial;
    for the OLS variants it is over the candidate set (justified by
    Lemma VI.1).  Returns at most ``k`` pairs — fewer when the graph holds
    fewer butterflies.
    """
    result = find_mpmb(
        graph, method=method, n_trials=n_trials, n_prepare=n_prepare,
        rng=rng, **kwargs,
    )
    return result.top_k(k)


def mpmb_probability(
    result: MPMBResult, butterfly: Optional[Butterfly] = None
) -> float:
    """Convenience accessor: ``P(B)`` of ``butterfly`` (default: the best)."""
    if butterfly is None:
        return result.best_probability
    return result.probability(butterfly)
