"""One-call facade for MPMB search (Definitions 5-6, Section VII).

:func:`find_mpmb` dispatches to any of the implemented methods; the
default is the paper's best performer, OLS with the optimised estimator.
:func:`find_top_k_mpmb` implements the Section VII top-k extension on top
of whichever method ran.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..butterfly import Butterfly
from ..errors import ConfigurationError
from ..graph import UncertainBipartiteGraph
from ..observability import Observer, ensure_observer
from ..sampling import RngLike
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


def find_mpmb(
    graph: UncertainBipartiteGraph,
    method: str = "ols",
    n_trials: int = DEFAULT_TRIALS,
    n_prepare: int = DEFAULT_PREPARE_TRIALS,
    rng: RngLike = None,
    observer: Optional[Observer] = None,
    **kwargs,
) -> MPMBResult:
    """Find the most probable maximum weighted butterfly.

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
        **kwargs: Forwarded to the selected method (e.g. ``track=``,
            ``block_size=``, ``mu=``, ``adaptive=`` for the anytime
            racing stop rule of the sampling methods).

    Returns:
        The :class:`~repro.core.results.MPMBResult`; ``result.best`` is
        the MPMB (or ``None`` when the graph has no butterfly).

    Raises:
        ValueError: For an unknown ``method``.
    """
    if method.startswith("exact-") and kwargs.get("adaptive") is not None:
        raise ConfigurationError(
            f"adaptive allocation does not apply to the exact method "
            f"{method!r}"
        )
    if method == "mc-vp":
        return mc_vp(graph, n_trials, rng=rng, observer=observer, **kwargs)
    elif method == "os":
        return ordering_sampling(
            graph, n_trials, rng=rng, observer=observer, **kwargs
        )
    elif method == "ols":
        return ordering_listing_sampling(
            graph, n_trials, n_prepare=n_prepare, estimator="optimized",
            rng=rng, observer=observer, **kwargs,
        )
    elif method == "ols-kl":
        return ordering_listing_sampling(
            graph, n_trials, n_prepare=n_prepare, estimator="karp-luby",
            rng=rng, observer=observer, **kwargs,
        )
    elif method == "exact-worlds":
        with ensure_observer(observer).span("exact-solve", method=method):
            return exact_mpmb_by_worlds(graph, **kwargs)
    elif method == "exact-inclusion-exclusion":
        with ensure_observer(observer).span("exact-solve", method=method):
            return exact_mpmb_by_inclusion_exclusion(graph, **kwargs)
    raise ConfigurationError(
        f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
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
