"""The paper's primary contribution: MPMB search algorithms and theory.

* :func:`find_mpmb` / :func:`find_top_k_mpmb` — one-call facade.
* :func:`mc_vp` — Algorithm 1 (baseline).
* :func:`ordering_sampling` — Algorithm 2 (OS).
* :func:`reference_search` — Algorithms 1 and 2 as the paper states
  them, one world per trial (the timing and test reference).
* :func:`ordering_listing_sampling` / :func:`prepare_candidates` —
  Algorithm 3 (OLS) with either sampling-phase estimator.
* :func:`estimate_probabilities_karp_luby` — Algorithm 4.
* :func:`estimate_probabilities_optimized` — Algorithm 5.
* :func:`reference_listing_sampling` — Algorithm 3 with the paper's
  per-trial Algorithms 4 and 5 (the timing and test reference).
* :func:`exact_mpmb_by_worlds` / :func:`exact_mpmb_by_inclusion_exclusion`
  / :func:`exact_probability` — exponential validation oracles.
* :mod:`repro.core.bounds` — Theorem IV.1 / Lemmas V.2, VI.1, VI.4, VI.5.
"""

from . import bounds
from .candidates import CandidateSet
from .conditional import (
    condition_graph,
    conditional_mpmb,
    edge_influence,
)
from .estimation import EstimationOutcome
from .exact import (
    backbone_butterflies,
    exact_mpmb_by_inclusion_exclusion,
    exact_mpmb_by_worlds,
    exact_probability,
)
from .karp_luby_estimator import estimate_probabilities_karp_luby
from .mc_vp import mc_vp
from .mpmb import (
    DEFAULT_TRIALS,
    METHODS,
    find_mpmb,
    find_top_k_mpmb,
    mpmb_probability,
)
from .ols import (
    DEFAULT_PREPARE_TRIALS,
    adaptive_prepare_candidates,
    ordering_listing_sampling,
    prepare_candidates,
)
from .optimized_estimator import estimate_probabilities_optimized
from .query import ProbabilityEstimate, estimate_probability
from .ordering_sampling import ordering_sampling
from .reference import (
    os_trial,
    reference_listing_sampling,
    reference_search,
)
from .results import MPMBResult, merge_results, result_from_frequency_loop
from .serialize import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)

__all__ = [
    "bounds",
    "CandidateSet",
    "condition_graph",
    "conditional_mpmb",
    "edge_influence",
    "EstimationOutcome",
    "MPMBResult",
    "merge_results",
    "result_from_frequency_loop",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "backbone_butterflies",
    "exact_mpmb_by_worlds",
    "exact_mpmb_by_inclusion_exclusion",
    "exact_probability",
    "estimate_probabilities_karp_luby",
    "estimate_probabilities_optimized",
    "ProbabilityEstimate",
    "estimate_probability",
    "mc_vp",
    "ordering_sampling",
    "os_trial",
    "reference_listing_sampling",
    "reference_search",
    "ordering_listing_sampling",
    "prepare_candidates",
    "adaptive_prepare_candidates",
    "find_mpmb",
    "find_top_k_mpmb",
    "mpmb_probability",
    "METHODS",
    "DEFAULT_TRIALS",
    "DEFAULT_PREPARE_TRIALS",
]
