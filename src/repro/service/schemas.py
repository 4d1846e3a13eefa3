"""Validated request/response schema of the MPMB query service.

A :class:`QueryRequest` is the service's admission contract: every
field is validated *before* any resource is spent, with the same rules
the CLI enforces (``__main__._validate_search``), so a malformed
request can never reach the engine.  A :class:`QueryResponse` is the
service's exit contract: every request — including rejected, failed,
and deadline-degraded ones — resolves to one well-formed response.

Budgets may be given either directly (``trials``) or as an ε-δ accuracy
target that is sized via Theorem IV.1
(:func:`repro.sampling.bounds.monte_carlo_trial_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.mpmb import METHODS
from ..errors import ConfigurationError
from ..runtime import POOLABLE_METHODS
from ..sampling.bounds import monte_carlo_trial_bound

#: Response statuses a request can resolve to.  ``rejected`` covers
#: admission control and open circuit breakers (retry later);
#: ``degraded`` is a *successful* partial answer with a re-widened
#: guarantee; ``failed`` is an explicit terminal error.
STATUSES = ("ok", "degraded", "rejected", "failed")

_REQUEST_FIELDS = frozenset((
    "dataset", "profile", "dataset_seed", "method", "trials", "mu",
    "epsilon", "delta", "prepare", "top_k", "block_size", "seed",
    "deadline_seconds", "workers", "use_cache", "mode",
))

#: Allocation modes: ``"fixed"`` runs the full sized budget,
#: ``"adaptive"`` enables the anytime racing stop rule
#: (:mod:`repro.adaptive`) which may finish early with a certified
#: realised guarantee.
MODES = ("fixed", "adaptive")


@dataclass(frozen=True)
class QueryRequest:
    """One validated MPMB query.

    Attributes:
        dataset: Registered dataset name (see ``repro.datasets``).
        profile: Dataset profile (``"bench"`` or ``"paper"``).
        dataset_seed: Dataset generation seed (part of the graph
            identity, so it routes through the registry key).
        method: One of :data:`repro.core.mpmb.METHODS`.
        trials: Explicit trial budget; mutually exclusive with the
            ε-δ target below.
        mu: Target probability ``μ`` for ε-δ sizing (default 0.05).
        epsilon: Relative error target; with ``delta`` it sizes the
            budget via Theorem IV.1.
        delta: Failure probability of the sized guarantee.
        prepare: Preparing-phase trials (OLS variants).
        top_k: How many ranked butterflies the response carries.
        block_size: Batched-kernel block size (``None`` = the CLI's
            default: 256-trial kernel blocks for every sampling method).
        seed: Run RNG seed.
        deadline_seconds: Per-request wall-clock budget, propagated into
            the engine's timeout degradation path.
        workers: Parallel worker processes (poolable methods only).
        use_cache: Whether the result cache may serve/store this query.
        mode: ``"fixed"`` (default) spends the whole budget;
            ``"adaptive"`` races candidates and stops early once the
            winner is certified (sampling methods only).
    """

    dataset: str
    profile: str = "bench"
    dataset_seed: int = 0
    method: str = "ols"
    trials: Optional[int] = None
    mu: float = 0.05
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    prepare: int = 100
    top_k: int = 1
    block_size: Optional[int] = None
    seed: Optional[int] = None
    deadline_seconds: Optional[float] = None
    workers: int = 1
    use_cache: bool = True
    mode: str = "fixed"

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        if not self.dataset or not isinstance(self.dataset, str):
            raise ConfigurationError("dataset must be a non-empty string")
        if self.profile not in ("bench", "paper"):
            raise ConfigurationError(
                f"profile must be 'bench' or 'paper', got {self.profile!r}"
            )
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of "
                f"{', '.join(METHODS)}"
            )
        exact = self.method.startswith("exact-")
        sized = self.epsilon is not None or self.delta is not None
        if sized and (self.epsilon is None or self.delta is None):
            raise ConfigurationError(
                "epsilon and delta must be given together"
            )
        if sized and self.trials is not None:
            raise ConfigurationError(
                "give either trials or an epsilon/delta target, not both"
            )
        if not exact and not sized and self.trials is None:
            raise ConfigurationError(
                f"method {self.method!r} needs a budget: trials or an "
                "epsilon/delta target"
            )
        if self.trials is not None:
            if self.trials < 0 or (
                self.trials == 0 and self.method != "ols-kl" and not exact
            ):
                raise ConfigurationError(
                    f"trials must be at least 1 for method "
                    f"{self.method!r} (got {self.trials}); only ols-kl "
                    "accepts 0 for dynamic Lemma VI.4 sizing"
                )
        if self.prepare <= 0:
            raise ConfigurationError(
                f"prepare must be at least 1 (got {self.prepare})"
            )
        if self.top_k <= 0:
            raise ConfigurationError(
                f"top_k must be at least 1 (got {self.top_k})"
            )
        if self.block_size is not None and self.block_size <= 0:
            raise ConfigurationError(
                f"block_size must be at least 1 (got {self.block_size})"
            )
        if (
            self.deadline_seconds is not None
            and self.deadline_seconds <= 0
        ):
            raise ConfigurationError(
                f"deadline_seconds must be positive "
                f"(got {self.deadline_seconds})"
            )
        if self.workers <= 0:
            raise ConfigurationError(
                f"workers must be at least 1 (got {self.workers})"
            )
        if self.workers > 1 and self.method not in POOLABLE_METHODS:
            raise ConfigurationError(
                f"workers > 1 requires a poolable method "
                f"({', '.join(POOLABLE_METHODS)}); {self.method!r} "
                "results cannot be pooled"
            )
        if exact and (
            self.deadline_seconds is not None
            or self.block_size is not None
            or self.workers > 1
        ):
            raise ConfigurationError(
                "deadline_seconds/block_size/workers do not apply to "
                f"the exact method {self.method!r}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(MODES)}, "
                f"got {self.mode!r}"
            )
        if self.mode == "adaptive" and exact:
            raise ConfigurationError(
                f"mode 'adaptive' does not apply to the exact method "
                f"{self.method!r}"
            )
        # Exercise the Theorem IV.1 sizing now so out-of-range ε-δ
        # targets are rejected at admission, not mid-execution.
        if sized:
            self.resolved_trials()

    def resolved_trials(self) -> int:
        """The trial budget, sizing ε-δ targets via Theorem IV.1."""
        if self.trials is not None:
            return self.trials
        if self.epsilon is None or self.delta is None:
            return 0  # exact methods: no sampling budget
        return monte_carlo_trial_bound(self.mu, self.epsilon, self.delta)

    def canonical_params(self) -> Tuple:
        """Hashable identity of the *answer* this request asks for.

        Two requests with equal canonical params (on the same graph
        version) are served the same cached result.  Presentation-only
        fields (``use_cache``) and the deadline (which changes *whether*
        the run completes, not what a complete run returns) are
        excluded; ``top_k`` is excluded because the cache stores the
        full ranking and slices per request.

        ``mode`` (and, for adaptive mode, the ``mu``/``delta`` knobs
        that shape the stop rule) MUST be part of the identity: an
        adaptive run stops at a different trial count than a fixed run
        of the same budget, so serving one for the other would hand
        back a result the request never asked for.
        """
        anytime = (
            (self.mode, self.mu, self.delta)
            if self.mode != "fixed"
            else self.mode
        )
        return (
            self.dataset, self.profile, self.dataset_seed, self.method,
            self.resolved_trials(), self.prepare, self.block_size,
            self.seed, self.workers, anytime,
        )

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "QueryRequest":
        """Build a validated request from a decoded JSON object.

        Raises:
            ConfigurationError: For non-object payloads, unknown keys,
                or any field that fails validation.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - _REQUEST_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s): {', '.join(unknown)}"
            )
        try:
            return QueryRequest(**payload)
        except TypeError as error:
            raise ConfigurationError(str(error)) from error


@dataclass(frozen=True)
class QueryResponse:
    """One well-formed service answer.

    Attributes:
        status: One of :data:`STATUSES`.
        dataset: Echo of the routed dataset (empty when the request
            never parsed far enough to know it).
        method: Echo of the method.
        reason: Machine-readable detail for non-``ok`` statuses
            (``"admission-rejected"``, ``"circuit-open"``,
            ``"graph-unavailable"``, a degradation reason, ...).
        detail: Human-readable elaboration of ``reason``.
        ranking: Top-k rows ``{"labels", "weight", "probability"}``,
            most probable first.
        n_trials: Trials the estimates cover (0 when none ran).
        target_trials: The budget the run was sized for.
        guarantee: ε-δ statement actually certified (re-widened for
            degraded runs); ``None`` when no trials ran or the method
            is exact.
        degraded_reason: Engine degradation reason when
            ``status == "degraded"``.
        cache_hit: Whether the result came from the result cache.
        graph_version: Registry version of the graph that answered.
    """

    status: str
    dataset: str = ""
    method: str = ""
    reason: Optional[str] = None
    detail: Optional[str] = None
    ranking: List[Dict[str, Any]] = field(default_factory=list)
    n_trials: int = 0
    target_trials: Optional[int] = None
    guarantee: Optional[Dict[str, Any]] = None
    degraded_reason: Optional[str] = None
    cache_hit: bool = False
    graph_version: Optional[int] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ConfigurationError(
                f"status must be one of {', '.join(STATUSES)}, "
                f"got {self.status!r}"
            )

    @property
    def retryable(self) -> bool:
        """Whether a client should retry later (backpressure/breaker)."""
        return self.status == "rejected"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (schema: ``docs/service.md``)."""
        return {
            "format": 1,
            "kind": "repro-query-response",
            "status": self.status,
            "dataset": self.dataset,
            "method": self.method,
            "reason": self.reason,
            "detail": self.detail,
            "ranking": list(self.ranking),
            "n_trials": self.n_trials,
            "target_trials": self.target_trials,
            "guarantee": self.guarantee,
            "degraded_reason": self.degraded_reason,
            "cache_hit": self.cache_hit,
            "graph_version": self.graph_version,
        }
