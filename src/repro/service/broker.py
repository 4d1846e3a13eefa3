"""The query broker: one validated request in, one response out, always.

:meth:`QueryBroker.handle` is the service's single choke point.  Every
admitted failure mode resolves to a *well-formed*
:class:`~repro.service.schemas.QueryResponse` — the chaos suite's core
invariant is that no well-formed request can crash the service:

* **cache hit** → ``ok`` (no token spent, no engine run);
* **backpressure** (token bucket empty or in-flight cap reached) →
  ``rejected``/``admission-rejected``;
* **open breaker** → ``rejected``/``circuit-open``;
* **unknown/quarantined graph** → ``failed``/``graph-unavailable``;
* **deadline expiry** → ``degraded`` with the engine's partial result
  and *re-widened* ε-δ guarantee (Theorem IV.1 inverted for the trials
  actually completed) — never an error;
* **transient worker-pool failure** → retried with deterministic
  jitter; past the attempt cap → ``failed`` (and the dataset's breaker
  records it);
* **estimator/engine error** (including injected crashes) →
  ``failed`` with the error message.

Determinism contract: a request with no deadline and no injected
faults executes ``find_mpmb`` with exactly the CLI's argument shape,
so service answers are bit-identical to ``python -m repro search`` for
the same parameters and seed.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import find_mpmb
from ..core.results import MPMBResult
from ..errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    GraphUnavailableError,
    ReproError,
    WorkerFailureError,
)
from ..observability import Observer, ensure_observer
from ..runtime import (
    RuntimePolicy,
    WorkerPool,
    backoff_seconds,
    recompute_guarantee,
    run_parallel_trials,
)
from ..runtime.faults import ServiceFaultPlan
from ..runtime.workers import build_shared_index
from ..sampling.rng import RngLike, ensure_rng
from .admission import AdmissionController
from .breaker import STATE_VALUES, BreakerBoard
from .cache import ResultCache
from .registry import GraphRegistry, RegistryEntry
from .schemas import QueryRequest, QueryResponse


def _ranking_rows(
    result: MPMBResult, top_k: Optional[int] = None
) -> List[Dict[str, Any]]:
    """JSON-ready ranked rows (all of them when ``top_k`` is None)."""
    return [
        {
            "labels": list(labels),
            "weight": float(weight),
            "probability": float(probability),
        }
        for labels, weight, probability in result.labelled_ranking(top_k)
    ]


class QueryBroker:
    """Multiplexes concurrent queries onto the runtime engine.

    Args:
        registry: The load-once graph registry.
        admission: Token-bucket + in-flight admission control
            (defaults: 50/s sustained, burst 10, 4 in flight).
        breakers: Per-dataset circuit breaker board.
        cache: Versioned LRU result cache.
        observer: Metrics/span sink (``service.*``,
            ``service-request``).
        faults: Chaos plan; its ``request_faults`` engine plan is
            injected into every executed request.
        retry_attempts: Executions per request before a transient
            :class:`~repro.errors.WorkerFailureError` becomes terminal.
        retry_rng: Seed/stream for the deterministic retry jitter
            (routed through ``ensure_rng``; replays are identical for
            the same seed and request sequence).
        sleep: Injectable sleep for retry backoff.
        clock: Injectable monotonic clock for deadlines.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        admission: Optional[AdmissionController] = None,
        breakers: Optional[BreakerBoard] = None,
        cache: Optional[ResultCache] = None,
        observer: Optional[Observer] = None,
        faults: Optional[ServiceFaultPlan] = None,
        retry_attempts: int = 2,
        retry_rng: RngLike = 0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self.admission = admission or AdmissionController(clock=clock)
        self.breakers = breakers or BreakerBoard(clock=clock)
        self.cache = cache or ResultCache()
        self.observer = ensure_observer(observer)
        self.faults = faults or ServiceFaultPlan()
        self.retry_attempts = max(1, int(retry_attempts))
        self._retry_rng = ensure_rng(retry_rng)
        self._sleep = sleep
        self._clock = clock
        # Per-dataset persistent worker pools, keyed on the registry
        # checksum so a reload (new graph bytes) republishes rather
        # than serving stale shared memory.  Guarded by _pools_lock:
        # the map is touched from every pooled request thread plus
        # reload()/close(); pool construction and teardown stay
        # outside the lock (publishing a graph to shared memory and
        # spawning workers is slow).
        self._pools: Dict[str, Tuple[Optional[str], WorkerPool]] = {}
        self._pools_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------

    def handle(self, request: QueryRequest) -> QueryResponse:
        """Resolve one validated request to a response.  Never raises."""
        observer = self.observer
        observer.inc("service.requests.total")
        with observer.span(
            "service-request",
            dataset=request.dataset,
            method=request.method,
        ):
            response = self._dispatch(request)
        self._account(response)
        return response

    def _dispatch(self, request: QueryRequest) -> QueryResponse:
        """The lifecycle: route → cache → breaker → admit → execute."""
        observer = self.observer
        registry = self.registry
        if (
            request.profile != registry.profile
            or request.dataset_seed != registry.dataset_seed
        ):
            # The registry holds one graph per dataset, built with the
            # server's profile/seed.  Serving a mismatched identity from
            # it would label results for a graph that was never built —
            # breaking bit-identity with `python -m repro search`.
            return self._respond(
                request, status="failed", reason="graph-unavailable",
                detail=(
                    f"this service serves profile "
                    f"{registry.profile!r} with dataset_seed "
                    f"{registry.dataset_seed}; requested profile "
                    f"{request.profile!r} with dataset_seed "
                    f"{request.dataset_seed}"
                ),
            )
        try:
            entry = self.registry.get(request.dataset)
        except GraphUnavailableError as error:
            return self._respond(
                request, status="failed", reason="graph-unavailable",
                detail=str(error),
            )

        cache_key = (entry.version, request.canonical_params())
        if request.use_cache:
            payload = self.cache.get(cache_key)
            if payload is not None:
                observer.inc("service.cache.hits")
                return self._from_cached(request, entry, payload)
            observer.inc("service.cache.misses")

        breaker = self.breakers.get(request.dataset)
        try:
            breaker.allow()
        except CircuitOpenError as error:
            observer.inc("service.breaker.rejected")
            return self._respond(
                request, status="rejected", reason="circuit-open",
                detail=str(error), entry=entry,
            )
        finally:
            observer.set(
                "service.breaker.state", STATE_VALUES[breaker.state]
            )

        try:
            self.admission.admit()
        except AdmissionRejectedError as error:
            breaker.cancel_probe()  # the probe never executed
            observer.inc("service.admission.rejected")
            return self._respond(
                request, status="rejected", reason="admission-rejected",
                detail=str(error), entry=entry,
            )
        except BaseException:
            # admit() raising anything unexpected must still hand the
            # half-open probe slot back, or the breaker leaks capacity.
            breaker.cancel_probe()
            raise
        try:
            observer.set(
                "service.queue.depth", float(self.admission.inflight)
            )
            return self._execute(request, entry, breaker, cache_key)
        except BaseException:
            # _execute() records the breaker outcome on every normal
            # path; anything escaping it (observer faults, injected
            # chaos, interpreter shutdown) never did, so return the
            # probe slot.  cancel_probe() is a no-op once an outcome
            # was recorded, making this safe to run unconditionally.
            breaker.cancel_probe()
            raise
        finally:
            self.admission.release()
            observer.set(
                "service.queue.depth", float(self.admission.inflight)
            )

    def _execute(
        self,
        request: QueryRequest,
        entry: RegistryEntry,
        breaker,
        cache_key,
    ) -> QueryResponse:
        """Run the engine with deadline propagation and bounded retry."""
        observer = self.observer
        graph = entry.graph
        if graph is None:  # reloaded-to-quarantine race
            breaker.cancel_probe()  # the probe never executed
            return self._respond(
                request, status="failed", reason="graph-unavailable",
                detail=f"dataset {request.dataset!r} became unavailable",
                entry=entry,
            )
        trials = request.resolved_trials()
        deadline_at: Optional[float] = None
        if request.deadline_seconds is not None:
            deadline_at = self._clock() + request.deadline_seconds

        attempt = 0
        while True:
            attempt += 1
            if deadline_at is not None:
                remaining = deadline_at - self._clock()
                if remaining <= 0.0:
                    # Expired before (or between) executions: a
                    # degraded zero-trial answer with an honestly
                    # vacuous guarantee, not an error.  No breaker
                    # outcome will be recorded, so hand back any
                    # half-open probe slot this request holds.
                    breaker.cancel_probe()
                    observer.inc("service.deadline.degraded")
                    return self._respond(
                        request, status="degraded",
                        reason="deadline", entry=entry,
                        degraded_reason="deadline",
                        target_trials=trials,
                        guarantee=recompute_guarantee(
                            0, max(1, trials)
                        ).to_dict(),
                    )
            else:
                remaining = None
            try:
                result = self._run(
                    request, entry, graph, trials, remaining
                )
            except WorkerFailureError as error:
                if attempt < self.retry_attempts:
                    observer.inc("service.retries")
                    self._sleep(
                        backoff_seconds(attempt, jitter=self._retry_rng)
                    )
                    continue
                self._record_failure(breaker)
                return self._respond(
                    request, status="failed", reason="worker-failure",
                    detail=str(error), entry=entry,
                )
            except ReproError as error:
                # Estimator/engine errors, injected crashes, corrupt
                # checkpoints: terminal for this request, contained for
                # the service.
                self._record_failure(breaker)
                return self._respond(
                    request, status="failed", reason="execution-error",
                    detail=str(error), entry=entry,
                )
            breaker.record_success()
            return self._finish(request, entry, result, cache_key)

    def _record_failure(self, breaker) -> None:
        """Note a terminal failure, counting open transitions."""
        before = breaker.open_transitions
        breaker.record_failure()
        if breaker.open_transitions > before:
            self.observer.inc("service.breaker.opened")
        self.observer.set(
            "service.breaker.state", STATE_VALUES[breaker.state]
        )

    def _pool_for(
        self, request: QueryRequest, entry: RegistryEntry
    ) -> WorkerPool:
        """The dataset's persistent worker pool, (re)built as needed.

        Pools are cached per dataset and keyed on the registry
        checksum: consecutive pooled requests against the same graph
        bytes reuse the shared-memory segment and the attached worker
        processes (``worker.shm.reused``).  Every pool publishes the
        wedge index, which every poolable method reads.  A checksum
        change (reload) tears the pool down and republishes.

        Thread safety: concurrent pooled requests race on the pool
        map, so it is only touched under ``_pools_lock`` — but never
        across the slow parts (closing a stale pool, building the
        wedge index, publishing shared memory, spawning workers).
        Two threads may therefore build pools for the same dataset
        concurrently; the second publisher re-checks the map and, if
        a usable pool got there first, closes its own build and uses
        the winner — no pool is leaked and no published pool is ever
        closed while cached.
        """
        stale: Optional[WorkerPool] = None
        with self._pools_lock:
            cached = self._pools.get(request.dataset)
            if cached is not None:
                if cached[0] == entry.checksum:
                    return cached[1]
                del self._pools[request.dataset]
                stale = cached[1]
        if stale is not None:
            stale.close()
        pool = WorkerPool(
            entry.graph,
            wedge_index=build_shared_index(entry.graph, self.observer),
            checksum=entry.checksum,
            observer=self.observer if self.observer.enabled else None,
        )
        surplus: Optional[WorkerPool] = None
        with self._pools_lock:
            raced = self._pools.get(request.dataset)
            if raced is not None and raced[0] == entry.checksum:
                # Another thread published a usable pool while we were
                # building: keep the winner, discard our build.
                surplus, pool = pool, raced[1]
            else:
                if raced is not None:
                    surplus = raced[1]
                self._pools[request.dataset] = (entry.checksum, pool)
        if surplus is not None:
            surplus.close()
        return pool

    def _run(
        self,
        request: QueryRequest,
        entry: RegistryEntry,
        graph,
        trials: int,
        remaining_seconds: Optional[float],
    ) -> MPMBResult:
        """One engine execution with the request's exact CLI shape."""
        request_faults = self.faults.request_faults
        adaptive: Dict[str, Any] = {}
        if request.mode == "adaptive":
            # The request's δ (when it sized the budget) is also the
            # anytime failure budget, matching the CLI's --adaptive.
            adaptive["adaptive"] = (
                {"delta": request.delta}
                if request.delta is not None
                else True
            )
        if request.workers > 1:
            pool_kwargs: Dict[str, Any] = {
                "pool": self._pool_for(request, entry),
            }
            if remaining_seconds is not None:
                # Deadline propagation for pooled runs: workers still
                # running at the remaining budget are terminated as
                # stragglers and not retried in-pool (a retry could
                # only finish past the deadline); whatever completed
                # merges into a degraded result with a re-widened
                # guarantee.  If every worker is cut down, the pool's
                # WorkerFailureError sends us back around the retry
                # loop, whose deadline check degrades explicitly.
                pool_kwargs["straggler_timeout"] = remaining_seconds
                pool_kwargs["max_attempts"] = 1
            return run_parallel_trials(
                graph, trials, request.workers, method=request.method,
                rng=request.seed, n_prepare=request.prepare,
                block_size=request.block_size,
                faults=request_faults,
                sleep=self._sleep,
                observer=(
                    self.observer if self.observer.enabled else None
                ),
                **adaptive,
                **pool_kwargs,
            )
        kwargs: Dict[str, Any] = {}
        if remaining_seconds is not None or request_faults is not None:
            kwargs["runtime"] = RuntimePolicy(
                timeout_seconds=remaining_seconds,
                faults=request_faults,
                clock=self._clock,
            )
        if request.block_size is not None:
            kwargs["block_size"] = request.block_size
        return find_mpmb(
            graph, method=request.method, n_trials=trials,
            n_prepare=request.prepare, rng=request.seed,
            observer=self.observer if self.observer.enabled else None,
            **adaptive,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Response assembly
    # ------------------------------------------------------------------

    def _finish(
        self,
        request: QueryRequest,
        entry: RegistryEntry,
        result: MPMBResult,
        cache_key,
    ) -> QueryResponse:
        """Turn an engine result into a response; cache complete ones."""
        observer = self.observer
        guarantee = (
            result.guarantee.to_dict()
            if result.guarantee is not None
            else None
        )
        if result.degraded:
            if result.degraded_reason == "deadline":
                observer.inc("service.deadline.degraded")
            return self._respond(
                request, status="degraded",
                reason=result.degraded_reason, entry=entry,
                ranking=_ranking_rows(result, request.top_k),
                n_trials=result.n_trials,
                target_trials=result.target_trials,
                guarantee=guarantee,
                degraded_reason=result.degraded_reason,
            )
        payload = {
            "ranking": _ranking_rows(result),  # full; sliced per request
            "n_trials": result.n_trials,
            "guarantee": guarantee,
        }
        if request.use_cache:
            self.cache.put(cache_key, payload)
        return self._respond(
            request, status="ok", entry=entry,
            ranking=payload["ranking"][: request.top_k],
            n_trials=result.n_trials,
            guarantee=guarantee,
        )

    def _from_cached(
        self,
        request: QueryRequest,
        entry: RegistryEntry,
        payload: Dict[str, Any],
    ) -> QueryResponse:
        return self._respond(
            request, status="ok", entry=entry, cache_hit=True,
            ranking=list(payload["ranking"][: request.top_k]),
            n_trials=int(payload["n_trials"]),
            guarantee=payload["guarantee"],
        )

    def _respond(
        self,
        request: QueryRequest,
        status: str,
        entry: Optional[RegistryEntry] = None,
        **fields: Any,
    ) -> QueryResponse:
        return QueryResponse(
            status=status,
            dataset=request.dataset,
            method=request.method,
            graph_version=None if entry is None else entry.version,
            **fields,
        )

    def _account(self, response: QueryResponse) -> None:
        """Final per-request metric rollup."""
        observer = self.observer
        observer.inc(f"service.requests.{response.status}")
        observer.set("service.cache.hit_rate", self.cache.hit_rate)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def reload(self, dataset: Optional[str] = None) -> None:
        """Reload graph(s) and drop the (now unreachable) cached answers.

        Cached worker pools for the reloaded dataset(s) are closed —
        their shared-memory segments hold the *old* graph bytes, and
        the checksum key would force a republish anyway.
        """
        self.registry.reload(dataset)
        self.cache.clear()
        with self._pools_lock:
            names = (
                list(self._pools) if dataset is None
                else [dataset] if dataset in self._pools else []
            )
            doomed = [self._pools.pop(name) for name in names]
        for _, pool in doomed:
            pool.close()

    def close(self) -> None:
        """Release every cached worker pool and its shared segment."""
        with self._pools_lock:
            doomed = list(self._pools.values())
            self._pools.clear()
        for _, pool in doomed:
            pool.close()

    def health(self) -> Dict[str, Any]:
        """Liveness payload: the process is up and answering."""
        return {"status": "alive", "inflight": self.admission.inflight}

    def readiness(self) -> Dict[str, Any]:
        """Readiness payload: registry + breaker health."""
        return {
            "ready": self.registry.ready(),
            "datasets": self.registry.describe(),
            "breakers": self.breakers.states(),
        }
