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
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..core import find_mpmb
from ..core.results import MPMBResult
from ..errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    GraphUnavailableError,
    ReproError,
    WorkerFailureError,
)
from ..kernels.wedge_block import WedgeIndex
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


#: Methods whose runs read the wedge index: every sampling method, never
#: the exact solvers.
INDEXED_METHODS = ("mc-vp", "os", "ols", "ols-kl")


class _Flight:
    """One dataset's wedge index or worker pool, for one graph version.

    The request that misses the map builds it and publishes the result,
    or the build's error, on ``future``; requests for the same version
    that arrive meanwhile wait there instead of building their own.  A
    pool also counts the requests holding it (``users``), so a pool
    retired by a reload, a checksum change or
    :meth:`QueryBroker.close` is closed when the last of them lets go,
    never under a running request.
    """

    def __init__(self, checksum: Optional[str]) -> None:
        self.checksum = checksum
        self.future: "Future[Any]" = Future()
        self.users = 0
        self.retired = False


def _single_flight(
    table: Dict[str, _Flight],
    lock: threading.Lock,
    key: str,
    checksum: Optional[str],
    build: Callable[[], Any],
    *,
    lease: bool = False,
    retire: Optional[Callable[[_Flight], None]] = None,
) -> _Flight:
    """The flight of ``key`` at ``checksum``, with ``build()`` done.

    Under ``lock`` the first caller to miss claims a fresh flight; it
    hands the flight it replaced (another checksum) to ``retire``, then
    runs ``build()`` outside the lock and publishes on the flight's
    future, which racing callers wait on.  A failed build frees the
    entry, so the next request retries; the error reaches the builder
    and every waiter through the future.  With ``lease`` the caller
    counts as one of the flight's users from the claim on.
    """
    with lock:
        flight = table.get(key)
        stale = None
        owner = flight is None or flight.checksum != checksum
        if owner:
            stale, flight = flight, _Flight(checksum)
            table[key] = flight
        if lease:
            flight.users += 1
    if owner:
        try:
            if stale is not None and retire is not None:
                retire(stale)
            flight.future.set_result(build())
        except BaseException as error:
            with lock:
                if table.get(key) is flight:
                    del table[key]
            flight.future.set_exception(error)
    return flight


def _close_pool(flight: _Flight) -> None:
    """Close a retired flight's pool (a failed build left none)."""
    if flight.future.exception() is None:
        flight.future.result().close()


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
        # than serving stale shared memory.  Each entry is a _Flight,
        # so a build is single-flight and a retired pool outlives the
        # requests running on it.  Guarded by _pools_lock: the map and
        # the flights' user counts are touched from every pooled
        # request thread plus reload()/close(); pool construction and
        # teardown stay outside the lock (publishing a graph to shared
        # memory and spawning workers is slow).
        self._pools: Dict[str, _Flight] = {}
        self._pools_lock = threading.Lock()
        # Per-dataset wedge indexes, keyed and built like the pools: one
        # read-only index per graph version, shared by unpooled
        # requests and the dataset's pool.  Guarded by _indexes_lock;
        # builds run outside it.
        self._indexes: Dict[str, _Flight] = {}
        self._indexes_lock = threading.Lock()

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

    def _index_for(
        self, dataset: str, checksum: Optional[str], graph
    ) -> WedgeIndex:
        """The dataset's wedge index, built on first use.

        Indexes are cached per dataset and keyed on the registry
        checksum, as pools are: every request against the same graph
        bytes reads one index, and a checksum change (reload) builds a
        fresh one.  The build is single-flight (:func:`_single_flight`)
        and runs outside ``_indexes_lock`` (it takes tens of
        milliseconds), in the ``wedge-index shared=True`` span.
        """
        return _single_flight(
            self._indexes, self._indexes_lock, dataset, checksum,
            lambda: build_shared_index(graph, self.observer),
        ).future.result()

    @contextmanager
    def _pool_for(
        self, request: QueryRequest, entry: RegistryEntry
    ) -> Iterator[WorkerPool]:
        """The dataset's persistent worker pool, (re)built as needed and
        held for the ``with`` block.

        Pools are cached per dataset and keyed on the registry
        checksum: consecutive pooled requests against the same graph
        bytes reuse the shared-memory segment and the attached worker
        processes (``worker.shm.reused``).  Every pool publishes the
        dataset's wedge index (:meth:`_index_for`), which every
        poolable method reads.  A checksum change (reload) retires the
        old pool, then republishes.

        Thread safety: the pool map is only touched under
        ``_pools_lock``, never across the slow parts (building the
        wedge index, publishing shared memory, spawning workers,
        closing a pool).  The build is single-flight
        (:func:`_single_flight`), so one pool is built and none is
        leaked, and the request holds the pool until its block ends:
        a pool retired meanwhile (reload, checksum change, close) is
        closed by the last request to let go of it.
        """

        def build() -> WorkerPool:
            return WorkerPool(
                entry.graph,
                wedge_index=self._index_for(
                    request.dataset, entry.checksum, entry.graph
                ),
                checksum=entry.checksum,
                observer=self.observer if self.observer.enabled else None,
            )

        flight = _single_flight(
            self._pools, self._pools_lock, request.dataset,
            entry.checksum, build, lease=True,
            retire=lambda stale: self._retire_pools([stale]),
        )
        try:
            yield flight.future.result()
        finally:
            with self._pools_lock:
                flight.users -= 1
                last = flight.retired and flight.users == 0
            if last:
                _close_pool(flight)

    def _retire_pools(self, flights: List[_Flight]) -> None:
        """Close retired pools now, or when their last user lets go."""
        with self._pools_lock:
            idle = []
            for flight in flights:
                flight.retired = True
                if flight.users == 0:
                    idle.append(flight)
        for flight in idle:
            _close_pool(flight)

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
            pool_kwargs: Dict[str, Any] = {}
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
            with self._pool_for(request, entry) as pool:
                return run_parallel_trials(
                    graph, trials, request.workers,
                    method=request.method,
                    rng=request.seed, n_prepare=request.prepare,
                    block_size=request.block_size,
                    faults=request_faults,
                    sleep=self._sleep,
                    observer=(
                        self.observer if self.observer.enabled else None
                    ),
                    pool=pool,
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
        if request.method in INDEXED_METHODS:
            kwargs["wedge_index"] = self._index_for(
                request.dataset, entry.checksum, graph
            )
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

        Cached wedge indexes and worker pools for the reloaded
        dataset(s) are dropped — they describe the *old* graph bytes
        (pools hold them in shared memory), and the checksum key would
        force a rebuild anyway.  A pool still running requests closes
        when the last of them lets go.
        """
        self.registry.reload(dataset)
        self.cache.clear()
        with self._indexes_lock:
            if dataset is None:
                self._indexes.clear()
            else:
                self._indexes.pop(dataset, None)
        with self._pools_lock:
            names = (
                list(self._pools) if dataset is None
                else [dataset] if dataset in self._pools else []
            )
            doomed = [self._pools.pop(name) for name in names]
        self._retire_pools(doomed)

    def close(self) -> None:
        """Drop every cached wedge index and release every cached
        worker pool and its shared segment (a pool still running
        requests once the last of them lets go)."""
        with self._indexes_lock:
            self._indexes.clear()
        with self._pools_lock:
            doomed = list(self._pools.values())
            self._pools.clear()
        self._retire_pools(doomed)

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
