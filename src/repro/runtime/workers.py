"""Fault-tolerant parallel trial execution.

Butterfly sampling parallelises embarrassingly well (Shi & Shun's
parallel butterfly work makes the same observation for certain graphs):
the frequency-based methods pool across independent trial streams by
trial-weighted averaging (:func:`~repro.core.results.merge_results`).
This module turns that observation into a production worker pool:

* the graph and its wedge-CSR index are published **once** into a
  ``multiprocessing.shared_memory`` segment
  (:mod:`~repro.runtime.shm`); workers are **persistent** processes that
  attach to it at startup and then serve task descriptors over pipes,
  so no task ever pickles a graph and retries re-use warm processes;
* each worker runs its share of the trial budget on an independent
  spawned RNG stream;
* a crashed worker (non-zero exit, missing result) is respawned and
  retried with exponential backoff — deterministically jittered from a
  stream spawned off the run RNG, so retry bursts decorrelate while
  replays stay bit-identical — up to a capped attempt count, with the
  *same* trial stream, so retries are deterministic;
* a straggler that exceeds the timeout is terminated and treated as a
  failed attempt;
* workers that fail permanently are dropped, and the surviving partial
  results merge into a result flagged ``degraded=True`` whose ε-δ
  guarantee is re-widened to the trials actually pooled (the
  Theorem IV.1 bound inverted for the achieved ``N``, as in
  :mod:`~repro.runtime.degradation`).

A :class:`WorkerPool` can outlive one :func:`run_parallel_trials` call:
``repro.service`` caches pools keyed on the registry's graph checksum,
so consecutive requests against the same dataset reuse both the shared
segment and the attached worker processes (``worker.shm.reused``).

Only the frequency-based methods (``mc-vp``, ``os``, ``ols``) are
poolable: their estimates are trial-weighted averages, so pooled
streams obey the same Theorem IV.1 / Lemma V.2 analysis as one stream
of the combined length.  OLS-KL is excluded because Lemma VI.4 sizes
its trial count *per candidate* from that candidate's existence
probability (Eq. 8) — per-worker shares of a dynamic budget do not
average.  Per-worker observability metrics merge under the same policy
(dropped workers contribute nothing; see ``docs/observability.md``).

Failures are injectable through :class:`~repro.runtime.faults.FaultPlan`
so every path above is exercised by deterministic tests.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, replace
from functools import reduce
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing
from multiprocessing import connection as mp_connection

from ..errors import ConfigurationError, WorkerFailureError
from ..observability import (
    MetricsRegistry,
    Observer,
    ensure_observer,
)
from ..sampling.bounds import check_target
from ..sampling.rng import RngLike, ensure_rng, spawn_rngs
from .degradation import recompute_guarantee
from .faults import CRASH_EXIT_CODE, HANG_SECONDS, FaultPlan
from .policy import check_adaptive
from .shm import SharedGraphHandle, publish_graph

#: Methods whose results pool by trial-weighted averaging.  Each reads
#: the wedge index: MC-VP and OS run on the wedge kernel, OLS's
#: preparing phase does too.
POOLABLE_METHODS = ("mc-vp", "os", "ols")

#: Seconds :meth:`WorkerPool.close` waits for a worker to exit cleanly
#: after the shutdown sentinel before terminating it.
_SHUTDOWN_GRACE = 5.0


@dataclass
class WorkerReport:
    """Outcome of one worker across all its attempts.

    Attributes:
        worker_id: 0-based worker index.
        attempts: Attempts consumed (1 = succeeded first try).
        status: ``"ok"`` or ``"dropped"``.
        n_trials: Trials this worker contributed (0 when dropped).
        error: Last failure description (``None`` when it succeeded
            first try).
    """

    worker_id: int
    attempts: int
    status: str
    n_trials: int
    error: Optional[str] = None


def split_trials(
    n_trials: int, n_workers: int, block_size: Optional[int] = None
) -> List[int]:
    """Near-even per-worker trial shares summing to ``n_trials``.

    With ``block_size`` the pool shards *blocks* rather than single
    trials: every worker's share is a whole number of blocks (the one
    remainder block, if any, counts as one), so each worker's batched
    kernel runs full-size blocks and no block straddles two workers.
    Workers assigned zero blocks get zero trials.
    """
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
    if n_workers <= 0:
        raise ConfigurationError(f"n_workers must be positive, got {n_workers}")
    if block_size is None:
        base, extra = divmod(n_trials, n_workers)
        return [base + (1 if w < extra else 0) for w in range(n_workers)]
    if block_size <= 0:
        raise ConfigurationError(
            f"block_size must be positive, got {block_size}"
        )
    full_blocks, remainder = divmod(n_trials, block_size)
    units = full_blocks + (1 if remainder else 0)
    base, extra = divmod(units, n_workers)
    unit_shares = [base + (1 if w < extra else 0) for w in range(n_workers)]
    shares = [units_w * block_size for units_w in unit_shares]
    if remainder:
        # The remainder block lives with the last worker that got blocks.
        for w in range(n_workers - 1, -1, -1):
            if shares[w] > 0:
                shares[w] -= block_size - remainder
                break
    return shares


def backoff_seconds(attempt: int, jitter: Optional[RngLike] = None) -> float:
    """Exponential backoff before retry ``attempt + 1``: 0.05 s,
    doubling, capped at 2 s.

    With ``jitter`` (a generator or seed) the capped delay is scaled by
    a uniform draw from ``[0.5, 1.0]`` — "equal jitter".  A fixed
    backoff synchronises every retrying worker after a straggler kill
    into one thundering-herd burst; jitter decorrelates the bursts.
    Drawing from a generator spawned off the run RNG keeps replays
    bit-identical: the same seed produces the same backoff schedule.
    """
    delay = min(2.0, 0.05 * (2.0 ** (attempt - 1)))
    if jitter is None:
        return delay
    fraction = float(ensure_rng(jitter).uniform(0.5, 1.0))
    return delay * fraction


def build_shared_index(graph, observer: Observer):
    """Build a wedge index that outlives one run.

    A pool's index for its workers and the query service's per-graph
    index are built here, inside a ``wedge-index`` span marked
    ``shared=True``.
    """
    # Lazy import: the kernels import this package, so importing them
    # eagerly here would cycle at package load.
    from ..kernels.wedge_block import build_wedge_index

    with observer.span("wedge-index", shared=True):
        return build_wedge_index(graph)


def _persistent_worker_main(
    worker_id: int, conn, handle: SharedGraphHandle
) -> None:
    """Persistent subprocess entry point: attach once, serve tasks.

    Attaches to the shared graph segment, then loops on task
    descriptors from ``conn`` until the ``None`` shutdown sentinel (or
    pipe closure).  Each task runs one trial share and ships the result
    payload back over the same pipe.  An unhandled exception propagates
    and becomes a non-zero exit code, which the coordinator treats
    exactly like a crash; crashed or hung attempts ship nothing, which
    keeps the merged trial counters consistent with the trial-weighted
    result merge.
    """
    from ..core.mpmb import find_mpmb
    from ..core.serialize import result_to_dict
    from .shm import attach_shared_graph

    # A forked worker inherits its parent's handlers.  The CLI's SIGTERM
    # handler would turn the pool's terminate() of a straggler into a
    # graceful interrupt: the worker would return a partial result and
    # live on, and the pool would wait on it forever.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    attachment = attach_shared_graph(handle)
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            faults: Optional[FaultPlan] = task["faults"]
            behaviour = (
                faults.worker_behaviour(worker_id, task["attempt"])
                if faults else "ok"
            )
            if behaviour == "crash":
                os._exit(CRASH_EXIT_CODE)
            if behaviour == "hang":
                # A real wall-clock stall is the point of the injected
                # "hang" fault; routing it through an injectable clock
                # would defeat the chaos harness.
                time.sleep(HANG_SECONDS)  # repro: noqa[CLK002]
            observer = Observer() if task["instrument"] else None
            result = find_mpmb(
                attachment.graph, method=task["method"],
                n_trials=task["n_trials"], rng=task["rng"],
                observer=observer, wedge_index=attachment.index,
                **task["method_kwargs"],
            )
            payload = {
                "result": result_to_dict(result),
                "metrics": (
                    observer.metrics.to_dict()
                    if observer is not None else None
                ),
                "spans": (
                    observer.tracer.to_list()
                    if observer is not None else None
                ),
            }
            conn.send(payload)
    finally:
        attachment.close()


@dataclass
class _PoolWorker:
    """One live worker process and the coordinator end of its pipe."""

    process: Any
    conn: Any


class WorkerPool:
    """Persistent worker processes over one shared-memory graph segment.

    Publishing happens at construction: the graph and its wedge index
    land in one shared segment, and every worker process
    spawned by :meth:`worker` attaches to it once, then serves task
    descriptors over its pipe until :meth:`close`.  The pool may serve
    many :func:`run_parallel_trials` calls — ``repro.service`` caches
    pools keyed on :attr:`checksum` and tears them down on registry
    reload.

    Args:
        graph: The uncertain bipartite network to publish.
        wedge_index: The graph's
            :class:`~repro.kernels.wedge_block.WedgeIndex`, published
            alongside it; every poolable method reads it.
        mp_context: ``multiprocessing`` start method (``None`` =
            platform default).
        checksum: Version key recorded on the handle (defaults to
            :func:`~repro.runtime.shm.graph_checksum`).
        observer: Metric sink for the publication counters.
    """

    def __init__(
        self,
        graph,
        wedge_index: Any,
        mp_context: Optional[str] = None,
        checksum: Optional[str] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self._context = multiprocessing.get_context(mp_context)
        self._publication = publish_graph(
            graph, wedge_index, checksum=checksum, observer=observer
        )
        self._workers: Dict[int, _PoolWorker] = {}
        self._closed = False

    @property
    def handle(self) -> SharedGraphHandle:
        """The picklable handle workers attach by."""
        return self._publication.handle

    @property
    def checksum(self) -> str:
        """The published graph's version key."""
        return self._publication.handle.checksum

    def worker(
        self, worker_id: int, observer: Optional[Observer] = None
    ) -> _PoolWorker:
        """A live worker for ``worker_id``, spawning one if needed.

        Workers persist across calls; a worker discarded after a
        failure (or found dead) is respawned here, re-attaching to the
        shared segment (``worker.shm.attached``).
        """
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        entry = self._workers.get(worker_id)
        if entry is not None and entry.process.is_alive():
            return entry
        if entry is not None:
            self.discard(worker_id)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_persistent_worker_main,
            args=(worker_id, child_conn, self._publication.handle),
            daemon=True,
        )
        process.start()
        child_conn.close()
        ensure_observer(observer).inc("worker.shm.attached")
        entry = _PoolWorker(process=process, conn=parent_conn)
        self._workers[worker_id] = entry
        return entry

    def discard(self, worker_id: int) -> None:
        """Terminate and forget one worker (respawned on next use)."""
        entry = self._workers.pop(worker_id, None)
        if entry is None:
            return
        if entry.process.is_alive():
            entry.process.terminate()
        entry.process.join()
        entry.conn.close()

    def close(self) -> None:
        """Shut workers down and unlink the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for entry in self._workers.values():
            try:
                entry.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for entry in self._workers.values():
            entry.process.join(_SHUTDOWN_GRACE)
            if entry.process.is_alive():
                entry.process.terminate()
                entry.process.join()
            entry.conn.close()
        self._workers.clear()
        self._publication.close()


def run_parallel_trials(
    graph,
    n_trials: int,
    n_workers: int,
    method: str = "os",
    rng: RngLike = None,
    max_attempts: int = 3,
    straggler_timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    sleep: Callable[[float], None] = time.sleep,
    mp_context: Optional[str] = None,
    mu: float = 0.05,
    delta: float = 0.1,
    block_size: Optional[int] = None,
    observer: Optional[Observer] = None,
    pool: Optional[WorkerPool] = None,
    adaptive: bool = False,
    **method_kwargs,
):
    """Run a trial budget across fault-tolerant parallel workers.

    Args:
        graph: The uncertain bipartite network.
        n_trials: Total trial budget, split near-evenly across workers.
        n_workers: Worker process count.
        method: One of :data:`POOLABLE_METHODS` (frequency-based, so
            partial results pool by trial-weighted averaging).
        rng: Base seed/generator; workers get statistically independent
            spawned child streams.  A retried worker reuses its original
            stream, so retries reproduce the same trials.
        max_attempts: Attempts per worker before it is dropped.  A
            retry waits :func:`backoff_seconds` (0.05 s, doubling,
            capped at 2 s), scaled by a deterministic jitter factor in
            ``[0.5, 1.0]`` drawn from a stream spawned off ``rng``, so
            simultaneous retries do not synchronise into bursts and the
            same seed replays the same schedule.
        straggler_timeout: Seconds to wait for a worker before
            terminating it as a straggler; ``None`` waits indefinitely.
        faults: Optional deterministic fault-injection plan.
        sleep: Sleep function (injectable so tests assert backoff
            without waiting).
        mp_context: ``multiprocessing`` start method (``None`` = platform
            default; ignored when ``pool`` is given).
        mu: Smallest probability ``μ`` the pooled guarantee covers,
            forwarded to every worker.
        delta: Failure probability ``δ`` of the pooled guarantee.
            Each worker runs at ``δ/n_workers``, so by a union bound
            the merged claim of workers that each certified one holds
            at ``δ``; a pool with dropped workers is re-widened at
            ``mu`` and ``delta``.
        block_size: Shard whole blocks of this many trials across the
            workers (no block straddles two workers) and pass it to each
            worker's method; ``None`` shards single trials and leaves
            each method its default-size kernel blocks.  The coordinator
            builds the wedge-CSR index once and publishes it into the
            shared segment, so workers skip the per-process build.
        observer: Optional :class:`~repro.observability.Observer`.  When
            given, each worker records its own metrics/spans in-process
            and ships them with its result; the coordinator merges the
            registries (counters sum, so e.g. ``sampling.trials`` equals
            the pooled ``n_trials`` even when workers were dropped) and
            grafts worker spans under ``worker-<id>`` path prefixes.
        pool: Optional pre-built :class:`WorkerPool` over the same
            graph.  The call reuses its shared segment and live worker
            processes (``worker.shm.reused``) and leaves it open for
            the owner to close; without one, a pool is created for this
            call and torn down afterwards.
        adaptive: ``True`` races each worker's shard with the anytime
            stop rule of the method.
        **method_kwargs: Forwarded to the method (e.g. ``n_prepare=``).

    Returns:
        The merged :class:`~repro.core.results.MPMBResult`.  When
        workers were dropped it is flagged ``degraded=True`` with
        ``degraded_reason="workers-dropped"`` and a guarantee re-widened
        to the trials actually pooled.  Stats gain ``workers_total``,
        ``workers_dropped`` and ``worker_attempts`` counters.

    Raises:
        ValueError: On non-poolable methods or non-positive budgets.
        WorkerFailureError: If every worker failed permanently.
    """
    if method not in POOLABLE_METHODS:
        raise ConfigurationError(
            f"method {method!r} cannot be pooled across workers; "
            f"expected one of {POOLABLE_METHODS}"
        )
    if max_attempts <= 0:
        raise ConfigurationError(
            f"max_attempts must be positive, got {max_attempts}"
        )
    check_adaptive(adaptive)
    check_target(mu, delta)
    shares = split_trials(n_trials, n_workers, block_size=block_size)
    # Each worker certifies its own shard at δ/n, which keeps the
    # pooled claim at δ by a union bound.
    method_kwargs = {
        **method_kwargs, "mu": mu, "delta": delta / n_workers,
        "adaptive": adaptive,
    }
    if block_size is not None:
        method_kwargs["block_size"] = block_size
    # Lazy imports: this module is part of the runtime package, which the
    # core estimators import — importing core eagerly here would cycle.
    from ..core.results import merge_results
    from ..core.serialize import result_from_dict

    observer = ensure_observer(observer)
    # One extra child stream seeds the retry-backoff jitter.  Spawned
    # children are keyed by index, so workers 0..n-1 receive exactly the
    # streams they always did — adding the jitter stream at the end
    # changes no worker's trials.
    streams = spawn_rngs(rng, n_workers + 1)
    jitter_rng = streams[n_workers]
    reports: Dict[int, WorkerReport] = {}
    results: Dict[int, object] = {}
    worker_metrics: Dict[int, Dict] = {}
    worker_spans: Dict[int, List] = {}
    pending: List[Tuple[int, int]] = [
        (worker_id, 1) for worker_id in range(n_workers)
        if shares[worker_id] > 0
    ]

    # Nothing that can raise runs between opening a pool of our own
    # and the ``try`` that closes it.
    owns_pool = pool is None
    if pool is None:
        pool = WorkerPool(
            graph, mp_context=mp_context,
            wedge_index=build_shared_index(graph, observer),
            observer=observer,
        )
    else:
        observer.inc("worker.shm.reused")
        observer.set(
            "worker.shm.bytes", float(pool.handle.total_bytes)
        )
    try:
        with observer.span(
            "fan-out", method=method, workers=n_workers, trials=n_trials
        ):
            while pending:
                launched = []
                for worker_id, attempt in pending:
                    entry = pool.worker(worker_id, observer=observer)
                    task = {
                        "attempt": attempt,
                        "method": method,
                        "n_trials": shares[worker_id],
                        "rng": streams[worker_id],
                        "method_kwargs": method_kwargs,
                        "faults": faults,
                        "instrument": observer.enabled,
                    }
                    try:
                        entry.conn.send(task)
                    except (BrokenPipeError, OSError):
                        # Dead pipe: the sentinel wait below sees the
                        # exit and classifies it as a crash.
                        pass
                    launched.append((worker_id, attempt, entry))

                retry: List[Tuple[int, int]] = []
                round_backoff = 0.0
                for worker_id, attempt, entry in launched:
                    failure: Optional[str] = None
                    payload = None
                    ready = mp_connection.wait(
                        [entry.conn, entry.process.sentinel],
                        timeout=straggler_timeout,
                    )
                    if not ready:
                        pool.discard(worker_id)
                        failure = (
                            f"straggler exceeded "
                            f"{straggler_timeout}s timeout"
                        )
                    else:
                        if entry.conn in ready:
                            try:
                                payload = entry.conn.recv()
                            except (EOFError, OSError):
                                payload = None
                        if payload is None:
                            entry.process.join()
                            exitcode = entry.process.exitcode
                            pool.discard(worker_id)
                            if exitcode not in (0, None):
                                failure = (
                                    f"worker exited with code {exitcode}"
                                )
                            else:
                                failure = (
                                    "worker exited without returning "
                                    "a result"
                                )
                    if payload is not None:
                        results[worker_id] = result_from_dict(
                            payload["result"], graph
                        )
                        if payload["metrics"] is not None:
                            worker_metrics[worker_id] = payload["metrics"]
                        if payload["spans"] is not None:
                            worker_spans[worker_id] = payload["spans"]
                        reports[worker_id] = WorkerReport(
                            worker_id=worker_id,
                            attempts=attempt,
                            status="ok",
                            n_trials=shares[worker_id],
                        )
                    if failure is not None:
                        if attempt >= max_attempts:
                            reports[worker_id] = WorkerReport(
                                worker_id=worker_id,
                                attempts=attempt,
                                status="dropped",
                                n_trials=0,
                                error=failure,
                            )
                        else:
                            retry.append((worker_id, attempt + 1))
                            round_backoff = max(
                                round_backoff,
                                backoff_seconds(
                                    attempt, jitter=jitter_rng
                                ),
                            )
                if retry and round_backoff > 0.0:
                    sleep(round_backoff)
                pending = retry
    finally:
        if owns_pool:
            pool.close()

    dropped = [r for r in reports.values() if r.status == "dropped"]
    if not results:
        detail = "; ".join(
            f"worker {r.worker_id}: {r.error} "
            f"(after {r.attempts} attempts)"
            for r in dropped
        )
        raise WorkerFailureError(
            f"all {n_workers} workers failed permanently: {detail}"
        )

    with observer.span("merge", workers=len(results)):
        merged = reduce(
            merge_results,
            [results[worker_id] for worker_id in sorted(results)],
        )
        for worker_id in sorted(worker_metrics):
            observer.metrics.merge(
                MetricsRegistry.from_dict(worker_metrics[worker_id])
            )
        for worker_id in sorted(worker_spans):
            observer.tracer.merge(
                worker_spans[worker_id], prefix=f"worker-{worker_id}"
            )
    observer.inc("pool.workers.total", n_workers)
    observer.inc("pool.workers.dropped", len(dropped))
    observer.inc(
        "pool.worker.attempts", sum(r.attempts for r in reports.values())
    )
    merged.stats["workers_total"] = float(n_workers)
    merged.stats["workers_dropped"] = float(len(dropped))
    merged.stats["worker_attempts"] = float(
        sum(r.attempts for r in reports.values())
    )
    if dropped:
        merged.degraded = True
        merged.degraded_reason = "workers-dropped"
        merged.target_trials = n_trials
        merged.guarantee = recompute_guarantee(
            merged.n_trials, n_trials, mu=mu, delta=delta,
        )
    elif merged.guarantee is not None:
        # The merge sums the workers' δ/n shares; state δ itself, not
        # a sum rounded one ulp away from it.
        merged.guarantee = replace(merged.guarantee, delta=delta)
    return merged
