"""The served program, built as ``repro serve`` builds it, and its caller.

:func:`build_service` is ``_run_serve``'s construction with its
defaults: one live :class:`~repro.observability.Observer` shared by a
:class:`~repro.service.GraphRegistry` over the four bench graphs
(``dataset_seed`` 0, ``backbone_k`` 8) and a
:class:`~repro.service.QueryBroker` with ``AdmissionController(rate=50,
burst=10, max_inflight=4)``, the default ``BreakerBoard`` and
``ResultCache(128)``.

:func:`drive` is the caller: a closed loop with one caller in one
process.  One timed request is ``QueryRequest.from_dict(payload)`` →
``QueryBroker.handle`` → ``QueryResponse.to_dict()``, the HTTP
handler's work minus the socket.  After every request it times one
``/metrics`` scrape: ``Observer.export_document`` plus ``json.dumps``,
what ``GET /metrics`` runs.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from answers import AnswerCheck
from hostspeed import HostProbe
from workloads import DATASETS, Workload

#: The counters whose totals must repeat exactly for a seed.
FINGERPRINT_COUNTERS = (
    "engine.trials.completed",
    "prepare.trials",
    "kernel.trials_vectorized",
    "adaptive.trials_saved",
    "adaptive.prescreen.samples",
    "service.cache.hits",
    "service.cache.misses",
)


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers."""


@dataclass
class Service:
    """One served stack: its observer and broker."""

    observer: object
    broker: object
    setup_seconds: float

    def close(self) -> None:
        self.broker.close()


def build_service(workload: Workload, answers: AnswerCheck) -> Service:
    """Construct, load and warm one service; time it as set-up."""
    from repro.observability import Observer
    from repro.service import (
        AdmissionController,
        BreakerBoard,
        GraphRegistry,
        QueryBroker,
        QueryRequest,
        ResultCache,
    )

    started = time.perf_counter()
    observer = Observer()
    registry = GraphRegistry(
        DATASETS, profile="bench", dataset_seed=0, backbone_k=8,
        observer=observer,
    )
    registry.load_all()
    broker = QueryBroker(
        registry,
        admission=AdmissionController(rate=50, burst=10, max_inflight=4),
        breakers=BreakerBoard(),
        cache=ResultCache(128),
        observer=observer,
    )
    payloads = workload.setup_requests()
    documents = [
        broker.handle(QueryRequest.from_dict(payload)).to_dict()
        for payload in payloads
    ]
    setup_seconds = time.perf_counter() - started
    service = Service(observer, broker, setup_seconds)
    if not registry.ready():
        service.close()
        raise BenchmarkError(f"registry not ready: {registry.describe()}")
    for payload, document in zip(payloads, documents):
        problem = answers.check(document, payload)
        if problem is not None:
            service.close()
            raise BenchmarkError(f"set-up request failed: {problem}")
    return service


@dataclass
class Pass:
    """What one timed pass over a workload's requests recorded."""

    latencies: List[float] = field(default_factory=list)
    scrape_seconds: List[float] = field(default_factory=list)
    scrape_bytes: List[int] = field(default_factory=list)
    statuses: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    trials: int = 0
    probe: HostProbe = field(default_factory=HostProbe)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def drive(
    service: Service,
    workload: Workload,
    seed: int,
    rounds: int,
    answers: AnswerCheck,
    observe: Optional[Callable] = None,
) -> Pass:
    """Send every timed request in a closed loop; check every answer.

    ``observe(payload, document)`` is called after each request,
    outside the timed interval; the traced run uses it to attribute
    layer time to requests.  The host probe runs after each request's
    scrape, outside every timed interval.
    """
    from repro.service import QueryRequest

    broker = service.broker
    observer = service.observer
    clock = time.perf_counter
    record = Pass()
    # Start from a collected heap, so set-up garbage is not freed (or
    # kept) at a seed-dependent point of the timed phase.
    gc.collect()
    statuses = record.statuses
    for label, payload in workload.requests(seed, rounds):
        started = clock()
        request = QueryRequest.from_dict(payload)
        document = broker.handle(request).to_dict()
        record.latencies.append(clock() - started)
        status = document["status"]
        statuses[status] = statuses.get(status, 0) + 1
        record.trials += document["n_trials"]
        problem = answers.check(document, payload)
        if problem is not None:
            record.failures.append(f"{label} seed {payload['seed']}: "
                                   f"{problem}")
        if observe is not None:
            observe(payload, document)
        started = clock()
        body = json.dumps(observer.export_document(
            method="service", graph_name="service",
        ))
        record.scrape_seconds.append(clock() - started)
        record.scrape_bytes.append(len(body))
        record.probe()
    return record


def fingerprint(service: Service, record: Pass) -> Dict[str, object]:
    """The counts that must repeat exactly for one seed and code."""
    counters = service.observer.metrics.to_dict()["counters"]
    spans = service.observer.tracer.spans
    return {
        "requests": dict(sorted(record.statuses.items())),
        "failed_checks": len(record.failures),
        "n_trials": record.trials,
        "counters": {
            name: counters.get(name, 0.0) for name in FINGERPRINT_COUNTERS
        },
        "wedge_index_spans": sum(
            1 for span in spans if span.name == "wedge-index"
        ),
        "spans_retained": len(spans),
        "cache_entries": len(service.broker.cache),
    }
