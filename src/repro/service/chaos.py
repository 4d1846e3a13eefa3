"""Scripted, deterministic chaos scenarios for the query service.

Each scenario builds a fresh service stack (registry → broker) around a
:class:`~repro.runtime.faults.ServiceFaultPlan`, drives a scripted
request sequence, and checks the service's **core invariant**: under
injected faults, every well-formed request resolves to a well-formed
response — success, an explicit backpressure/breaker rejection, or a
degraded result carrying a re-widened guarantee.  Never a crash, never
a hang, never unbounded queueing.

Everything is deterministic: injected clocks (no real time), recorded
sleeps (no real waiting), seeded RNGs, and fault schedules fixed ahead
of time.  The same scenarios run as unit tests
(``tests/test_service_chaos.py``) and as the CI ``chaos-smoke`` job::

    PYTHONPATH=src python -m repro.service.chaos            # all
    PYTHONPATH=src python -m repro.service.chaos worker-crash
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..observability import Observer
from ..runtime.faults import FaultPlan, ServiceFaultPlan
from .admission import AdmissionController
from .breaker import BreakerBoard
from .broker import QueryBroker
from .cache import ResultCache
from .registry import GraphRegistry
from .schemas import STATUSES, QueryRequest, QueryResponse

#: Dataset all scenarios query (smallest bench profile).
DATASET = "abide"

#: Tiny budgets: chaos tests exercise control flow, not estimates.
TRIALS = 40


class FakeClock:
    """A manually-stepped monotonic clock."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


@dataclass
class ScenarioReport:
    """Outcome of one scripted scenario run."""

    name: str
    passed: bool
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, description: str) -> None:
        """Record one invariant check."""
        (self.checks if ok else self.failures).append(description)
        if not ok:
            self.passed = False


@dataclass(frozen=True)
class Scenario:
    """One named chaos scenario: a fault plan plus a scripted driver."""

    name: str
    description: str
    run: Callable[["ScenarioReport"], None]


def _stack(
    faults: Optional[ServiceFaultPlan] = None,
    clock: Optional[FakeClock] = None,
    rate: float = 1000.0,
    burst: float = 1000.0,
    max_inflight: int = 8,
    failure_threshold: int = 2,
    cooldown_seconds: float = 10.0,
    retry_attempts: int = 2,
) -> Tuple[QueryBroker, Observer, FakeClock, List[float]]:
    """A fully-injected service stack (no real clocks or sleeps)."""
    clock = clock or FakeClock()
    slept: List[float] = []
    observer = Observer()
    registry = GraphRegistry(
        [DATASET], faults=faults, observer=observer,
        sleep=slept.append, clock=clock,
    )
    broker = QueryBroker(
        registry,
        admission=AdmissionController(
            rate=rate, burst=burst, max_inflight=max_inflight,
            clock=clock,
        ),
        breakers=BreakerBoard(
            failure_threshold=failure_threshold,
            cooldown_seconds=cooldown_seconds, clock=clock,
        ),
        cache=ResultCache(),
        observer=observer,
        faults=faults,
        retry_attempts=retry_attempts,
        retry_rng=0,
        sleep=slept.append,
        clock=clock,
    )
    return broker, observer, clock, slept


def _request(**overrides) -> QueryRequest:
    params = dict(dataset=DATASET, method="os", trials=TRIALS, seed=7)
    params.update(overrides)
    return QueryRequest(**params)


def well_formed(response: QueryResponse, report: ScenarioReport) -> None:
    """The core invariant checks every scenario applies per response."""
    report.check(
        response.status in STATUSES,
        f"status {response.status!r} is well-formed",
    )
    if response.status == "degraded":
        report.check(
            response.guarantee is not None,
            "degraded response carries a re-widened guarantee",
        )
    if response.status in ("rejected", "failed"):
        report.check(
            response.reason is not None,
            f"{response.status} response explains itself",
        )


def _run_slow_load(report: ScenarioReport) -> None:
    """A slow artifact store delays startup but never wedges serving."""
    faults = ServiceFaultPlan(load_delay_seconds={DATASET: 45.0})
    broker, observer, clock, slept = _stack(faults=faults)
    report.check(not broker.registry.ready(), "not ready before load")
    broker.registry.load_all()
    report.check(45.0 in slept, "injected load delay was slept")
    report.check(broker.registry.ready(), "ready after slow load")
    response = broker.handle(_request())
    well_formed(response, report)
    report.check(response.status == "ok", "request served after slow load")


def _run_corrupt_artifact(report: ScenarioReport) -> None:
    """A corrupt artifact is quarantined; the service answers, not dies."""
    faults = ServiceFaultPlan(corrupt_artifacts=(DATASET,))
    broker, observer, clock, _ = _stack(faults=faults)
    broker.registry.load_all()
    report.check(
        not broker.registry.ready(), "corrupt dataset is not ready"
    )
    response = broker.handle(_request())
    well_formed(response, report)
    report.check(
        response.status == "failed"
        and response.reason == "graph-unavailable",
        "quarantined graph yields explicit graph-unavailable",
    )
    counters = observer.export_document("chaos", DATASET)["counters"]
    report.check(
        counters.get("service.registry.quarantined", 0.0) >= 1.0,
        "quarantine was counted",
    )
    # Recovery: the fixed artifact reloads and serves.
    broker.registry.faults = ServiceFaultPlan()
    broker.reload(DATASET)
    response = broker.handle(_request())
    well_formed(response, report)
    report.check(
        response.status == "ok", "served after quarantine recovery"
    )


def _run_worker_crash(report: ScenarioReport) -> None:
    """Worker crashes degrade or fail explicitly and open the breaker."""
    faults = ServiceFaultPlan(
        request_faults=FaultPlan(worker_crash_attempts={0: 99, 1: 99}),
    )
    broker, observer, clock, slept = _stack(faults=faults)
    broker.registry.load_all()
    # Transient single-worker crash: retried inside the pool, request
    # still succeeds (worker 0 recovers on its second attempt).
    transient = ServiceFaultPlan(
        request_faults=FaultPlan(worker_crash_attempts={0: 1}),
    )
    broker.faults = transient
    response = broker.handle(_request(workers=2, use_cache=False))
    well_formed(response, report)
    report.check(
        response.status == "ok", "transient worker crash is absorbed"
    )
    # Permanent all-worker crashes: broker retries, then fails
    # explicitly; repeated failures open the dataset's breaker.
    broker.faults = faults
    first = broker.handle(_request(workers=2, use_cache=False))
    well_formed(first, report)
    report.check(
        first.status == "failed" and first.reason == "worker-failure",
        "permanent worker failure is an explicit failed response",
    )
    report.check(len(slept) > 0, "broker retried with backoff first")
    second = broker.handle(_request(workers=2, use_cache=False))
    well_formed(second, report)
    third = broker.handle(_request(workers=2, use_cache=False))
    well_formed(third, report)
    report.check(
        third.status == "rejected" and third.reason == "circuit-open",
        "breaker opens after repeated failures",
    )
    # Half-open probe after cooldown, with the fault gone: recovery.
    broker.faults = ServiceFaultPlan()
    clock.advance(11.0)
    probe = broker.handle(_request(workers=2, use_cache=False))
    well_formed(probe, report)
    report.check(
        probe.status == "ok", "half-open probe closes the breaker"
    )


def _run_load_spike(report: ScenarioReport) -> None:
    """A request spike is shed explicitly; memory stays bounded."""
    broker, observer, clock, _ = _stack(rate=1.0, burst=3.0)
    broker.registry.load_all()
    statuses: Dict[str, int] = {}
    for index in range(10):
        response = broker.handle(
            _request(seed=index, use_cache=False)
        )
        well_formed(response, report)
        statuses[response.status] = statuses.get(response.status, 0) + 1
    report.check(statuses.get("ok", 0) == 3, "burst capacity served")
    report.check(
        statuses.get("rejected", 0) == 7,
        "overflow rejected explicitly (backpressure)",
    )
    counters = observer.export_document("chaos", DATASET)["counters"]
    report.check(
        counters.get("service.admission.rejected", 0.0) == 7.0,
        "admission rejections counted",
    )
    # Tokens refill with time: the service recovers on its own.
    clock.advance(2.0)
    response = broker.handle(_request(use_cache=False))
    well_formed(response, report)
    report.check(
        response.status == "ok", "served again after the spike passes"
    )


def _run_deadline_expiry(report: ScenarioReport) -> None:
    """An expiring deadline degrades with a re-widened guarantee."""
    broker, observer, clock, _ = _stack()
    broker.registry.load_all()
    # The broker's injected clock never advances, so a generous
    # deadline completes the run...
    response = broker.handle(
        _request(deadline_seconds=60.0, use_cache=False)
    )
    well_formed(response, report)
    report.check(
        response.status == "ok", "unhurried deadline completes"
    )

    # ...while a clock that steps forward on every read expires the
    # deadline mid-loop: the engine stops between units (one-trial
    # blocks here, so the clock reads once per trial) and the response
    # carries the partial result with a re-widened guarantee.
    class SteppingClock(FakeClock):
        def __call__(self) -> float:
            self.now += 0.01
            return self.now

    stepping = SteppingClock()
    registry = GraphRegistry(
        [DATASET], observer=observer, clock=stepping
    )
    hurried = QueryBroker(
        registry, observer=observer, clock=stepping,
        sleep=lambda _: None,
    )
    registry.load_all()
    response = hurried.handle(
        _request(
            trials=5000, deadline_seconds=1.0, use_cache=False,
            block_size=1,
        )
    )
    well_formed(response, report)
    report.check(
        response.status == "degraded"
        and response.degraded_reason == "deadline",
        "expired deadline degrades instead of erroring",
    )
    report.check(
        response.guarantee is not None
        and 0 < response.guarantee["achieved_trials"] < 5000,
        "guarantee re-widened to the trials actually completed",
    )
    report.check(
        len(response.ranking) > 0,
        "degraded response still carries the partial ranking",
    )


#: All scripted scenarios, in documentation order.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("slow-load",
             "artifact store is slow; startup delayed, never wedged",
             _run_slow_load),
    Scenario("corrupt-artifact",
             "artifact fails checksum; quarantined, others keep serving",
             _run_corrupt_artifact),
    Scenario("worker-crash",
             "workers crash transiently and permanently; retry, "
             "explicit failure, breaker open/half-open/close",
             _run_worker_crash),
    Scenario("load-spike",
             "burst beyond admission capacity; explicit shedding and "
             "self-recovery",
             _run_load_spike),
    Scenario("deadline-expiry",
             "per-request deadline expires mid-run; degraded result "
             "with re-widened guarantee",
             _run_deadline_expiry),
)


def run_scenario(name: str) -> ScenarioReport:
    """Run one scenario by name and return its report.

    Raises:
        ConfigurationError: For unknown scenario names.
    """
    for scenario in SCENARIOS:
        if scenario.name == name:
            report = ScenarioReport(name=name, passed=True)
            scenario.run(report)
            return report
    known = ", ".join(s.name for s in SCENARIOS)
    raise ConfigurationError(
        f"unknown chaos scenario {name!r}; known: {known}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the named scenarios (default: all)."""
    if argv is None:
        argv = sys.argv[1:]
    names = argv or [scenario.name for scenario in SCENARIOS]
    exit_code = 0
    for name in names:
        report = run_scenario(name)
        verdict = "PASS" if report.passed else "FAIL"
        print(f"[{verdict}] {name}: {len(report.checks)} checks")
        for failure in report.failures:
            print(f"         FAILED: {failure}")
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
