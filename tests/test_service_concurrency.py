"""Real-thread stress tests for the service-layer lock discipline.

These hammer the invariants the concurrency rules (LCK001/ATM001)
protect statically: the token bucket never over-grants under
contention, a half-open breaker admits exactly its probe budget, the
result cache never exceeds its capacity bound, the registry performs
one load per version no matter how many threads race the lazy first
``get()``, and the broker's pool map publishes exactly one worker pool
when two pooled requests race a cold cache (the regression the
``_pools_lock`` fix closed — pre-fix, each racer published its own
pool and the loser's shared-memory segment leaked).

All timing is driven by injected fake clocks; the threads race on
locks, not on wall time, so the suite is fast and deterministic in
what it asserts (exact grant counts, not "usually about N").
"""

import threading
import time

import pytest

from repro.errors import CircuitOpenError
from repro.service import GraphRegistry, QueryBroker
from repro.service import broker as broker_module
from repro.service import registry as registry_module
from repro.service.admission import TokenBucket
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache
from repro.service.chaos import FakeClock
from repro.service.registry import RegistryEntry
from repro.service.schemas import QueryRequest

from .conftest import FIGURE_1_EDGES, build_graph

THREADS = 8


def _run_threads(count, target):
    threads = [
        threading.Thread(target=target, args=(i,))
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestTokenBucketContention:
    def test_frozen_clock_grants_exactly_the_burst(self):
        """No lost and no duplicated tokens: with the clock frozen
        there is no refill, so 800 racing acquires grant exactly the
        5-token burst (a torn ``_tokens`` update would break this)."""
        bucket = TokenBucket(rate=1.0, burst=5.0, clock=FakeClock())
        barrier = threading.Barrier(THREADS)
        grants = [0] * THREADS

        def worker(i):
            barrier.wait()
            for _ in range(100):
                if bucket.try_acquire():
                    grants[i] += 1

        _run_threads(THREADS, worker)
        assert sum(grants) == 5
        assert bucket.available == 0.0

    def test_refill_is_not_double_counted(self):
        """Advancing the clock once mid-hammer refills once: total
        grants stay burst + refill even when every thread observes
        the same elapsed interval."""
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_acquire()
        clock.advance(1.0)  # exactly 2 tokens accrue, shared by all
        barrier = threading.Barrier(THREADS)
        grants = [0] * THREADS

        def worker(i):
            barrier.wait()
            for _ in range(50):
                if bucket.try_acquire():
                    grants[i] += 1

        _run_threads(THREADS, worker)
        assert sum(grants) == 2


class TestBreakerProbeContention:
    def test_half_open_admits_exactly_the_probe_budget(self):
        """After cooldown, racing threads win exactly
        ``half_open_probes`` slots — a double-granted probe means the
        check-then-act in allow() lost its atomicity."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3,
            cooldown_seconds=5.0,
            half_open_probes=3,
            clock=clock,
        )
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        barrier = threading.Barrier(2 * THREADS)
        outcomes = [None] * (2 * THREADS)

        def worker(i):
            barrier.wait()
            try:
                breaker.allow()
                outcomes[i] = "granted"
            except CircuitOpenError:
                outcomes[i] = "rejected"

        _run_threads(2 * THREADS, worker)
        assert outcomes.count("granted") == 3
        assert outcomes.count("rejected") == 2 * THREADS - 3
        assert breaker.state == "half-open"

    def test_cancelled_probes_free_their_slots_exactly_once(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_seconds=1.0,
            half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.allow()
        barrier = threading.Barrier(THREADS)

        def worker(i):
            barrier.wait()
            breaker.cancel_probe()  # only 2 slots are actually out

        _run_threads(THREADS, worker)
        # The surplus cancels were no-ops: exactly two slots came
        # back, so exactly two more probes are grantable.
        breaker.allow()
        breaker.allow()
        try:
            breaker.allow()
            raise AssertionError("third probe should be rejected")
        except CircuitOpenError:
            pass


class TestResultCacheContention:
    def test_capacity_bound_holds_under_hammer(self):
        cache = ResultCache(max_entries=16)
        barrier = threading.Barrier(THREADS)

        def worker(i):
            barrier.wait()
            for j in range(200):
                key = (1, f"req-{i}-{j % 24}")
                cache.put(key, {"ranking": [], "n_trials": j})
                cache.get(key)
                cache.get((1, f"req-{(i + 1) % THREADS}-{j % 24}"))

        _run_threads(THREADS, worker)
        assert len(cache) <= 16
        assert 0.0 <= cache.hit_rate <= 1.0


class TestRegistryLazyLoadContention:
    def test_single_load_per_version(self, monkeypatch):
        """Eight threads racing the lazy first ``get()`` produce ONE
        load and ONE version bump: the losers reuse the winner's entry
        via the under-lock ``only_if_unloaded`` re-check (the ATM001
        documented re-check pattern)."""
        graph = build_graph(FIGURE_1_EDGES, name="stress")
        calls = []
        calls_lock = threading.Lock()

        def fake_load(name, profile, rng=0):
            with calls_lock:
                calls.append(name)
            return graph

        monkeypatch.setattr(
            registry_module, "load_dataset", fake_load
        )
        registry = GraphRegistry(
            ["stress"], sleep=lambda seconds: None, clock=FakeClock()
        )
        barrier = threading.Barrier(THREADS)
        versions = [0] * THREADS

        def worker(i):
            barrier.wait()
            versions[i] = registry.get("stress").version

        _run_threads(THREADS, worker)
        assert calls == ["stress"]
        assert versions == [1] * THREADS


class _BuildFailed(RuntimeError):
    pass


def _wait_until(condition, timeout=10.0):
    """Poll ``condition`` until it holds (or the timeout passes)."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


class _FakePool:
    """Stands in for WorkerPool; rendezvous makes the race certain.

    The event in ``__init__`` holds the builder until a second racing
    thread has entered ``_pool_for``, which is exactly the interleaving
    the old unlocked ``_pool_for`` leaked under and the
    build-and-discard one built twice under.
    """

    created = []
    rendezvous = None
    #: Builds still to fail, each with :class:`_BuildFailed`.
    failures = 0

    def __init__(self, graph, wedge_index, checksum=None, observer=None):
        self.checksum = checksum
        self.closed = False
        if _FakePool.rendezvous is not None:
            _FakePool.rendezvous.wait(timeout=10)
        if _FakePool.failures:
            _FakePool.failures -= 1
            raise _BuildFailed("injected pool build failure")
        _FakePool.created.append(self)

    def close(self):
        self.closed = True


class TestBrokerPoolRace:
    def test_racing_pooled_requests_publish_exactly_one_pool(
        self, monkeypatch
    ):
        """Regression for the broker pool-map race: two pooled
        requests hitting a cold cache concurrently must converge on
        one published pool — before the ``_pools_lock`` fix both
        builds were published blindly and the overwritten pool's
        shared segment leaked, and until builds were single-flight
        both requests built a pool and one was thrown away."""
        monkeypatch.setattr(broker_module, "WorkerPool", _FakePool)
        _FakePool.created = []
        # The build waits until the second request has entered the
        # pool lookup, so it meets a cold map while the build runs.
        entered = []
        _FakePool.rendezvous = threading.Event()
        pool_for = QueryBroker._pool_for

        def entering(broker, *args):
            entered.append(args)
            if len(entered) >= 2:
                _FakePool.rendezvous.set()
            return pool_for(broker, *args)

        monkeypatch.setattr(QueryBroker, "_pool_for", entering)
        graph = build_graph(FIGURE_1_EDGES, name="race")
        registry = GraphRegistry(
            ["race"], sleep=lambda seconds: None, clock=FakeClock()
        )
        broker = QueryBroker(registry, sleep=lambda seconds: None)
        entry = RegistryEntry(
            dataset="race", status="ready", graph=graph,
            version=1, checksum="cafe",
        )
        request = QueryRequest(dataset="race", workers=2, trials=10)
        returned = [None, None]

        def worker(i):
            with broker._pool_for(request, entry) as pool:
                returned[i] = pool

        _run_threads(2, worker)
        assert _FakePool.rendezvous.is_set()
        assert len(_FakePool.created) == 1  # one request built it
        assert returned[0] is returned[1]  # ...the other waited for it
        assert not returned[0].closed
        flight = broker._pools["race"]
        assert flight.checksum == "cafe"
        assert flight.future.result() is returned[0]
        assert flight.users == 0

    def test_checksum_change_still_republishes(self, monkeypatch):
        monkeypatch.setattr(broker_module, "WorkerPool", _FakePool)
        _FakePool.created = []
        _FakePool.rendezvous = None
        graph = build_graph(FIGURE_1_EDGES, name="roll")
        registry = GraphRegistry(
            ["roll"], sleep=lambda seconds: None, clock=FakeClock()
        )
        broker = QueryBroker(registry, sleep=lambda seconds: None)
        request = QueryRequest(dataset="roll", workers=2, trials=10)
        with broker._pool_for(request, RegistryEntry(
            dataset="roll", status="ready", graph=graph,
            version=1, checksum="v1",
        )) as first:
            pass
        with broker._pool_for(request, RegistryEntry(
            dataset="roll", status="ready", graph=graph,
            version=2, checksum="v2",
        )) as second:
            assert first is not second
            assert first.closed and not second.closed
        flight = broker._pools["roll"]
        assert flight.checksum == "v2" and flight.future.result() is second

    @staticmethod
    def _broker(name):
        graph = build_graph(FIGURE_1_EDGES, name=name)
        registry = GraphRegistry(
            [name], sleep=lambda seconds: None, clock=FakeClock()
        )
        broker = QueryBroker(registry, sleep=lambda seconds: None)
        entry = RegistryEntry(
            dataset=name, status="ready", graph=graph,
            version=1, checksum="cafe",
        )
        return broker, entry, QueryRequest(
            dataset=name, workers=2, trials=10
        )

    def _build_with_waiter(self, broker, entry, request, body):
        """Run ``body(i, pool)`` in two requests for one pool: request 0
        builds it, request 1 joins while the build waits, and the build
        finishes once both hold the flight."""
        _FakePool.rendezvous = threading.Event()
        outcomes = [None, None]

        def worker(i):
            try:
                with broker._pool_for(request, entry) as pool:
                    outcomes[i] = body(i, pool)
            except _BuildFailed as error:
                outcomes[i] = error

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        threads[0].start()
        assert _wait_until(lambda: request.dataset in broker._pools)
        flight = broker._pools[request.dataset]
        threads[1].start()
        assert _wait_until(lambda: flight.users == 2)
        return threads, flight, outcomes

    def test_failed_build_raises_in_every_waiter_then_rebuilds(
        self, monkeypatch
    ):
        """A failed build reaches the request that ran it and the one
        waiting on it, and frees the entry: the next request builds
        again instead of finding the failure cached."""
        monkeypatch.setattr(broker_module, "WorkerPool", _FakePool)
        _FakePool.created = []
        _FakePool.failures = 1
        broker, entry, request = self._broker("fail")
        threads, flight, outcomes = self._build_with_waiter(
            broker, entry, request, lambda i, pool: pool
        )
        _FakePool.rendezvous.set()
        for thread in threads:
            thread.join()
        assert isinstance(outcomes[0], _BuildFailed)
        assert outcomes[1] is outcomes[0]
        assert "fail" not in broker._pools and flight.users == 0
        assert _FakePool.created == []
        with broker._pool_for(request, entry) as pool:
            assert not pool.closed
        assert _FakePool.created == [pool]
        assert broker._pools["fail"].future.result() is pool

    @pytest.mark.parametrize("retire", ["reload", "close"])
    def test_pool_retired_during_its_build_serves_its_requests(
        self, monkeypatch, retire
    ):
        """A reload or close that retires a pool still being built
        leaves it to the requests holding it: both run on it open, and
        the last to let go closes it."""
        monkeypatch.setattr(broker_module, "WorkerPool", _FakePool)
        _FakePool.created = []
        _FakePool.failures = 0
        broker, entry, request = self._broker("retire")
        monkeypatch.setattr(
            broker.registry, "reload", lambda dataset=None: None
        )
        done = threading.Barrier(2)

        def body(i, pool):
            closed = pool.closed
            done.wait(timeout=10)  # both requests are running on it
            return closed

        threads, flight, outcomes = self._build_with_waiter(
            broker, entry, request, body
        )
        if retire == "reload":
            broker.reload("retire")
        else:
            broker.close()
        assert "retire" not in broker._pools and flight.retired
        _FakePool.rendezvous.set()
        for thread in threads:
            thread.join()
        assert outcomes == [False, False]
        [pool] = _FakePool.created
        assert pool.closed and flight.users == 0
