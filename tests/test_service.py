"""Unit tests for the fault-tolerant query service components."""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import find_mpmb
from repro.datasets import load_dataset
from repro.errors import (
    AdmissionRejectedError,
    CircuitOpenError,
    ConfigurationError,
    GraphUnavailableError,
    ServiceError,
)
from repro.observability import Observer
from repro.runtime.faults import FaultPlan, ServiceFaultPlan
from repro.sampling.bounds import monte_carlo_trial_bound
from repro.service import (
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    GraphRegistry,
    QueryBroker,
    QueryRequest,
    ResultCache,
    TokenBucket,
    graph_checksum,
)
from repro.service.chaos import FakeClock
from repro.service.http import make_server


def _request(**overrides) -> QueryRequest:
    params = dict(dataset="abide", method="os", trials=40, seed=7)
    params.update(overrides)
    return QueryRequest(**params)


@pytest.fixture(scope="module")
def abide_graph():
    return load_dataset("abide", "bench", rng=0)


@pytest.fixture()
def broker():
    registry = GraphRegistry(["abide"])
    registry.load_all()
    return QueryBroker(registry, sleep=lambda _: None)


class TestRequestSchema:
    def test_defaults_and_validation(self):
        request = _request()
        assert request.method == "os"
        assert request.resolved_trials() == 40

    def test_epsilon_delta_sizing(self):
        request = _request(
            trials=None, mu=0.05, epsilon=0.5, delta=0.1
        )
        assert request.resolved_trials() == monte_carlo_trial_bound(
            0.05, 0.5, 0.1
        )

    @pytest.mark.parametrize("overrides", [
        dict(dataset=""),
        dict(method="nope"),
        dict(trials=None),                      # no budget at all
        dict(epsilon=0.5),                      # epsilon without delta
        dict(trials=40, epsilon=0.5, delta=0.1),  # both budgets
        dict(trials=0),                         # only ols-kl takes 0
        dict(top_k=0),
        dict(prepare=0),
        dict(block_size=0),
        dict(deadline_seconds=0.0),
        dict(workers=0),
        dict(workers=2, method="ols-kl"),       # not poolable
        dict(method="exact-worlds", trials=None, deadline_seconds=5.0),
        dict(epsilon=-1.0, delta=0.1, trials=None),  # Theorem IV.1 range
        dict(mu=5.0),                           # mu outside (0, 1]
        dict(mu=-1.0),
        dict(mu=0.0),
        # Ill-typed JSON values: floats, bools and strings where the
        # engine needs integers, flags or numbers.
        dict(trials=10.5),
        dict(trials=1e3),
        dict(trials=True),
        dict(top_k=2.5),
        dict(prepare=10.5),
        dict(workers=2.0),
        dict(block_size=16.5),
        dict(seed=1.5),
        dict(seed="abc"),
        dict(seed=-1),
        dict(dataset_seed="x"),
        dict(use_cache="no"),
        dict(mu=True),
        dict(deadline_seconds=float("nan")),
        dict(epsilon=float("nan"), delta=0.1, trials=None),
        dict(epsilon=float("inf"), delta=0.1, trials=None),
    ])
    def test_invalid_requests_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            _request(**overrides)

    def test_from_dict_rejects_unknown_fields_and_non_objects(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            QueryRequest.from_dict(
                {"dataset": "abide", "trials": 5, "bogus": 1}
            )
        with pytest.raises(ConfigurationError, match="object"):
            QueryRequest.from_dict(["abide"])

    def test_canonical_params_ignore_presentation_fields(self):
        base = _request(top_k=1).canonical_params()
        assert _request(top_k=10).canonical_params() == base
        assert _request(use_cache=False).canonical_params() == base
        assert _request(
            deadline_seconds=9.0
        ).canonical_params() == base
        assert _request(seed=8).canonical_params() != base

    def test_ols_kl_accepts_dynamic_zero_budget(self):
        request = _request(method="ols-kl", trials=0)
        assert request.resolved_trials() == 0


class TestRegistry:
    def test_checksum_is_content_stable(self, abide_graph):
        again = load_dataset("abide", "bench", rng=0)
        assert graph_checksum(abide_graph) == graph_checksum(again)
        other = load_dataset("abide", "bench", rng=1)
        assert graph_checksum(other) != graph_checksum(abide_graph)

    def test_load_get_and_versioning(self):
        registry = GraphRegistry(["abide"])
        assert not registry.ready()
        entry = registry.get("abide")  # lazy first load
        assert entry.status == "ready"
        assert entry.version == 1
        assert entry.checksum is not None
        assert len(entry.backbone) > 0
        assert registry.ready()
        registry.reload("abide")
        assert registry.get("abide").version == 2

    def test_unknown_dataset_is_explicit(self):
        registry = GraphRegistry(["abide"])
        with pytest.raises(GraphUnavailableError, match="unknown"):
            registry.get("nope")

    def test_corrupt_artifact_is_quarantined_not_fatal(self):
        observer = Observer()
        registry = GraphRegistry(
            ["abide", "movielens"],
            faults=ServiceFaultPlan(corrupt_artifacts=("abide",)),
            observer=observer,
        )
        registry.load_all()
        with pytest.raises(GraphUnavailableError, match="quarantined"):
            registry.get("abide")
        # The other dataset is untouched by the quarantine.
        assert registry.get("movielens").status == "ready"
        assert not registry.ready()
        counters = observer.export_document("t", "t")["counters"]
        assert counters["service.registry.quarantined"] == 1.0

    def test_transient_load_failures_are_retried(self):
        registry = GraphRegistry(
            ["abide"],
            faults=ServiceFaultPlan(load_failures={"abide": 2}),
            max_load_attempts=3,
        )
        assert registry.get("abide").status == "ready"

    def test_persistent_load_failures_mark_entry_failed(self):
        registry = GraphRegistry(
            ["abide"],
            faults=ServiceFaultPlan(load_failures={"abide": 99}),
            max_load_attempts=2,
        )
        registry.load_all()
        with pytest.raises(GraphUnavailableError, match="failed"):
            registry.get("abide")

    def test_concurrent_first_gets_load_once(self):
        registry = GraphRegistry(
            ["abide"],
            faults=ServiceFaultPlan(
                load_delay_seconds={"abide": 0.05}
            ),
        )
        barrier = threading.Barrier(2)
        errors = []

        def racer():
            barrier.wait()
            try:
                registry.get("abide")
            except Exception as error:  # pragma: no cover - fail loud
                errors.append(error)

        threads = [threading.Thread(target=racer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The loser of the lazy-load race reuses the winner's load:
        # exactly one version bump, so version-keyed cache entries
        # written in between stay reachable.
        assert registry.get("abide").version == 1

    def test_describe_rows_are_probe_stable(self):
        registry = GraphRegistry(["abide"])
        registry.load_all()
        (row,) = registry.describe()
        assert tuple(row) == type(
            registry.get("abide")
        ).DESCRIBE_KEYS


class TestAdmission:
    def test_token_bucket_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1.0)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_controller_bounds_inflight(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate=1000.0, burst=1000.0, max_inflight=2, clock=clock
        )
        controller.admit()
        controller.admit()
        with pytest.raises(AdmissionRejectedError, match="capacity"):
            controller.admit()
        controller.release()
        controller.admit()
        assert controller.inflight == 2

    def test_controller_rejects_when_bucket_empty(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate=1.0, burst=1.0, max_inflight=10, clock=clock
        )
        controller.admit()
        with pytest.raises(AdmissionRejectedError, match="rate"):
            controller.admit()

    def test_bad_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_inflight=0)


class TestBreaker:
    def test_open_half_open_close_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=5.0, clock=clock
        )
        breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.open_transitions == 1
        with pytest.raises(CircuitOpenError, match="open"):
            breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        breaker.allow()  # probe slot
        with pytest.raises(CircuitOpenError, match="probe"):
            breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.open_transitions == 2
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_cancel_probe_returns_slot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0, clock=clock
        )
        breaker.cancel_probe()  # closed: a no-op
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()  # takes the single probe slot
        with pytest.raises(CircuitOpenError, match="probe"):
            breaker.allow()
        breaker.cancel_probe()
        breaker.allow()  # the slot is available again, not leaked
        assert breaker.state == "half-open"

    def test_board_isolates_datasets(self):
        clock = FakeClock()
        board = BreakerBoard(failure_threshold=1, clock=clock)
        board.get("a").record_failure()
        assert board.states() == {"a": "open"}
        board.get("b").allow()  # unaffected

    def test_service_errors_share_a_base(self):
        assert issubclass(AdmissionRejectedError, ServiceError)
        assert issubclass(CircuitOpenError, ServiceError)
        assert issubclass(GraphUnavailableError, ServiceError)


class TestResultCache:
    def test_lru_eviction_and_hit_rate(self):
        cache = ResultCache(max_entries=2)
        cache.put((1, ("a",)), {"n": 1})
        cache.put((1, ("b",)), {"n": 2})
        assert cache.get((1, ("a",))) == {"n": 1}  # refresh recency
        cache.put((1, ("c",)), {"n": 3})           # evicts ("b",)
        assert cache.get((1, ("b",))) is None
        assert cache.get((1, ("a",))) is not None
        assert 0.0 < cache.hit_rate < 1.0

    def test_version_keyed_entries_miss_after_bump(self):
        cache = ResultCache()
        cache.put((1, ("a",)), {"n": 1})
        assert cache.get((2, ("a",))) is None

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(max_entries=0)
        cache.put((1, ("a",)), {"n": 1})
        assert cache.get((1, ("a",))) is None
        assert len(cache) == 0


class TestBroker:
    def test_ok_response_matches_cli_bit_for_bit(
        self, broker, abide_graph
    ):
        cli = find_mpmb(
            abide_graph, method="os", n_trials=40, rng=7
        )
        response = broker.handle(_request(top_k=3))
        assert response.status == "ok"
        assert response.n_trials == cli.n_trials
        expected = [
            {
                "labels": list(labels),
                "weight": float(weight),
                "probability": float(probability),
            }
            for labels, weight, probability in cli.labelled_ranking(3)
        ]
        assert response.ranking == expected
        assert response.graph_version == 1

    def test_cache_hit_and_top_k_slicing(self, broker):
        first = broker.handle(_request(top_k=5))
        assert not first.cache_hit
        second = broker.handle(_request(top_k=2))
        assert second.cache_hit
        assert second.ranking == first.ranking[:2]
        bypass = broker.handle(_request(top_k=5, use_cache=False))
        assert not bypass.cache_hit
        assert bypass.ranking == first.ranking

    def test_reload_invalidates_cache(self, broker):
        broker.handle(_request())
        broker.reload("abide")
        response = broker.handle(_request())
        assert not response.cache_hit
        assert response.graph_version == 2

    def test_unknown_dataset_fails_explicitly(self, broker):
        response = broker.handle(_request(dataset="movielens"))
        assert response.status == "failed"
        assert response.reason == "graph-unavailable"

    @pytest.mark.parametrize("overrides", [
        dict(profile="paper"),
        dict(dataset_seed=3),
    ])
    def test_graph_identity_mismatch_fails_explicitly(
        self, broker, overrides
    ):
        # The registry's single graph per dataset was built with the
        # server's --profile/--dataset-seed; a request for a different
        # identity must not be served that graph's results.
        response = broker.handle(_request(use_cache=False, **overrides))
        assert response.status == "failed"
        assert response.reason == "graph-unavailable"
        assert "dataset_seed" in response.detail

    def test_admission_rejection_returns_half_open_probe_slot(self):
        registry = GraphRegistry(["abide"])
        registry.load_all()
        clock = FakeClock()
        admission = AdmissionController(
            rate=1.0, burst=1.0, max_inflight=4, clock=clock
        )
        breakers = BreakerBoard(
            failure_threshold=1, cooldown_seconds=5.0, clock=clock
        )
        broker = QueryBroker(
            registry, admission=admission, breakers=breakers,
            sleep=lambda _: None, clock=clock,
        )
        breaker = breakers.get("abide")
        breaker.record_failure()  # open
        clock.advance(5.0)        # half-open: one probe slot
        admission.admit()         # drain the token bucket
        response = broker.handle(_request(use_cache=False))
        assert (response.status, response.reason) == (
            "rejected", "admission-rejected"
        )
        # The shed request handed its probe slot back; the breaker is
        # not wedged half-open — a later probe can still get through.
        breaker.allow()

    def test_parallel_deadline_is_propagated_to_pool(
        self, monkeypatch, abide_graph
    ):
        registry = GraphRegistry(["abide"])
        registry.load_all()
        clock = FakeClock()
        broker = QueryBroker(registry, sleep=lambda _: None, clock=clock)
        result = find_mpmb(abide_graph, method="os", n_trials=40, rng=7)
        captured = {}

        def fake_pool(graph, trials, workers, **kwargs):
            captured.update(kwargs)
            return result

        monkeypatch.setattr(
            "repro.core.mpmb.run_parallel_trials", fake_pool
        )
        response = broker.handle(
            _request(workers=2, deadline_seconds=2.5, use_cache=False)
        )
        assert response.status == "ok"
        # The remaining budget reaches the pool as a straggler cut-off,
        # and in-pool retries are disabled (they could only finish past
        # the deadline).
        assert captured["straggler_timeout"] == pytest.approx(2.5)
        assert captured["max_attempts"] == 1

    def test_deadline_guarantee_states_the_request_target(self):
        """A deadline-degraded answer states the request's ``mu`` and
        ``delta``, whether the run stopped mid-loop or the deadline
        expired before it started (both used to state 0.05 and 0.1)."""
        registry = GraphRegistry(["abide"])
        registry.load_all()
        clock = FakeClock()

        def ticking():
            clock.advance(0.1)
            return clock()

        broker = QueryBroker(registry, sleep=lambda _: None, clock=ticking)
        target = dict(
            trials=None, mu=0.2, epsilon=0.05, delta=0.01, use_cache=False
        )
        for deadline, achieved in ((0.35, True), (0.05, False)):
            response = broker.handle(
                _request(deadline_seconds=deadline, **target)
            )
            assert (response.status, response.reason) == (
                "degraded", "deadline"
            )
            assert (response.n_trials > 0) == achieved
            guarantee = response.guarantee
            assert (guarantee["mu"], guarantee["delta"]) == (0.2, 0.01)

    def test_fixed_ols_kl_budgets_follow_mu_past_the_cache(self, broker):
        """``mu`` sizes fixed OLS-KL's Lemma VI.4 budgets, so a request
        with another ``mu`` runs its own budgets, not a cached answer
        (both used to run the same trials, the second as a cache
        hit)."""
        first = broker.handle(_request(method="ols-kl", trials=0, mu=0.05))
        second = broker.handle(_request(method="ols-kl", trials=0, mu=0.3))
        assert (first.status, second.status) == ("ok", "ok")
        assert not second.cache_hit
        assert second.n_trials != first.n_trials

    def test_parallel_without_deadline_keeps_pool_retries(
        self, monkeypatch, abide_graph
    ):
        registry = GraphRegistry(["abide"])
        registry.load_all()
        broker = QueryBroker(registry, sleep=lambda _: None)
        result = find_mpmb(abide_graph, method="os", n_trials=40, rng=7)
        captured = {}

        def fake_pool(graph, trials, workers, **kwargs):
            captured.update(kwargs)
            return result

        monkeypatch.setattr(
            "repro.core.mpmb.run_parallel_trials", fake_pool
        )
        response = broker.handle(_request(workers=2, use_cache=False))
        assert response.status == "ok"
        assert "straggler_timeout" not in captured
        assert "max_attempts" not in captured

    def test_transient_worker_failure_is_retried(self):
        registry = GraphRegistry(["abide"])
        registry.load_all()
        slept = []
        observer = Observer()
        broker = QueryBroker(
            registry, observer=observer, retry_attempts=2,
            retry_rng=3, sleep=slept.append,
            faults=ServiceFaultPlan(
                request_faults=FaultPlan(
                    worker_crash_attempts={0: 99, 1: 99}
                ),
            ),
        )
        response = broker.handle(_request(workers=2, use_cache=False))
        assert response.status == "failed"
        assert response.reason == "worker-failure"
        counters = observer.export_document("t", "t")["counters"]
        assert counters["service.retries"] == 1.0
        assert counters["service.requests.failed"] == 1.0

    def test_exact_method_through_service(self, broker):
        response = broker.handle(
            QueryRequest(dataset="abide", method="exact-worlds")
        )
        # The bench abide graph exceeds the exact enumeration budget;
        # either outcome must be explicit, never an exception.
        assert response.status in ("ok", "failed")
        if response.status == "failed":
            assert response.reason == "execution-error"

    def test_exact_methods_under_a_request_fault_plan(
        self, monkeypatch, figure1
    ):
        """The exact solvers take no runtime policy, so the request
        fault plan never reaches them (both used to raise a
        ``TypeError`` out of ``handle``, which never raises)."""
        monkeypatch.setattr(
            "repro.service.registry.load_dataset",
            lambda name, profile, rng: figure1,
        )
        registry = GraphRegistry(["abide"])
        registry.load_all()
        broker = QueryBroker(
            registry, sleep=lambda _: None,
            faults=ServiceFaultPlan(
                request_faults=FaultPlan(crash_before_trial=1)
            ),
        )
        for method in ("exact-worlds", "exact-inclusion-exclusion"):
            response = broker.handle(
                QueryRequest(dataset="abide", method=method)
            )
            assert response.status == "ok", response.detail
            assert response.ranking[0]["probability"] == pytest.approx(
                0.11424
            )

    def test_metrics_and_probes(self, broker):
        observer = Observer()
        broker.observer = observer
        broker.handle(_request())
        counters = observer.export_document("t", "t")["counters"]
        assert counters["service.requests.total"] == 1.0
        assert counters["service.requests.ok"] == 1.0
        assert counters["service.cache.misses"] == 1.0
        assert broker.health()["status"] == "alive"
        readiness = broker.readiness()
        assert readiness["ready"] is True
        assert readiness["datasets"][0]["dataset"] == "abide"


class TestHttpFrontend:
    @pytest.fixture()
    def server(self, broker):
        server = make_server(broker, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def _get(self, server, path):
        with urllib.request.urlopen(self._url(server, path)) as reply:
            return reply.status, json.loads(reply.read())

    def test_probes_and_query(self, server):
        status, payload = self._get(server, "/healthz")
        assert (status, payload["status"]) == (200, "alive")
        status, payload = self._get(server, "/readyz")
        assert status == 200 and payload["ready"]

        body = json.dumps(
            {"dataset": "abide", "method": "os", "trials": 40,
             "seed": 7}
        ).encode()
        request = urllib.request.Request(
            self._url(server, "/query"), data=body, method="POST"
        )
        with urllib.request.urlopen(request) as reply:
            payload = json.loads(reply.read())
        assert reply.status == 200
        assert payload["status"] == "ok"
        assert payload["kind"] == "repro-query-response"
        assert len(payload["ranking"]) == 1

    def test_malformed_request_is_400(self, server):
        request = urllib.request.Request(
            self._url(server, "/query"),
            data=b'{"dataset": "abide"}', method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "budget" in json.loads(excinfo.value.read())["error"]

    def test_ill_typed_request_is_400(self, server):
        request = urllib.request.Request(
            self._url(server, "/query"),
            data=json.dumps(
                {"dataset": "abide", "method": "os", "trials": 10.5}
            ).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "trials" in json.loads(excinfo.value.read())["error"]

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self._url(server, "/nope"))
        assert excinfo.value.code == 404

    def test_malformed_content_length_is_400(self, server):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: nope\r\n"
                b"\r\n"
            )
            reply = sock.recv(4096)
        status_line = reply.split(b"\r\n", 1)[0]
        assert b"400" in status_line
