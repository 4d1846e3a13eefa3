"""The broker's per-graph wedge index: built once, shared, dropped.

Every MC-VP, OS, OLS and OLS-KL request reads the dataset's one cached
:class:`~repro.kernels.wedge_block.WedgeIndex` — unpooled requests
directly, pooled ones through the shared-memory segment their pool
publishes, adaptive OLS-KL through its pre-screen.  Pinned here: one
build per dataset over a mixed request stream (counted, as servebench
counts them, at every module that binds the builder), answers equal to
runs that build their own index (the broker's determinism contract),
rebuild on a reload with new bytes, the drop on ``close()``, a retry
after a failed build, and one build for racing first requests.
"""

from __future__ import annotations

import importlib
import sys
import threading

import pytest

from repro.core import find_mpmb
from repro.datasets import load_dataset
from repro.kernels import wedge_block
from repro.runtime import run_parallel_trials
from repro.service import GraphRegistry, QueryBroker, QueryRequest
from repro.service import registry as registry_module
from repro.service.admission import AdmissionController
from repro.service.broker import _ranking_rows

DATASETS = ("abide", "movielens")

#: Every module that binds ``build_wedge_index`` for a caller.
BUILDER_MODULES = (
    "repro.kernels.wedge_block",
    "repro.core.mc_vp",
    "repro.core.ordering_sampling",
    "repro.adaptive.prescreen",
)

#: All four sampling methods, pooled and unpooled, fixed and adaptive.
MIX = (
    dict(method="mc-vp", trials=64),
    dict(method="os", trials=64),
    dict(method="ols", trials=64, prepare=20),
    dict(method="ols-kl", trials=16, prepare=20),
    dict(method="os", trials=64, workers=2),
    dict(method="ols", trials=64, prepare=20, workers=2),
    dict(method="mc-vp", trials=64, workers=2, mode="adaptive"),
    dict(method="os", trials=256, mode="adaptive"),
    dict(method="ols", trials=256, prepare=20, mode="adaptive"),
    dict(method="ols-kl", trials=64, prepare=20, mode="adaptive"),
)


@pytest.fixture
def builds(monkeypatch):
    """The graph of every ``build_wedge_index`` call in this process."""
    calls = []
    original = wedge_block.build_wedge_index

    def counting(graph):
        calls.append(graph)
        return original(graph)

    for name in BUILDER_MODULES:
        monkeypatch.setattr(
            importlib.import_module(name), "build_wedge_index", counting
        )
    return calls


def _broker(datasets=DATASETS, inflight=1):
    """A broker whose admission never rejects these tests' requests."""
    registry = GraphRegistry(list(datasets))
    registry.load_all()
    return QueryBroker(
        registry, sleep=lambda _: None,
        admission=AdmissionController(
            rate=1000.0, burst=100.0, max_inflight=inflight
        ),
    )


def _request(dataset, seed, **params):
    return QueryRequest(
        dataset=dataset, seed=seed, top_k=50, use_cache=False, **params
    )


def _expected(graph, request):
    """The request run without the broker, building its own index."""
    adaptive = {"adaptive": True} if request.mode == "adaptive" else {}
    if request.workers > 1:
        return run_parallel_trials(
            graph, request.trials, request.workers,
            method=request.method, rng=request.seed,
            n_prepare=request.prepare, **adaptive,
        )
    return find_mpmb(
        graph, method=request.method, n_trials=request.trials,
        n_prepare=request.prepare, rng=request.seed, **adaptive,
    )


def _assert_answers(response, expected, request):
    assert response.status == "ok", response.detail
    assert response.n_trials == expected.n_trials
    assert response.ranking == _ranking_rows(expected, request.top_k)
    guarantee = expected.guarantee
    assert response.guarantee == (
        None if guarantee is None else guarantee.to_dict()
    )


class TestOneIndexPerDataset:
    def test_mixed_requests_build_once_per_dataset(self, builds):
        broker = _broker()
        try:
            for seed, params in enumerate(MIX):
                for dataset in DATASETS:
                    response = broker.handle(
                        _request(dataset, seed, **params)
                    )
                    assert response.status == "ok", response.detail
        finally:
            broker.close()
        graphs = [broker.registry.get(name).graph for name in DATASETS]
        assert [
            sum(1 for built in builds if built is graph) for graph in graphs
        ] == [1, 1]
        assert len(builds) == 2

    def test_answers_equal_runs_without_the_shared_index(self):
        broker = _broker()
        try:
            for seed, params in enumerate(MIX):
                for dataset in DATASETS:
                    request = _request(dataset, 100 + seed, **params)
                    response = broker.handle(request)
                    graph = broker.registry.get(dataset).graph
                    _assert_answers(
                        response, _expected(graph, request), request
                    )
        finally:
            broker.close()


class TestReloadAndClose:
    @pytest.fixture
    def new_bytes_on_reload(self, monkeypatch):
        """Each load of a dataset serves other graph bytes."""
        loads = []

        def load(dataset, profile, rng=None):
            loads.append(dataset)
            return load_dataset(dataset, profile, rng=len(loads) - 1)

        monkeypatch.setattr(registry_module, "load_dataset", load)

    def _assert_rebuilt(self, broker, builds, request, response):
        entry = broker.registry.get("abide")
        assert broker._indexes["abide"].checksum == entry.checksum
        assert len(builds) == 2 and builds[1] is entry.graph
        _assert_answers(response, _expected(entry.graph, request), request)

    def test_reload_with_new_bytes_rebuilds(
        self, builds, new_bytes_on_reload
    ):
        broker = _broker(datasets=("abide",))
        try:
            request = _request("abide", 5, method="os", trials=64)
            broker.handle(request)
            first_checksum = broker._indexes["abide"].checksum
            broker.reload("abide")
            assert "abide" not in broker._indexes
            response = broker.handle(request)
            assert broker._indexes["abide"].checksum != first_checksum
            self._assert_rebuilt(broker, builds, request, response)
        finally:
            broker.close()

    def test_checksum_change_alone_rebuilds(
        self, builds, new_bytes_on_reload
    ):
        """A registry reload the broker never saw still retires the old
        index: the cache is keyed on the graph's checksum."""
        broker = _broker(datasets=("abide",))
        try:
            request = _request("abide", 5, method="os", trials=64)
            broker.handle(request)
            broker.registry.reload("abide")
            response = broker.handle(request)
            self._assert_rebuilt(broker, builds, request, response)
        finally:
            broker.close()

    def test_close_drops_every_index(self):
        broker = _broker()
        for dataset in DATASETS:
            broker.handle(_request(dataset, 1, method="os", trials=16))
        assert sorted(broker._indexes) == sorted(DATASETS)
        broker.close()
        assert broker._indexes == {}


class TestFailedBuild:
    def test_failed_build_frees_the_entry(self, builds, monkeypatch):
        """A build that raises leaves nothing cached: the error reaches
        the request, and the next request builds the index again."""
        broker = _broker(datasets=("abide",))
        entry = broker.registry.get("abide")
        counting = wedge_block.build_wedge_index

        def failing(graph):
            counting(graph)
            raise MemoryError("injected wedge index build failure")

        monkeypatch.setattr(wedge_block, "build_wedge_index", failing)
        with pytest.raises(MemoryError):
            broker._index_for("abide", entry.checksum, entry.graph)
        assert "abide" not in broker._indexes
        monkeypatch.setattr(wedge_block, "build_wedge_index", counting)
        index = broker._index_for("abide", entry.checksum, entry.graph)
        assert broker._indexes["abide"].future.result() is index
        assert builds == [entry.graph, entry.graph]


class TestConcurrentFirstRequests:
    THREADS = 6

    def test_racing_first_requests_share_one_index(
        self, builds, monkeypatch
    ):
        """More request threads than cores, with a short switch
        interval, race a cold index map: one of them builds the index
        while the others wait for it, every answer is the determinism
        contract's, and one index stays cached."""
        broker = _broker(datasets=("movielens",), inflight=self.THREADS)
        request = _request(
            "movielens", 3, method="ols", trials=64, prepare=20
        )
        # The build waits until a second request has entered the
        # broker's index lookup, so that request meets a cold map
        # while the build runs.
        entered = []
        second = threading.Event()
        index_for = broker._index_for

        def entering(*args):
            entered.append(args)
            if len(entered) >= 2:
                second.set()
            return index_for(*args)

        counting = wedge_block.build_wedge_index

        def waiting(graph):
            second.wait(timeout=10)
            return counting(graph)

        monkeypatch.setattr(broker, "_index_for", entering)
        monkeypatch.setattr(wedge_block, "build_wedge_index", waiting)
        barrier = threading.Barrier(self.THREADS)
        responses = [None] * self.THREADS

        def worker(i):
            barrier.wait(timeout=30)
            responses[i] = broker.handle(request)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert second.is_set()
            assert len(builds) == 1
            assert list(broker._indexes) == ["movielens"]
            graph = broker.registry.get("movielens").graph
            expected = _expected(graph, request)
            for response in responses:
                _assert_answers(response, expected, request)
        finally:
            broker.close()
