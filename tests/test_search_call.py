"""The CLI and the query service make one and the same search call."""

from __future__ import annotations

import inspect

import pytest

import repro.__main__ as cli
import repro.service.broker as broker_module
from repro.core import find_mpmb
from repro.runtime import POOLABLE_METHODS
from repro.service import (
    AdmissionController,
    GraphRegistry,
    QueryBroker,
    QueryRequest,
)
from repro.service.registry import graph_checksum

#: ``find_mpmb`` arguments naming a door's own resources, not the
#: search: each door brings its graph object, observer, wedge index and
#: worker pool.
RESOURCES = ("graph", "observer", "wedge_index", "pool")

#: Each sampling method, in-process and (where it pools) on 2 workers,
#: in fixed and adaptive mode.
CASES = [
    (method, workers, mode)
    for method in ("mc-vp", "os", "ols", "ols-kl")
    for workers in (1, 2)
    if workers == 1 or method in POOLABLE_METHODS
    for mode in ("fixed", "adaptive")
]


class _Called(Exception):
    """Stops a door at its ``find_mpmb`` call."""


def _recorder(calls):
    signature = inspect.signature(find_mpmb)

    def record(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        raise _Called

    return record


@pytest.fixture(scope="module")
def broker():
    registry = GraphRegistry(["abide"])
    registry.load_all()
    broker = QueryBroker(
        registry, sleep=lambda _: None,
        admission=AdmissionController(rate=1000.0, burst=100.0),
    )
    yield broker
    broker.close()


@pytest.mark.parametrize("method,workers,mode", CASES)
def test_cli_and_service_bind_the_same_arguments(
    monkeypatch, broker, method, workers, mode
):
    cli_calls, service_calls = [], []
    monkeypatch.setattr(cli, "find_mpmb", _recorder(cli_calls))
    monkeypatch.setattr(
        broker_module, "find_mpmb", _recorder(service_calls)
    )
    argv = [
        "search", "--dataset", "abide", "--method", method,
        "--trials", "40", "--seed", "7", "--workers", str(workers),
    ]
    with pytest.raises(_Called):
        cli.main(argv + (["--adaptive"] if mode == "adaptive" else []))
    with pytest.raises(_Called):
        broker.handle(QueryRequest(
            dataset="abide", method=method, trials=40, seed=7,
            workers=workers, mode=mode, use_cache=False,
        ))
    (from_cli,), (from_service,) = cli_calls, service_calls
    assert graph_checksum(from_cli["graph"]) == graph_checksum(
        from_service["graph"]
    )
    assert (from_service["pool"] is not None) == (workers > 1)
    search = {
        name: value for name, value in from_cli.items()
        if name not in RESOURCES
    }
    assert search == {
        name: value for name, value in from_service.items()
        if name not in RESOURCES
    }
    assert (search["workers"], search["adaptive"]) == (
        workers, mode == "adaptive"
    )
