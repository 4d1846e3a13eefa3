"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro import GraphBuilder, UncertainBipartiteGraph

#: Per-test wall-clock limit in seconds (pytest-timeout is not available
#: in this environment, so a SIGALRM watchdog stands in for it).
TEST_TIMEOUT_SECONDS = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail a hanging test instead of hanging the whole suite.

    SIGALRM only works on POSIX main threads; elsewhere the test runs
    unguarded, which is no worse than before.
    """
    use_alarm = (
        TEST_TIMEOUT_SECONDS > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        yield
        return

    def _timed_out(signum, frame):
        pytest.fail(
            f"test exceeded {TEST_TIMEOUT_SECONDS:g}s watchdog timeout",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

#: The paper's Figure 1(a) network.
FIGURE_1_EDGES = [
    ("u1", "v1", 2.0, 0.5),
    ("u1", "v2", 2.0, 0.6),
    ("u1", "v3", 1.0, 0.8),
    ("u2", "v1", 3.0, 0.3),
    ("u2", "v2", 3.0, 0.4),
    ("u2", "v3", 1.0, 0.7),
]

#: Exact P(B) values on Figure 1, computed by both exact solvers and
#: verifiable by hand (64 possible worlds).  Keys are canonical
#: (u1, u2, v1, v2) index tuples.
FIGURE_1_EXACT = {
    (0, 1, 0, 1): 0.036,      # weight 10
    (0, 1, 0, 2): 0.06384,    # weight 7
    (0, 1, 1, 2): 0.11424,    # weight 7
}


def build_graph(edges, name=""):
    """Graph from (left, right, weight, prob) tuples."""
    builder = GraphBuilder(name=name)
    for left, right, weight, prob in edges:
        builder.add_edge(left, right, weight=weight, prob=prob)
    return builder.build()


def tied_weights(rng: np.random.Generator, n_edges: int) -> np.ndarray:
    """Integer weights in 1..3, so equal-weight winners are common
    (a ``weight_fn`` for :func:`~repro.datasets.synthetic.random_bipartite`).
    """
    return rng.integers(1, 4, size=n_edges).astype(float)


def random_small_graph(
    rng: np.random.Generator,
    max_left: int = 4,
    max_right: int = 4,
    grid_weights: bool = True,
) -> UncertainBipartiteGraph:
    """A random graph small enough for the exact solvers.

    Weights come from a half-integer grid by default so equal-weight ties
    occur and compare exactly in floating point (see the OS weight-order
    discussion in DESIGN.md).
    """
    n_left = int(rng.integers(2, max_left + 1))
    n_right = int(rng.integers(2, max_right + 1))
    edges = []
    for u in range(n_left):
        for v in range(n_right):
            if rng.random() < 0.6:
                if grid_weights:
                    weight = float(rng.integers(1, 9)) / 2.0
                else:
                    weight = float(rng.uniform(0.1, 4.0))
                prob = float(rng.integers(1, 10)) / 10.0
                edges.append((f"L{u}", f"R{v}", weight, prob))
    if len(edges) < 4:
        edges = [
            ("L0", "R0", 1.0, 0.5),
            ("L0", "R1", 1.5, 0.5),
            ("L1", "R0", 2.0, 0.5),
            ("L1", "R1", 2.5, 0.5),
        ]
    return build_graph(edges, name="random-small")


@pytest.fixture
def figure1() -> UncertainBipartiteGraph:
    """The paper's Figure 1(a) network."""
    return build_graph(FIGURE_1_EDGES, name="figure-1")


@pytest.fixture
def square() -> UncertainBipartiteGraph:
    """A single certain butterfly (2x2 complete, p=1)."""
    return build_graph([
        ("a", "x", 1.0, 1.0),
        ("a", "y", 2.0, 1.0),
        ("b", "x", 3.0, 1.0),
        ("b", "y", 4.0, 1.0),
    ], name="square")


@pytest.fixture
def no_butterfly_graph() -> UncertainBipartiteGraph:
    """A path — no butterfly exists in any world."""
    return build_graph([
        ("a", "x", 1.0, 0.9),
        ("b", "x", 2.0, 0.8),
        ("b", "y", 3.0, 0.7),
    ], name="path")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
