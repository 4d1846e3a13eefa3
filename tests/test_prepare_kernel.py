"""The OLS preparing phase on the wedge kernel, and the index it runs on.

Both preparing loops (``prepare_candidates`` and the patience-based
``adaptive_prepare_candidates``) run their OS trials as mask blocks
through the wedge kernel.  The oracle is the loop they replaced: one
scalar :func:`~repro.core.os_trial` per trial until ``patience`` dry
trials in a row or ``max_trials`` trials.  Both must agree on the
candidate keys, the trials used and the next RNG draw, so nothing after
the phase can tell them apart.

Also pinned here: the wedge index against the scalar enumeration
(:func:`~repro.butterfly.bfc_vp.iter_angle_groups`) and its scan arrays
against a plain sort, pooled runs reading the published index, the
memory bound of one mask-block draw, and mask blocks drawn in several
chunks against the scalar stream.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observer
from repro.butterfly.bfc_vp import global_adjacency, iter_angle_groups
from repro.core import (
    adaptive_prepare_candidates,
    ordering_listing_sampling,
    os_trial,
    prepare_candidates,
    result_to_dict,
)
from repro.datasets import load_dataset
from repro.datasets.synthetic import random_bipartite
from repro.kernels import build_wedge_index, resolve_block_budget, wedge_block
from repro.kernels.memory import SCAN_CHUNK
from repro.runtime import run_parallel_trials, workers
from repro.runtime.workers import WorkerPool
from repro.sampling import ensure_rng
from repro.worlds import WorldSampler, sampler as sampler_module
from repro.worlds.sampler import DRAW_CHUNK

from . import test_kernels
from .conftest import FIGURE_1_EDGES, build_graph, tied_weights

BENCH_GRAPHS = ("abide", "movielens", "jester", "protein")


def _random_graph(seed, n_left, n_right, density, tied):
    n_edges = max(1, int(density * n_left * n_right))
    return random_bipartite(
        n_left, n_right, n_edges, rng=seed,
        weight_fn=tied_weights if tied else None,
    )


def _scalar_prepare(graph, seed, patience, max_trials):
    """The oracle: ``(C_MB keys, trials used, next RNG draw)``."""
    generator = ensure_rng(seed)
    sampler = WorldSampler(graph, generator)
    keys = set()
    dry = trials = 0
    while trials < max_trials and dry < patience:
        trials += 1
        new = False
        for butterfly in os_trial(graph, sampler):
            if butterfly.key not in keys:
                keys.add(butterfly.key)
                new = True
        dry = 0 if new else dry + 1
    return keys, trials, generator.random()


def _kernel_prepare(graph, seed, max_trials):
    generator = ensure_rng(seed)
    candidates = prepare_candidates(graph, max_trials, rng=generator)
    return {b.key for b in candidates}, max_trials, generator.random()


def _kernel_adaptive(graph, seed, patience, max_trials):
    generator = ensure_rng(seed)
    candidates, trials = adaptive_prepare_candidates(
        graph, patience=patience, max_trials=max_trials, rng=generator
    )
    return {b.key for b in candidates}, trials, generator.random()


@pytest.fixture(scope="module")
def bench_graphs():
    return {name: load_dataset(name, "bench", rng=0) for name in BENCH_GRAPHS}


class TestPreparingOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_left=st.integers(2, 7),
        n_right=st.integers(2, 7),
        density=st.floats(0.3, 1.0),
        tied=st.booleans(),
        patience=st.integers(1, 12),
        max_trials=st.integers(1, 60),
    )
    def test_random_graphs_match_scalar_loop(
        self, seed, n_left, n_right, density, tied, patience, max_trials
    ):
        graph = _random_graph(seed, n_left, n_right, density, tied)
        assert _kernel_prepare(graph, seed, max_trials) == _scalar_prepare(
            graph, seed, max_trials, max_trials
        )
        assert _kernel_adaptive(
            graph, seed, patience, max_trials
        ) == _scalar_prepare(graph, seed, patience, max_trials)

    @pytest.mark.parametrize("name", BENCH_GRAPHS)
    def test_bench_graphs_match_scalar_loop(self, bench_graphs, name):
        graph = bench_graphs[name]
        assert _kernel_prepare(graph, 7, 100) == _scalar_prepare(
            graph, 7, 100, 100
        )
        assert _kernel_adaptive(graph, 7, 8, 300) == _scalar_prepare(
            graph, 7, 8, 300
        )

    def test_protein_spans_several_blocks(self, bench_graphs):
        """The bytes budget caps protein below 100 rows, so its 100
        preparing trials cross a block boundary."""
        graph = bench_graphs["protein"]
        index = build_wedge_index(graph)
        budget = resolve_block_budget(
            100, graph.n_edges, index.n_wedges, index.n_groups
        )
        assert budget.block_size < 100

    def test_prebuilt_index_is_used_and_result_unchanged(self, monkeypatch):
        graph = build_graph(FIGURE_1_EDGES, name="figure-1")
        index = build_wedge_index(graph)
        built = ordering_listing_sampling(graph, 200, n_prepare=30, rng=4)

        def no_build(graph):
            raise AssertionError("the prebuilt index was not used")

        monkeypatch.setattr(wedge_block, "build_wedge_index", no_build)
        observer = Observer()
        given = ordering_listing_sampling(
            graph, 200, n_prepare=30, rng=4, observer=observer,
            wedge_index=index,
        )
        assert result_to_dict(given) == result_to_dict(built)
        assert set(given.butterflies) == _scalar_prepare(graph, 4, 30, 30)[0]
        document = observer.export_document()
        assert document["counters"]["prepare.trials"] == 30.0
        # Only the 200 sampling trials run vectorised; the preparing
        # trials are not counted there.
        assert document["counters"]["kernel.trials_vectorized"] == 200.0
        assert "wedge-index" not in [
            span["name"] for span in document["spans"]
        ]


def _scan_reference(index):
    """Scan order, per-group heavy-first wedges and chunks by plain sorts."""
    sizes = np.diff(index.group_start)
    weight = index.wedge_weight.tolist()
    heavy = {}
    for group in np.flatnonzero(sizes >= 2).tolist():
        wedges = list(index.group_wedges(group))
        heavy[group] = sorted(wedges, key=lambda w: (-weight[w], w))
    bound = {g: weight[ws[0]] + weight[ws[1]] for g, ws in heavy.items()}
    order = sorted(heavy, key=lambda g: (-bound[g], g))
    chunks, lo, total = [], 0, 0
    for i, group in enumerate(order):
        if total and total + len(heavy[group]) > SCAN_CHUNK:
            chunks.append((lo, i))
            lo, total = i, 0
        total += len(heavy[group])
    if total:
        chunks.append((lo, len(order)))
    return order, [bound[g] for g in order], heavy, chunks


def _assert_index_matches_scalar(graph):
    index = build_wedge_index(graph)
    expected = [
        (x, z, angles)
        for x, z, angles in iter_angle_groups(
            global_adjacency(graph), index.priority
        )
    ]
    sizes = np.diff(index.group_start)
    found = [
        (
            int(index.group_x[g]), int(index.group_z[g]),
            [
                (
                    int(index.wedge_mid[w]), int(index.wedge_e1[w]),
                    int(index.wedge_e2[w]),
                )
                for w in index.group_wedges(g)
            ],
        )
        for g in np.flatnonzero(sizes >= 2).tolist()
    ]
    assert found == expected
    np.testing.assert_array_equal(
        index.wedge_weight,
        graph.weights[index.wedge_e1] + graph.weights[index.wedge_e2],
    )
    order, bounds, heavy, chunks = _scan_reference(index)
    assert index.scan_order.tolist() == order
    assert index.scan_bound.tolist() == bounds
    flat = [w for group in order for w in heavy[group]]
    assert index.scan_wedge.tolist() == flat
    assert index.scan_start.tolist() == np.concatenate(
        [[0], np.cumsum([len(heavy[g]) for g in order], dtype=np.int64)]
    ).tolist()
    assert index.scan_e1.tolist() == index.wedge_e1[flat].tolist()
    assert index.scan_e2.tolist() == index.wedge_e2[flat].tolist()
    assert index.scan_w.tolist() == index.wedge_weight[flat].tolist()
    assert list(index.chunks) == chunks


class TestWedgeIndexPin:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_left=st.integers(1, 9),
        n_right=st.integers(1, 9),
        density=st.floats(0.1, 1.0),
        tied=st.booleans(),
    )
    def test_random_graphs(self, seed, n_left, n_right, density, tied):
        _assert_index_matches_scalar(
            _random_graph(seed, n_left, n_right, density, tied)
        )

    @pytest.mark.parametrize("name", BENCH_GRAPHS)
    def test_bench_graphs(self, bench_graphs, name):
        _assert_index_matches_scalar(bench_graphs[name])


class _RecordingPool(WorkerPool):
    created = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _RecordingPool.created.append(self)


class TestPooledOls:
    def test_pooled_run_publishes_the_index(self, monkeypatch):
        graph = build_graph(FIGURE_1_EDGES, name="figure-1")
        monkeypatch.setattr(workers, "WorkerPool", _RecordingPool)
        # Every poolable method reads the index, so every pool has one.
        for method in ("ols", "mc-vp", "os"):
            _RecordingPool.created = []
            published = run_parallel_trials(
                graph, 200, 2, method=method, rng=5, n_prepare=30
            )
            assert [
                p.handle.has_index for p in _RecordingPool.created
            ] == [True], method
            # Workers that build their own index reach the same result.
            bare = WorkerPool(graph)
            try:
                assert not bare.handle.has_index
                local = run_parallel_trials(
                    graph, 200, 2, method=method, rng=5, n_prepare=30,
                    pool=bare,
                )
            finally:
                bare.close()
            assert result_to_dict(published) == result_to_dict(local), method


class TestMaskDrawMemory:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_peak_is_the_mask_matrix_plus_one_chunk(self, antithetic):
        graph = random_bipartite(400, 400, 8_000, rng=1)
        sampler = WorldSampler(graph, 3, antithetic=antithetic)
        sampler.sample_mask()  # antithetic: leaves a pending half-pair
        tracemalloc.start()
        try:
            masks = sampler.sample_mask_block(512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masks.nbytes == 512 * 8_000
        slack = 256 * 1024
        assert peak <= masks.nbytes + DRAW_CHUNK * 8 + slack


#: ``DRAW_CHUNK`` as a function of the row length: below one row (the
#: chunk clamps to one row), and one, two and three rows per chunk.
CHUNK_SIZES = {
    "below-one-row": lambda n_edges: 1,
    "one-row": lambda n_edges: n_edges,
    "two-rows": lambda n_edges: 2 * n_edges,
    "three-rows": lambda n_edges: 3 * n_edges,
}


class TestMaskBlockInChunks(test_kernels.TestMaskBlock):
    """The stream-equivalence cases of ``TestMaskBlock`` with every
    block drawn in several chunks: row offsets, antithetic pairs split
    across chunks and the half-pair left pending by a block's last
    chunk."""

    @pytest.fixture(params=sorted(CHUNK_SIZES))
    def graph(self, request, monkeypatch):
        graph = build_graph(FIGURE_1_EDGES, name="figure-1")
        monkeypatch.setattr(
            sampler_module, "DRAW_CHUNK",
            CHUNK_SIZES[request.param](graph.n_edges),
        )
        return graph

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 5, 7, 8, 13])
    def test_block_leaves_the_scalar_stream_position(
        self, graph, antithetic, count
    ):
        scalar = WorldSampler(graph, 3, antithetic=antithetic)
        batched = WorldSampler(graph, 3, antithetic=antithetic)
        got = batched.sample_mask_block(count)
        expected = np.stack([scalar.sample_mask() for _ in range(count)])
        np.testing.assert_array_equal(got, expected)
        assert (scalar._pending is None) == (batched._pending is None)
        if scalar._pending is not None:
            np.testing.assert_array_equal(scalar._pending, batched._pending)
        assert scalar.rng.random() == batched.rng.random()
