"""The OLS preparing phase on the wedge kernel, and the index it runs on.

Both preparing loops (``prepare_candidates`` and the patience-based
``adaptive_prepare_candidates``) run their OS trials as mask blocks
through the wedge kernel.  The oracle is the loop they replaced: one
scalar :func:`~repro.core.os_trial` per trial until ``patience`` dry
trials in a row or ``max_trials`` trials.  Both must agree on the
candidate keys, the trials used and the next RNG draw, so nothing after
the phase can tell them apart.

Also pinned here: the wedge index's scan layout against the scalar
enumeration (:func:`~repro.butterfly.bfc_vp.iter_angle_groups`) and a
plain stable sort, its footprint and read-only arrays, pooled runs
reading the published index, the memory bound of one mask-block draw,
and mask blocks drawn in several chunks against the scalar stream.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import fields

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
from repro.errors import ConfigurationError
from repro.graph import degree_priority
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


def _scan_reference(graph):
    """The scan layout by a plain stable sort of the scalar enumeration.

    Returns ``(groups, chunks)``: per butterfly-capable group, in scan
    order, ``(bound, x, z, wedges)`` with ``wedges`` its
    ``(mid, e1, e2, weight)`` tuples heaviest-first, ties in
    enumeration order; groups are sorted by descending bound, ties in
    enumeration order.
    """
    weights = graph.weights
    groups = []
    for x, z, angles in iter_angle_groups(
        global_adjacency(graph), degree_priority(graph)
    ):
        wedges = sorted(
            (
                (mid, e1, e2, float(weights[e1] + weights[e2]))
                for mid, e1, e2 in angles
            ),
            key=lambda wedge: -wedge[3],
        )
        groups.append((wedges[0][3] + wedges[1][3], x, z, wedges))
    groups.sort(key=lambda group: -group[0])
    chunks, lo, total = [], 0, 0
    for i, (_, _, _, wedges) in enumerate(groups):
        if total and total + len(wedges) > SCAN_CHUNK:
            chunks.append((lo, i))
            lo, total = i, 0
        total += len(wedges)
    if total:
        chunks.append((lo, len(groups)))
    return groups, chunks


def _all_group_sizes(graph):
    """Wedges per ``(x, z)`` group, singletons included:
    :func:`iter_angle_groups`' loop without its two-wedge filter."""
    adjacency = global_adjacency(graph)
    priority = degree_priority(graph)
    sizes = []
    for x, neighbours in enumerate(adjacency):
        groups = {}
        for y, _ in neighbours:
            if priority[x] <= priority[y]:
                continue
            for z, _ in adjacency[y]:
                if z != x and priority[x] > priority[z]:
                    groups[z] = groups.get(z, 0) + 1
        sizes.extend(groups.values())
    return sizes


def _assert_index_matches_scalar(graph):
    index = build_wedge_index(graph)
    assert (index.scan_e1.dtype, index.scan_e2.dtype) == (np.int32,) * 2
    assert (index.scan_x.dtype, index.scan_z.dtype) == (np.int32,) * 2
    assert index.scan_start.dtype == np.int64
    groups, chunks = _scan_reference(graph)
    found = []
    for g in range(index.scan_bound.shape[0]):
        x = int(index.scan_x[g])
        wedges = [
            (
                # The kernel's own mid: the far end of the x-mid edge.
                wedge_block._far_end(graph, x, int(index.scan_e1[w])),
                int(index.scan_e1[w]),
                int(index.scan_e2[w]),
                float(index.scan_w[w]),
            )
            for w in range(
                int(index.scan_start[g]), int(index.scan_start[g + 1])
            )
        ]
        found.append(
            (float(index.scan_bound[g]), x, int(index.scan_z[g]), wedges)
        )
    assert found == groups
    assert index.scan_start[0] == 0
    assert list(index.chunks) == chunks
    sizes = _all_group_sizes(graph)
    assert (index.n_wedges, index.n_groups) == (sum(sizes), len(sizes))


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


class TestWedgeIndexFootprint:
    def test_protein_index_is_compact(self, bench_graphs):
        """16 B per scan wedge (two int32 edges, a float64 weight) and
        24 B per scan group (int64 offset, float64 bound, two int32
        endpoints); the layout before it took 64 B per wedge."""
        index = build_wedge_index(bench_graphs["protein"])
        total = sum(
            getattr(index, item.name).nbytes for item in fields(index)
            if isinstance(getattr(index, item.name), np.ndarray)
        )
        scan_wedges = int(index.scan_start[-1])
        scan_groups = int(index.scan_bound.shape[0])
        assert total <= 16 * scan_wedges + 24 * scan_groups + 64 * 1024

    def test_every_array_is_read_only(self, bench_graphs):
        index = build_wedge_index(bench_graphs["abide"])
        arrays = [
            getattr(index, item.name) for item in fields(index)
            if isinstance(getattr(index, item.name), np.ndarray)
        ]
        assert len(arrays) == 7
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_ids_beyond_int32_are_refused(self, monkeypatch):
        graph = build_graph(FIGURE_1_EDGES, name="figure-1")
        monkeypatch.setattr(wedge_block, "_INT32_MAX", graph.n_edges - 1)
        with pytest.raises(ConfigurationError, match="int32"):
            build_wedge_index(graph)


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
            run_parallel_trials(
                graph, 200, 2, method=method, rng=5, n_prepare=30
            )
            [pool] = _RecordingPool.created
            assert any(
                name.startswith("index.") for name, *_ in pool.handle.specs
            ), method


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
