"""Batched trial kernels: scalar/batched equivalence and blocking helpers.

The acceptance bar for the kernel layer (``repro.kernels``): a batched
run must be *equivalent* to the scalar path it replaces —

* MC-VP and OS consume the mask matrix row-by-row, so their results
  are **bit-identical** to the one-world-per-trial reference
  (``reference_search``) for *any* block size, apart from the work
  counters in ``stats``;
* the OLS kernel draws the candidate-union edges row-major
  (partition-invariant RNG consumption), so its results are identical
  across *all* block sizes, checkpoint/resume is exact for a fixed
  block size, and it tracks the per-trial walk of
  ``reference_listing_sampling`` and the exact oracle on a graph with
  non-candidate edges;
* blocked Karp-Luby is deterministic for a fixed block size and tracks
  the reference's per-trial union loop; its first-satisfied rule
  matches a per-trial replay of a block's draws.

Alongside the kernels this file pins the satellite regressions the
batching work exposed: the symmetric ``edges_sampled``/``edges_queried``
hit-rate reads, the tolerant ``A1``/``A2`` weight classes, and
``adaptive_prepare_candidates``'s instrumentation parity.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CheckpointError, FaultPlan, Observer, RuntimePolicy
from repro.butterfly import top_weight_butterflies
from repro.butterfly.max_weight import (
    TopTwoAngleIndex,
    WEIGHT_RTOL,
    weights_equal,
)
from repro.core import (
    CandidateSet,
    adaptive_prepare_candidates,
    backbone_butterflies,
    exact_mpmb_by_inclusion_exclusion,
    find_mpmb,
    mc_vp,
    ordering_listing_sampling,
    ordering_sampling,
    prepare_candidates,
    reference_listing_sampling,
    reference_search,
    result_to_dict,
)
from repro.core.estimation import EstimationOutcome
from repro.datasets.synthetic import random_bipartite
from repro.errors import ConfigurationError
from repro.kernels import (
    DEFAULT_BLOCK_SIZE,
    CandidateBlockKernel,
    UnionBlockKernel,
    block_lengths,
    block_starts,
    resolve_block_size,
    trials_in_blocks,
)
from repro.runtime import (
    InjectedCrash,
    read_checkpoint,
    run_parallel_trials,
    split_trials,
)
from repro.sampling import KarpLubyUnionSampler, event_probability
from repro.worlds import WorldSampler

from .conftest import FIGURE_1_EDGES, build_graph, tied_weights


#: Figure 1 behind four edges that lie in no butterfly, so the candidate
#: edges are neither all the edges nor the lowest edge ids: they are
#: edges 4-9, and union-local column ``i`` is edge ``i + 4``.  The
#: non-candidate probabilities differ from the candidates', so reading
#: the wrong column or probability moves the estimates.
MIXED_EDGES = [
    ("u0", "v0", 5.0, 0.95),
    ("u0", "v4", 4.0, 0.05),
    ("u3", "v4", 6.0, 0.9),
    ("u3", "v1", 9.0, 0.1),
] + FIGURE_1_EDGES


@pytest.fixture
def graph():
    return build_graph(FIGURE_1_EDGES, name="figure-1")


@pytest.fixture
def mixed():
    return build_graph(MIXED_EDGES, name="mixed")


def _crash_policy(path, crash_at, every=1):
    return RuntimePolicy(
        checkpoint_path=path,
        checkpoint_every=every,
        faults=FaultPlan(crash_before_trial=crash_at),
    )


def _resume_policy(path, every=1):
    return RuntimePolicy(
        checkpoint_path=path, checkpoint_every=every, resume_from=path
    )


class TestBlockHelpers:
    def test_resolve_defaults_and_clamps(self):
        assert resolve_block_size(10_000) == DEFAULT_BLOCK_SIZE
        assert resolve_block_size(10, None) == 10
        assert resolve_block_size(100, 32) == 32
        assert resolve_block_size(8, 32) == 8

    def test_resolve_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            resolve_block_size(100, 0)
        with pytest.raises(ConfigurationError):
            resolve_block_size(100, -4)

    def test_lengths_cover_exactly(self):
        assert block_lengths(10, 4) == [4, 4, 2]
        assert block_lengths(8, 4) == [4, 4]
        assert block_lengths(3, 8) == [3]
        for n, b in [(1, 1), (97, 8), (256, 256), (1000, 33)]:
            lengths = block_lengths(n, b)
            assert sum(lengths) == n
            assert all(length == b for length in lengths[:-1])
            assert 0 < lengths[-1] <= b

    def test_starts_and_trials(self):
        lengths = block_lengths(10, 4)
        assert block_starts(lengths) == [0, 4, 8]
        assert trials_in_blocks(lengths, 0) == 0
        assert trials_in_blocks(lengths, 2) == 8
        assert trials_in_blocks(lengths, 3) == 10


class TestMaskBlock:
    """``sample_mask_block`` draws the same world sequence as repeated
    ``sample_mask`` — the stream-equivalence the bit-identical estimator
    contract rests on (satellite: antithetic pairing under batching)."""

    def test_plain_block_matches_scalar_stream(self, graph):
        scalar = WorldSampler(graph, 7)
        batched = WorldSampler(graph, 7)
        expected = np.stack([scalar.sample_mask() for _ in range(9)])
        np.testing.assert_array_equal(
            batched.sample_mask_block(9), expected
        )

    def test_antithetic_block_matches_scalar_stream(self, graph):
        scalar = WorldSampler(graph, 3, antithetic=True)
        batched = WorldSampler(graph, 3, antithetic=True)
        expected = np.stack([scalar.sample_mask() for _ in range(10)])
        np.testing.assert_array_equal(
            batched.sample_mask_block(10), expected
        )

    def test_antithetic_pending_carries_across_blocks(self, graph):
        """Odd block lengths leave a half-pair pending; the next block
        must consume it before drawing fresh uniforms."""
        scalar = WorldSampler(graph, 5, antithetic=True)
        batched = WorldSampler(graph, 5, antithetic=True)
        expected = np.stack([scalar.sample_mask() for _ in range(3 + 4 + 1)])
        got = np.concatenate([
            batched.sample_mask_block(3),
            batched.sample_mask_block(4),
            batched.sample_mask_block(1),
        ])
        np.testing.assert_array_equal(got, expected)

    def test_antithetic_pending_survives_checkpoint_restore(self, graph):
        """Snapshot between the halves of an antithetic pair, restore
        into a fresh sampler, and keep drawing blocks: the ``_pending``
        buffer must round-trip through the state payload."""
        reference = WorldSampler(graph, 11, antithetic=True)
        expected = np.stack([reference.sample_mask() for _ in range(8)])

        first = WorldSampler(graph, 11, antithetic=True)
        head = first.sample_mask_block(3)  # odd: second half pending
        payload = first.state_payload()
        fresh = WorldSampler(graph, 0, antithetic=True)
        fresh.restore_state(payload)
        tail = fresh.sample_mask_block(5)
        np.testing.assert_array_equal(
            np.concatenate([head, tail]), expected
        )

    def test_block_and_scalar_interleave(self, graph):
        scalar = WorldSampler(graph, 13, antithetic=True)
        mixed = WorldSampler(graph, 13, antithetic=True)
        expected = np.stack([scalar.sample_mask() for _ in range(6)])
        got = np.concatenate([
            mixed.sample_mask_block(1),
            [mixed.sample_mask()],
            mixed.sample_mask_block(4),
        ])
        np.testing.assert_array_equal(got, expected)

    def test_non_positive_count_rejected(self, graph):
        sampler = WorldSampler(graph, 1)
        with pytest.raises(ValueError):
            sampler.sample_mask_block(0)


class TestScalarBatchedEquivalence:
    """Estimates and winner counts match the one-world-per-trial
    reference (MC-VP and OS) or the scalar path (OLS, OLS-KL)."""

    @pytest.mark.parametrize("block_size", [1, 8, 40, 64])
    def test_mc_vp_bit_identical(self, graph, block_size):
        """Everything except ``stats`` is bit-identical; the kernel
        reports its scan's own work counters because Algorithm 1's
        enumeration counters have no vectorised equivalent."""
        scalar = result_to_dict(reference_search(graph, "mc-vp", 40, rng=7))
        blocked = result_to_dict(
            mc_vp(graph, 40, rng=7, block_size=block_size)
        )
        assert sorted(blocked["stats"]) == [
            "trials_pruned", "wedges_scanned"
        ]
        del scalar["stats"], blocked["stats"]
        assert blocked == scalar

    @pytest.mark.parametrize("block_size", [1, 7, 30])
    def test_os_bit_identical(self, graph, block_size):
        """Everything except ``stats`` is bit-identical; the batched path
        reports the wedge kernel scan's own work counters because the
        scalar scan's per-edge counters have no vectorised equivalent."""
        scalar = result_to_dict(reference_search(graph, "os", 30, rng=3))
        blocked = result_to_dict(
            ordering_sampling(graph, 30, rng=3, block_size=block_size)
        )
        assert sorted(blocked["stats"]) == [
            "trials_pruned", "wedges_scanned"
        ]
        del scalar["stats"], blocked["stats"]
        assert blocked == scalar

    def test_os_antithetic_bit_identical(self, graph):
        scalar = result_to_dict(
            reference_search(graph, "os", 30, rng=9, antithetic=True)
        )
        blocked = result_to_dict(
            ordering_sampling(
                graph, 30, rng=9, antithetic=True, block_size=7
            )
        )
        del scalar["stats"], blocked["stats"]
        assert blocked == scalar

    def test_ols_partition_invariant(self, graph):
        """Row-major candidate-edge draws consume the RNG identically
        regardless of how trials are grouped, so every block size
        yields the same result."""
        results = [
            result_to_dict(
                ordering_listing_sampling(
                    graph, 60, n_prepare=20, estimator="optimized",
                    rng=11, block_size=block_size,
                )
            )
            for block_size in (1, 9, 16, 60)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_ols_blocked_tracks_scalar_estimate(self, graph):
        """The kernel draws every candidate edge per trial while the
        reference walk samples edges lazily, so the runs see different
        worlds — but both are unbiased, so long runs agree closely."""
        scalar = reference_listing_sampling(
            graph, 4_000, n_prepare=30, estimator="optimized", rng=2
        )
        blocked = ordering_listing_sampling(
            graph, 4_000, n_prepare=30, estimator="optimized", rng=2,
            block_size=256,
        )
        assert set(blocked.estimates) == set(scalar.estimates)
        for key, value in scalar.estimates.items():
            assert blocked.estimates[key] == pytest.approx(value, abs=0.05)

    def test_ols_kl_deterministic_for_fixed_block(self):
        small = random_bipartite(8, 8, 30, rng=1)
        first = ordering_listing_sampling(
            small, 300, n_prepare=50, estimator="karp-luby", rng=5,
            block_size=128,
        )
        second = ordering_listing_sampling(
            small, 300, n_prepare=50, estimator="karp-luby", rng=5,
            block_size=128,
        )
        assert first.estimates == second.estimates
        assert first.stats == second.stats

    def test_ols_kl_blocked_tracks_scalar_estimate(self):
        small = random_bipartite(8, 8, 30, rng=1)
        scalar = reference_listing_sampling(
            small, 400, n_prepare=50, estimator="karp-luby", rng=5
        )
        blocked = ordering_listing_sampling(
            small, 400, n_prepare=50, estimator="karp-luby", rng=5,
            block_size=128,
        )
        for key, value in scalar.estimates.items():
            assert blocked.estimates[key] == pytest.approx(value, abs=0.05)

    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    @pytest.mark.parametrize("method", ["mc-vp", "os", "ols", "ols-kl"])
    def test_kernel_metrics_recorded(self, graph, method, mode):
        """docs/performance.md: every batched run sets the
        ``kernel.block_size`` gauge and counts every vectorised trial in
        ``kernel.trials_vectorized`` — OLS-KL's union-kernel trials
        included, fixed and adaptive alike."""
        observer = Observer()
        result = find_mpmb(
            graph, method=method, n_trials=40, n_prepare=20, rng=7,
            block_size=8, observer=observer, adaptive=mode == "adaptive",
        )
        document = observer.export_document(method, "figure-1")
        assert result.n_trials > 0
        assert document["gauges"]["kernel.block_size"] == 8.0
        assert document["counters"]["kernel.trials_vectorized"] \
            == float(result.n_trials)

    def test_invalid_block_size_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            mc_vp(graph, 40, rng=7, block_size=0)
        with pytest.raises(ConfigurationError):
            ordering_listing_sampling(
                graph, 40, n_prepare=20, estimator="karp-luby", rng=11,
                block_size=-1,
            )


class TestBlockedCheckpointResume:
    """Crash mid-run, resume, and compare bit-for-bit with a clean run
    — now at block granularity (checkpoints land on block boundaries)."""

    def test_mc_vp_blocked_resume(self, graph, tmp_path):
        baseline = result_to_dict(mc_vp(graph, 40, rng=7, block_size=8))
        path = tmp_path / "mc.json"
        with pytest.raises(InjectedCrash):
            mc_vp(
                graph, 40, rng=7, block_size=8,
                runtime=_crash_policy(path, 4, every=2),
            )
        document = read_checkpoint(path)
        assert document["unit"] == "block"
        resumed = mc_vp(
            graph, 40, rng=7, block_size=8,
            runtime=_resume_policy(path, every=2),
        )
        assert result_to_dict(resumed) == baseline

    def test_os_antithetic_blocked_resume(self, graph, tmp_path):
        """Odd block size so snapshots land between antithetic pair
        halves — the pending buffer must survive the round trip."""
        baseline = result_to_dict(
            ordering_sampling(
                graph, 30, rng=9, antithetic=True, block_size=7
            )
        )
        path = tmp_path / "os.json"
        with pytest.raises(InjectedCrash):
            ordering_sampling(
                graph, 30, rng=9, antithetic=True, block_size=7,
                runtime=_crash_policy(path, 3),
            )
        resumed = ordering_sampling(
            graph, 30, rng=9, antithetic=True, block_size=7,
            runtime=_resume_policy(path),
        )
        assert result_to_dict(resumed) == baseline

    def test_ols_blocked_resume(self, graph, tmp_path):
        baseline = result_to_dict(
            ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator="optimized", rng=11,
                block_size=16,
            )
        )
        path = tmp_path / "ols.json"
        with pytest.raises(InjectedCrash):
            ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator="optimized", rng=11,
                block_size=16, runtime=_crash_policy(path, 3),
            )
        document = read_checkpoint(path)
        assert document["unit"] == "block"
        assert document["state"]["block_size"] == 16
        resumed = ordering_listing_sampling(
            graph, 60, n_prepare=20, estimator="optimized", rng=11,
            block_size=16, runtime=_resume_policy(path),
        )
        payload = result_to_dict(resumed)
        assert payload["stats"].pop("resumed_candidates") == 1.0
        assert payload == baseline

    def test_block_size_mismatch_rejected(self, graph, tmp_path):
        path = tmp_path / "ols.json"
        with pytest.raises(InjectedCrash):
            ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator="optimized", rng=11,
                block_size=16, runtime=_crash_policy(path, 3),
            )
        # 15 gives the same number of blocks as 16 over 60 trials, so
        # the engine's target check passes and the payload guard fires.
        with pytest.raises(CheckpointError, match="block"):
            ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator="optimized", rng=11,
                block_size=15, runtime=_resume_policy(path),
            )


@settings(max_examples=10, deadline=None)
@given(
    block_size=st.sampled_from((1, 3, 7, 8, 16)),
    crash_at=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_property_crash_resume_bit_identical(block_size, crash_at, seed):
    """Crash-resume equivalence as a property over batched kernels.

    For any block size, any injected crash point, and any seed: an OS
    run killed mid-run by a :class:`FaultPlan` fault and resumed from
    its checkpoint is bit-identical to the uninterrupted run.
    """
    graph = build_graph(FIGURE_1_EDGES, name="figure-1")
    baseline = result_to_dict(
        ordering_sampling(graph, 24, rng=seed, block_size=block_size)
    )
    # The engine counts blocked runs in block units: clamp the crash
    # point into the run so the injected fault always fires.
    n_blocks = len(block_lengths(24, block_size))
    crash_unit = min(crash_at, n_blocks)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "snap.json")
        with pytest.raises(InjectedCrash):
            ordering_sampling(
                graph, 24, rng=seed, block_size=block_size,
                runtime=_crash_policy(path, crash_unit),
            )
        resumed = ordering_sampling(
            graph, 24, rng=seed, block_size=block_size,
            runtime=_resume_policy(path),
        )
    assert result_to_dict(resumed) == baseline


class TestCandidateBlockKernel:
    """The incidence-matrix kernel reproduces the weight-ordered
    "first surviving weight class wins" scan over union-local columns
    — here on figure 1, where every edge is a candidate edge."""

    @pytest.fixture
    def kernel_graph(self, graph):
        return graph

    @pytest.fixture
    def candidates(self, kernel_graph):
        return prepare_candidates(kernel_graph, 200, rng=0)

    @staticmethod
    def _masks(kernel, graph, count):
        """Full-graph worlds and their union-column restriction."""
        full = WorldSampler(graph, 4).sample_mask_block(count)
        return full, full[:, kernel.union_edges]

    def test_presence_matches_per_candidate_all(
        self, kernel_graph, candidates
    ):
        kernel = CandidateBlockKernel(candidates)
        full, masks = self._masks(kernel, kernel_graph, 16)
        presence = kernel.presence(masks)
        items = list(candidates)
        for t in range(full.shape[0]):
            for c, butterfly in enumerate(items):
                expected = all(full[t, e] for e in butterfly.edges)
                assert presence[t, c] == expected

    def test_winners_are_heaviest_surviving_class(
        self, kernel_graph, candidates
    ):
        kernel = CandidateBlockKernel(candidates)
        full, masks = self._masks(kernel, kernel_graph, 32)
        winners = kernel.winners(masks)
        items = list(candidates)
        for t in range(full.shape[0]):
            present = [
                c for c, b in enumerate(items)
                if all(full[t, e] for e in b.edges)
            ]
            if not present:
                assert not winners[t].any()
                continue
            best = max(items[c].weight for c in present)
            expected = {c for c in present if items[c].weight == best}
            assert set(np.flatnonzero(winners[t])) == expected

    def test_union_edges_counted_once(self, kernel_graph, candidates):
        kernel = CandidateBlockKernel(candidates)
        union = sorted({e for b in candidates for e in b.edges})
        assert kernel.n_union_edges == len(union)
        assert kernel.union_edges.tolist() == union
        assert kernel.union_edges[kernel.edge_index].tolist() == [
            list(b.edges) for b in candidates
        ]
        assert np.array_equal(
            kernel.union_probs, kernel_graph.probs[union]
        )

    def test_draw_reads_union_edges_row_major(
        self, kernel_graph, candidates
    ):
        """A block is ``rng.random((count, n_union)) < p[union]``: the
        union edges in ascending id order, trial by trial."""
        kernel = CandidateBlockKernel(candidates)
        drawn = kernel.draw(np.random.default_rng(5), 7)
        expected = (
            np.random.default_rng(5).random((7, kernel.n_union_edges))
            < kernel_graph.probs[kernel.union_edges]
        )
        assert np.array_equal(drawn, expected)


class TestCandidateBlockKernelMixedGraph(TestCandidateBlockKernel):
    """The same checks on the mixed graph, whose candidate edges are
    edges 4-9: there union-local column ``i`` is edge ``i + 4``, so a
    kernel reading global edge ids fails."""

    @pytest.fixture
    def kernel_graph(self, mixed):
        return mixed


class TestUnionDrawAgainstExact:
    """Seeded OLS kernel runs on the mixed graph, where the union draw
    differs from a full-graph draw, over the complete backbone candidate
    set (so Lemma VI.5 adds no bias)."""

    N_TRIALS = 20_000

    @pytest.fixture
    def backbone(self, mixed):
        return CandidateSet(mixed, backbone_butterflies(mixed))

    def _run(self, mixed, backbone, n_trials, block_size):
        return ordering_listing_sampling(
            mixed, n_trials, rng=3, candidates=backbone,
            block_size=block_size,
        )

    def test_partition_invariant(self, mixed, backbone):
        results = [
            result_to_dict(self._run(mixed, backbone, 600, block_size))
            for block_size in (1, 7, 256, 600)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_estimates_within_exact_band(self, mixed, backbone):
        result = self._run(mixed, backbone, self.N_TRIALS, None)
        exact = exact_mpmb_by_inclusion_exclusion(mixed).estimates
        assert set(result.estimates) == set(exact)
        for key, truth in exact.items():
            # Five standard errors of a winner frequency over N trials.
            band = 5.0 * np.sqrt(truth * (1.0 - truth) / self.N_TRIALS)
            assert abs(result.estimates[key] - truth) <= band, (
                key, result.estimates[key], truth, band,
            )
        # Three candidates share six union edges: 12 incidence slots.
        assert result.stats["edges_sampled"] == 6 * self.N_TRIALS
        assert result.stats["edges_queried"] == 12 * self.N_TRIALS


class TestUnionBlockKernel:
    """The Karp-Luby union kernel's first-satisfied rule, replayed trial
    by trial: a trial is accepted iff no event before its pick lies in
    its world, the drawn atoms plus the picked event's.  The replay
    reads the kernel's draws in their order (pick uniforms, then the
    atom matrix over the sorted atoms), which seeded OLS-KL results
    depend on."""

    #: Events of widths 2-4 in priority order over atoms whose sorted
    #: order is not their order of appearance; they share atoms, and
    #: event 2 contains event 0, so a pick of event 2 is never accepted.
    EVENTS = [
        frozenset({11, 4}),
        frozenset({4, 9, 2}),
        frozenset({11, 4, 15, 7}),
        frozenset({9, 2}),
        frozenset({15, 7, 20}),
    ]
    PROBS = {2: 0.4, 4: 0.7, 7: 0.8, 9: 0.3, 11: 0.5, 15: 0.6, 20: 0.5}
    COUNT = 400

    def _sampler(self):
        return KarpLubyUnionSampler(self.EVENTS, self.PROBS.get, rng=9)

    def test_holds_one_fixed_width_table(self):
        kernel = UnionBlockKernel(self._sampler())
        n_atoms = len(self.PROBS)
        assert kernel.table.shape == (len(self.EVENTS), 4)
        assert not any(
            isinstance(value, np.ndarray)
            and value.shape == (len(self.EVENTS), n_atoms)
            for value in vars(kernel).values()
        )

    def test_acceptance_matches_first_satisfied_event(self):
        sampler = self._sampler()
        state = sampler.rng.bit_generator.state
        accepted = UnionBlockKernel(sampler).run_block(self.COUNT)

        replay = np.random.default_rng()
        replay.bit_generator.state = state
        weights = [event_probability(e, self.PROBS.get) for e in self.EVENTS]
        picks = np.minimum(
            np.searchsorted(
                np.cumsum(weights) / sum(weights),
                replay.random(self.COUNT), side="right",
            ),
            len(self.EVENTS) - 1,
        )
        atoms = sorted(self.PROBS)
        drawn = replay.random((self.COUNT, len(atoms))) < [
            self.PROBS[atom] for atom in atoms
        ]
        expected = []
        for pick, row in zip(picks, drawn):
            world = {a for a, bit in zip(atoms, row) if bit}
            world |= self.EVENTS[pick]
            expected.append(
                not any(self.EVENTS[k] <= world for k in range(pick))
            )
        assert accepted.tolist() == expected
        assert set(picks) == set(range(len(self.EVENTS)))
        assert not accepted[picks == 2].any()
        assert 0 < accepted.sum() < self.COUNT
        # The caller counts trials; the kernel leaves the sampler's
        # scalar counters alone.
        assert (sampler.n_trials, sampler.accepted) == (0, 0)


class TestWorkerBlockSharding:
    def test_shares_are_whole_blocks(self):
        shares = split_trials(100, 3, block_size=16)
        assert sum(shares) == 100
        # 6 full blocks + 1 remainder block = 7 units over 3 workers.
        assert shares == [48, 32, 20]
        for share in shares[:-1]:
            assert share % 16 == 0

    def test_exact_multiple_has_no_remainder(self):
        shares = split_trials(64, 4, block_size=16)
        assert shares == [16, 16, 16, 16]

    def test_more_workers_than_blocks(self):
        shares = split_trials(10, 4, block_size=8)
        assert sum(shares) == 10
        assert shares.count(0) == 2

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError):
            split_trials(100, 3, block_size=0)

    def test_pool_runs_batched_method(self, graph):
        result = run_parallel_trials(
            graph, 60, 2, method="os", rng=5, block_size=16
        )
        assert result.n_trials == 60
        assert not result.degraded
        for probability in result.estimates.values():
            assert 0.0 <= probability <= 1.0


class TestHitRateRegression:
    """Satellite: both lazy-cache counters are read defensively — an
    outcome carrying ``edges_queried`` but not ``edges_sampled`` (as
    resumed/degraded Karp-Luby outcomes can) must not KeyError."""

    def test_partial_counters_do_not_raise(self, graph, monkeypatch):
        outcome = EstimationOutcome(
            method="karp-luby",
            estimates={},
            stats={"total_trials": 10.0, "edges_queried": 8.0},
        )
        monkeypatch.setattr(
            "repro.core.ols.estimate_probabilities_karp_luby",
            lambda *args, **kwargs: outcome,
        )
        observer = Observer()
        result = ordering_listing_sampling(
            graph, 10, n_prepare=20, estimator="karp-luby", rng=11,
            observer=observer,
        )
        assert result.method == "ols-kl"
        gauges = observer.export_document()["gauges"]
        # sampled defaults to 0.0 -> hit rate 1.0, not a crash.
        assert gauges["ols-kl.lazy_cache.hit_rate"] == 1.0

    def test_no_counters_skip_the_gauge(self, graph, monkeypatch):
        outcome = EstimationOutcome(
            method="karp-luby", estimates={}, stats={"total_trials": 10.0}
        )
        monkeypatch.setattr(
            "repro.core.ols.estimate_probabilities_karp_luby",
            lambda *args, **kwargs: outcome,
        )
        observer = Observer()
        ordering_listing_sampling(
            graph, 10, n_prepare=20, estimator="karp-luby", rng=11,
            observer=observer,
        )
        gauges = observer.export_document()["gauges"]
        assert "ols-kl.lazy_cache.hit_rate" not in gauges


class TestWeightTolerance:
    """Satellite: mathematically equal angle weights that differ by
    float-addition noise must land in the same ``A1``/``A2`` class."""

    def test_weights_equal_within_rtol(self):
        noisy = (0.1 + 0.2) + 0.3  # 0.6000000000000001
        clean = 0.1 + (0.2 + 0.3)  # 0.6
        assert noisy != clean
        assert weights_equal(noisy, clean)
        assert not weights_equal(1.0, 1.0 + 1e-6)
        assert weights_equal(0.0, 0.0)

    def test_noisy_equal_weights_share_a1(self):
        index = TopTwoAngleIndex()
        noisy = (0.1 + 0.2) + 0.3
        clean = 0.1 + (0.2 + 0.3)
        index.add((0, 1), noisy, (2, 0, 1))
        best = index.add((0, 1), clean, (3, 2, 3))
        # Both angles join A1, so the pair forms a 2*w1 butterfly.
        assert best == pytest.approx(2.0 * noisy)
        entry = dict(index.iter_pairs())[(0, 1)]
        assert len(entry[1]) == 2
        assert entry[3] == []

    def test_noisy_equal_weights_share_a2(self):
        index = TopTwoAngleIndex()
        index.add((0, 1), 1.0, (2, 0, 1))
        index.add((0, 1), (0.1 + 0.2) + 0.3, (3, 2, 3))
        best = index.add((0, 1), 0.1 + (0.2 + 0.3), (4, 4, 5))
        entry = dict(index.iter_pairs())[(0, 1)]
        assert len(entry[1]) == 1
        assert len(entry[3]) == 2
        assert best == pytest.approx(1.6, rel=WEIGHT_RTOL * 10)

    def test_strictly_larger_weight_still_promotes(self):
        index = TopTwoAngleIndex()
        index.add((0, 1), 1.0, (2, 0, 1))
        index.add((0, 1), 2.0, (3, 2, 3))
        entry = dict(index.iter_pairs())[(0, 1)]
        assert entry[0] == 2.0
        assert entry[2] == 1.0


class TestAdaptivePrepareParity:
    """Satellite: adaptive preparing matches ``prepare_candidates``'s
    instrumentation and seeding contract."""

    def test_observer_instrumentation(self, graph):
        observer = Observer()
        candidates, trials = adaptive_prepare_candidates(
            graph, patience=20, max_trials=200, rng=0, observer=observer
        )
        document = observer.export_document()
        assert document["counters"]["prepare.trials"] == float(trials)
        assert document["gauges"]["candidates.listed"] == float(
            len(candidates)
        )
        assert any(
            span["name"] == "candidate-generation"
            for span in document["spans"]
        )

    def test_seed_backbone_top(self, graph):
        seeded = {
            b.key for b in top_weight_butterflies(graph, 2)
        }
        candidates, _trials = adaptive_prepare_candidates(
            graph, patience=1, max_trials=1, rng=0, seed_backbone_top=2
        )
        assert seeded <= {b.key for b in candidates}

    def test_seed_validation(self, graph):
        with pytest.raises(ConfigurationError):
            adaptive_prepare_candidates(graph, seed_backbone_top=-1)


class TestWedgeKernelProperty:
    """Satellite: property-based bit-identity of the vectorised wedge
    kernel against the reference per-world search — random graphs,
    random block sizes, antithetic streams, tied integer weights (whole
    equal-weight winner classes must survive), and resume at random
    block boundaries.  The kernel's stats are its scan's own counters,
    so they are the one documented carve-out."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        block_size=st.integers(1, 12),
        antithetic=st.booleans(),
        tied=st.booleans(),
        crash_block=st.integers(1, 6),
    )
    @example(
        seed=0, block_size=5, antithetic=False, tied=True, crash_block=2
    )  # worlds with tied winner classes
    def test_mc_vp_bit_identical_with_resume(
        self, seed, block_size, antithetic, tied, crash_block
    ):
        graph = random_bipartite(
            6, 7, 18, rng=seed, weight_fn=tied_weights if tied else None
        )
        scalar = result_to_dict(
            reference_search(
                graph, "mc-vp", 24, rng=seed, antithetic=antithetic
            )
        )
        blocked = result_to_dict(
            mc_vp(
                graph, 24, rng=seed, antithetic=antithetic,
                block_size=block_size,
            )
        )
        assert dict(blocked, stats=None) == dict(scalar, stats=None)
        # Crash before a random block boundary, resume, and the stitched
        # run must still equal the uninterrupted run bit for bit.
        n_blocks = -(-24 // block_size)
        crash_at = min(crash_block, n_blocks - 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mc.json"
            with pytest.raises(InjectedCrash):
                mc_vp(
                    graph, 24, rng=seed, antithetic=antithetic,
                    block_size=block_size,
                    runtime=_crash_policy(path, crash_at),
                )
            resumed = result_to_dict(
                mc_vp(
                    graph, 24, rng=seed, antithetic=antithetic,
                    block_size=block_size,
                    runtime=_resume_policy(path),
                )
            )
        assert resumed == blocked

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        block_size=st.integers(1, 12),
        antithetic=st.booleans(),
        tied=st.booleans(),
    )
    @example(
        seed=0, block_size=5, antithetic=False, tied=True
    )  # worlds with tied winner classes
    def test_os_winners_bit_identical(
        self, seed, block_size, antithetic, tied
    ):
        """OS shares the kernel with ``tie_mode="rtol"``; everything but
        the (documented) stats carve-out matches the reference search."""
        graph = random_bipartite(
            7, 6, 18, rng=seed + 1,
            weight_fn=tied_weights if tied else None,
        )
        scalar = result_to_dict(
            reference_search(
                graph, "os", 24, rng=seed, antithetic=antithetic
            )
        )
        blocked = result_to_dict(
            ordering_sampling(
                graph, 24, rng=seed, antithetic=antithetic,
                block_size=block_size,
            )
        )
        del scalar["stats"], blocked["stats"]
        assert blocked == scalar
