"""Tests for possible worlds: sampling, probabilities, enumeration."""

import numpy as np
import pytest

from repro import IntractableError, PossibleWorld, WorldSampler
from repro.worlds import iter_all_worlds, iter_subset_worlds
from repro.core.reference import LazyEdgeTrial

from .conftest import build_graph


class TestPossibleWorld:
    def test_probability_figure_1b(self, figure1):
        # Figure 1(b): the world missing only edge (u1, v1) has
        # probability (1-0.5)*0.6*0.8*0.3*0.4*0.7 = 0.02016.
        mask = np.ones(6, dtype=bool)
        mask[0] = False
        world = PossibleWorld(figure1, mask)
        assert world.probability() == pytest.approx(0.02016)
        assert world.n_present == 5

    def test_log_probability_consistent(self, figure1):
        mask = np.array([True, False, True, False, True, False])
        world = PossibleWorld(figure1, mask)
        assert np.exp(world.log_probability()) == pytest.approx(
            world.probability()
        )

    def test_impossible_world_log_probability(self):
        graph = build_graph([("a", "x", 1.0, 1.0)])
        world = PossibleWorld(graph, np.array([False]))
        assert world.probability() == 0.0
        assert world.log_probability() == -np.inf

    def test_wrong_mask_length_rejected(self, figure1):
        with pytest.raises(ValueError, match="mask length"):
            PossibleWorld(figure1, np.ones(3, dtype=bool))

    def test_adjacency_restricted_to_present(self, figure1):
        mask = np.zeros(6, dtype=bool)
        mask[0] = True  # only (u1, v1)
        world = PossibleWorld(figure1, mask)
        adj_left = world.adjacency_left()
        assert len(adj_left[0]) == 1
        assert len(adj_left[1]) == 0
        adj_right = world.adjacency_right()
        assert len(adj_right[0]) == 1

    def test_contains_edges(self, figure1):
        mask = np.array([True, True, False, False, False, False])
        world = PossibleWorld(figure1, mask)
        assert world.contains_edges([0, 1])
        assert not world.contains_edges([0, 2])


class TestWorldSampler:
    def test_marginal_frequencies_match_probabilities(self, figure1):
        sampler = WorldSampler(figure1, rng=0)
        n = 4000
        totals = np.zeros(figure1.n_edges)
        for _ in range(n):
            totals += sampler.sample_mask()
        freq = totals / n
        assert freq == pytest.approx(figure1.probs, abs=0.03)

    def test_sample_worlds_count(self, figure1):
        sampler = WorldSampler(figure1, rng=1)
        worlds = list(sampler.sample_worlds(5))
        assert len(worlds) == 5
        assert all(isinstance(w, PossibleWorld) for w in worlds)

    def test_deterministic_with_seed(self, figure1):
        a = WorldSampler(figure1, rng=7).sample_mask()
        b = WorldSampler(figure1, rng=7).sample_mask()
        assert (a == b).all()

    def test_certain_and_impossible_edges(self):
        graph = build_graph([
            ("a", "x", 1.0, 1.0),
            ("a", "y", 1.0, 0.0),
        ])
        sampler = WorldSampler(graph, rng=3)
        for _ in range(50):
            mask = sampler.sample_mask()
            assert mask[0] and not mask[1]


class TestLazyEdgeTrial:
    def test_memoised_within_trial(self, figure1):
        trial = LazyEdgeTrial(figure1, np.random.default_rng(0))
        first = trial.edge_present(2)
        for _ in range(10):
            assert trial.edge_present(2) == first
        assert trial.n_sampled == 1

    def test_certain_edges(self):
        graph = build_graph([
            ("a", "x", 1.0, 1.0),
            ("a", "y", 1.0, 0.0),
        ])
        trial = LazyEdgeTrial(graph, np.random.default_rng(0))
        assert trial.edge_present(0)
        assert not trial.edge_present(1)

    def test_force_present(self, figure1):
        trial = LazyEdgeTrial(figure1, np.random.default_rng(0))
        trial.force_present([0, 1])
        assert trial.all_present([0, 1])

    def test_force_after_absent_sample_rejected(self):
        graph = build_graph([("a", "x", 1.0, 0.0)])
        trial = LazyEdgeTrial(graph, np.random.default_rng(0))
        assert not trial.edge_present(0)
        with pytest.raises(ValueError, match="already sampled absent"):
            trial.force_present([0])

    def test_all_present_short_circuits(self):
        graph = build_graph([
            ("a", "x", 1.0, 0.0),
            ("a", "y", 1.0, 0.5),
        ])
        trial = LazyEdgeTrial(graph, np.random.default_rng(0))
        assert not trial.all_present([0, 1])
        # Edge 1 must not have been sampled (short circuit on edge 0).
        assert trial.n_sampled == 1

    def test_marginals(self, figure1):
        rng = np.random.default_rng(11)
        hits = 0
        n = 3000
        for _ in range(n):
            if LazyEdgeTrial(figure1, rng).edge_present(3):
                hits += 1
        assert hits / n == pytest.approx(figure1.probs[3], abs=0.03)


class TestEnumeration:
    def test_all_worlds_probabilities_sum_to_one(self, figure1):
        total = sum(w.probability() for w in iter_all_worlds(figure1))
        assert total == pytest.approx(1.0)
        assert sum(1 for _ in iter_all_worlds(figure1)) == 64

    def test_subset_worlds_marginalise(self, figure1):
        relevant = [0, 1, 3, 4]
        total = sum(p for _mask, p in iter_subset_worlds(figure1, relevant))
        assert total == pytest.approx(1.0)
        assert sum(1 for _ in iter_subset_worlds(figure1, relevant)) == 16

    def test_zero_probability_patterns_skipped(self):
        graph = build_graph([("a", "x", 1.0, 1.0), ("a", "y", 1.0, 0.5)])
        patterns = list(iter_subset_worlds(graph, [0, 1]))
        # Patterns where the certain edge is absent have probability 0.
        assert len(patterns) == 2
        assert sum(p for _m, p in patterns) == pytest.approx(1.0)

    def test_budget_guard(self, figure1):
        with pytest.raises(IntractableError, match="budget"):
            list(iter_all_worlds(figure1, max_worlds=8))
        with pytest.raises(IntractableError):
            list(iter_subset_worlds(figure1, list(range(6)), max_worlds=8))
