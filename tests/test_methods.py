"""Tests for the four sampling methods (MC-VP, OS, OLS, OLS-KL)."""

import pytest

from repro import (
    CandidateSet,
    find_mpmb,
    find_top_k_mpmb,
    make_butterfly,
    mc_vp,
    ordering_listing_sampling,
    ordering_sampling,
    prepare_candidates,
)
from repro.core import (
    backbone_butterflies,
    reference_listing_sampling,
    reference_search,
)
from repro.core.mpmb import METHODS, mpmb_probability
from repro.errors import ConfigurationError

from .conftest import FIGURE_1_EXACT

SAMPLING_METHODS = ("mc-vp", "os", "ols", "ols-kl")


class TestAgreementWithExact:
    """All methods approximate the Figure 1 ground truth."""

    @pytest.mark.parametrize("method", SAMPLING_METHODS)
    def test_figure1_estimates(self, figure1, method):
        result = find_mpmb(figure1, method=method, n_trials=20_000, rng=7)
        assert result.best is not None
        assert result.best.key == (0, 1, 1, 2)
        for key, exact in FIGURE_1_EXACT.items():
            assert result.probability(key) == pytest.approx(
                exact, abs=0.02
            ), f"{method} misestimated {key}"

    @pytest.mark.parametrize("method", SAMPLING_METHODS)
    def test_certain_butterfly(self, square, method):
        result = find_mpmb(square, method=method, n_trials=200, rng=1)
        assert result.best_probability == pytest.approx(1.0)

    @pytest.mark.parametrize("method", SAMPLING_METHODS)
    def test_no_butterfly(self, no_butterfly_graph, method):
        result = find_mpmb(
            no_butterfly_graph, method=method, n_trials=100, rng=1
        )
        assert result.best is None
        assert result.best_probability == 0.0
        assert result.estimates == {}


class TestDeterminism:
    @pytest.mark.parametrize("method", SAMPLING_METHODS)
    def test_same_seed_same_result(self, figure1, method):
        a = find_mpmb(figure1, method=method, n_trials=500, rng=99)
        b = find_mpmb(figure1, method=method, n_trials=500, rng=99)
        assert a.estimates == b.estimates

    def test_mcvp_and_os_share_trial_worlds(self, figure1):
        """Both consume one uniform vector per trial from the same RNG,
        so with equal seeds they see identical possible worlds and
        produce identical estimates."""
        a = mc_vp(figure1, 300, rng=5)
        b = ordering_sampling(figure1, 300, rng=5)
        assert a.estimates == b.estimates


class TestMcVp:
    def test_stats_counters(self, figure1):
        result = reference_search(figure1, "mc-vp", 50, rng=0)
        assert result.method == "mc-vp"
        assert result.stats["angles_processed"] > 0
        assert result.stats["butterflies_checked"] > 0
        assert result.n_trials == 50

    def test_traces(self, figure1):
        key = (0, 1, 1, 2)
        result = mc_vp(figure1, 200, rng=0, track=[key], checkpoints=4)
        trace = result.traces[key]
        assert len(trace.checkpoints) == 4
        assert trace.checkpoints[-1][0] == 200


class TestOrderingSampling:
    def test_stats_counters(self, figure1):
        result = reference_search(figure1, "os", 50, rng=0)
        assert result.method == "os"
        assert result.stats["edges_processed"] > 0
        assert result.stats["angles_processed"] > 0

    def test_prune_toggle_same_estimates(self, figure1):
        pruned = reference_search(figure1, "os", 400, rng=3, prune=True)
        unpruned = reference_search(
            figure1, "os", 400, rng=3, prune=False
        )
        assert pruned.estimates == unpruned.estimates
        assert (
            pruned.stats["edges_processed"]
            <= unpruned.stats["edges_processed"]
        )

    def test_pair_side_same_estimates(self, figure1):
        left = reference_search(figure1, "os", 400, rng=3, pair_side="left")
        right = reference_search(
            figure1, "os", 400, rng=3, pair_side="right"
        )
        assert left.estimates == right.estimates


class TestReferenceSwitches:
    """Each reference method takes only its own ablation switches."""

    @pytest.mark.parametrize(
        "method, switch",
        [
            ("mc-vp", {"prune": False}),
            ("mc-vp", {"pair_side": "left"}),
            ("os", {"priority_kind": "expected-degree"}),
        ],
    )
    def test_other_methods_switch_rejected(self, figure1, method, switch):
        with pytest.raises(ConfigurationError, match="switch"):
            reference_search(figure1, method, 10, rng=0, **switch)

    def test_unknown_method_rejected(self, figure1):
        with pytest.raises(ConfigurationError, match="reference_search"):
            reference_search(figure1, "ols", 10, rng=0)

    @pytest.mark.parametrize("adaptive", [True, {"prescreen": False}])
    def test_listing_reference_refuses_adaptive_ols_kl(
        self, figure1, adaptive
    ):
        """Adaptive mode races kernel blocks: the references run the
        paper's fixed budgets only and take no ``adaptive=``."""
        with pytest.raises(TypeError, match="adaptive"):
            reference_listing_sampling(
                figure1, 0, n_prepare=20, estimator="karp-luby", rng=0,
                adaptive=adaptive,
            )
        with pytest.raises(TypeError, match="adaptive"):
            reference_search(figure1, "os", 10, rng=0, adaptive=adaptive)
        assert reference_listing_sampling(
            figure1, 0, n_prepare=200, estimator="karp-luby", rng=0,
        ).n_trials > 0

    def test_listing_reference_rejects_unknown_estimator(self, figure1):
        with pytest.raises(ConfigurationError, match="estimator"):
            reference_listing_sampling(figure1, 10, estimator="magic")


class TestOls:
    def test_prepare_candidates(self, figure1):
        candidates = prepare_candidates(figure1, 200, rng=0)
        assert isinstance(candidates, CandidateSet)
        # With 200 trials all three butterflies should have appeared.
        assert len(candidates) == 3

    def test_prepare_rejects_bad_budget(self, figure1):
        with pytest.raises(ValueError):
            prepare_candidates(figure1, 0)

    def test_reusing_candidates_skips_preparing(self, figure1):
        candidates = CandidateSet(
            figure1, backbone_butterflies(figure1)
        )
        result = ordering_listing_sampling(
            figure1, 2_000, candidates=candidates, rng=1
        )
        assert result.stats["candidates_listed"] == 3.0
        assert result.best is not None

    def test_estimator_choice(self, figure1):
        optimised = ordering_listing_sampling(
            figure1, 500, estimator="optimized", rng=1
        )
        assert optimised.method == "ols"
        karp = ordering_listing_sampling(
            figure1, 500, estimator="karp-luby", rng=1
        )
        assert karp.method == "ols-kl"

    def test_unknown_estimator(self, figure1):
        with pytest.raises(ValueError, match="estimator"):
            ordering_listing_sampling(figure1, 100, estimator="magic")

    def test_zero_trials_rejected_for_optimized(self, figure1):
        with pytest.raises(ValueError, match="n_trials"):
            ordering_listing_sampling(figure1, 0, estimator="optimized")

    def test_no_candidates_result(self, no_butterfly_graph):
        result = ordering_listing_sampling(
            no_butterfly_graph, 100, n_prepare=20, rng=0
        )
        assert result.best is None
        assert result.stats["candidates_listed"] == 0.0

    def test_kl_dynamic_budget(self, figure1):
        result = ordering_listing_sampling(
            figure1, 0, estimator="karp-luby", rng=2, mu=0.05,
        )
        assert result.method == "ols-kl"
        assert result.n_trials > 0
        assert result.best is not None


class TestFacade:
    def test_methods_constant_covers_dispatch(self, figure1):
        for method in METHODS:
            result = find_mpmb(figure1, method=method, n_trials=300, rng=0)
            assert result.method in (
                method, "ols", "ols-kl"
            )

    def test_unknown_method(self, figure1):
        with pytest.raises(ValueError, match="unknown method"):
            find_mpmb(figure1, method="quantum")

    def test_exact_methods_via_facade(self, figure1):
        result = find_mpmb(figure1, method="exact-worlds")
        assert result.best_probability == pytest.approx(0.11424)

    def test_top_k(self, figure1):
        top = find_top_k_mpmb(
            figure1, 2, method="os", n_trials=5_000, rng=4
        )
        assert len(top) == 2
        assert top[0][1] >= top[1][1]
        assert top[0][0].key == (0, 1, 1, 2)

    def test_top_k_truncates(self, square):
        top = find_top_k_mpmb(square, 10, method="os", n_trials=50, rng=0)
        assert len(top) == 1

    def test_mpmb_probability_helper(self, figure1):
        result = find_mpmb(figure1, method="exact-worlds")
        assert mpmb_probability(result) == result.best_probability
        butterfly = make_butterfly(figure1, 0, 1, 0, 1)
        assert mpmb_probability(result, butterfly) == pytest.approx(0.036)


class TestResultType:
    def test_ranked_deterministic_ties(self, figure1):
        result = find_mpmb(figure1, method="exact-worlds")
        ranked = result.ranked()
        assert [b.key for b, _p in ranked] == [
            (0, 1, 1, 2), (0, 1, 0, 2), (0, 1, 0, 1),
        ]

    def test_top_k_validates(self, figure1):
        result = find_mpmb(figure1, method="exact-worlds")
        with pytest.raises(ValueError):
            result.top_k(0)

    def test_labelled_ranking(self, figure1):
        result = find_mpmb(figure1, method="exact-worlds")
        labels, weight, probability = result.labelled_ranking(1)[0]
        assert labels == ("u1", "u2", "v2", "v3")
        assert weight == 7.0
        assert probability == pytest.approx(0.11424)


class TestMergeResults:
    def test_pooled_equals_single_long_run(self, figure1):
        """Two pooled runs equal one long run over the concatenated
        RNG stream — checked statistically here, structurally below."""
        from repro.core import merge_results
        from repro import ordering_sampling

        a = ordering_sampling(figure1, 3_000, rng=1)
        b = ordering_sampling(figure1, 3_000, rng=2)
        merged = merge_results(a, b)
        assert merged.n_trials == 6_000
        key = (0, 1, 1, 2)
        expected = (a.probability(key) + b.probability(key)) / 2
        assert merged.probability(key) == pytest.approx(expected)
        assert merged.probability(key) == pytest.approx(0.11424, abs=0.02)

    def test_weighted_by_trials(self, figure1):
        from repro.core import merge_results
        from repro import ordering_sampling

        a = ordering_sampling(figure1, 1_000, rng=1)
        b = ordering_sampling(figure1, 3_000, rng=2)
        merged = merge_results(a, b)
        key = (0, 1, 0, 1)
        expected = (
            a.probability(key) * 1_000 + b.probability(key) * 3_000
        ) / 4_000
        assert merged.probability(key) == pytest.approx(expected)

    def test_method_mismatch_rejected(self, figure1):
        from repro.core import merge_results
        from repro import mc_vp, ordering_sampling

        a = mc_vp(figure1, 50, rng=1)
        b = ordering_sampling(figure1, 50, rng=1)
        with pytest.raises(ValueError, match="cannot merge"):
            merge_results(a, b)

    def test_non_frequency_method_rejected(self, figure1):
        from repro.core import merge_results
        from repro import find_mpmb

        a = find_mpmb(figure1, method="exact-worlds")
        with pytest.raises(ValueError, match="frequency"):
            merge_results(a, a)

    def test_different_graph_rejected(self, figure1, square):
        from repro.core import merge_results
        from repro import ordering_sampling

        a = ordering_sampling(figure1, 50, rng=1)
        b = ordering_sampling(square, 50, rng=1)
        with pytest.raises(ValueError, match="different graphs"):
            merge_results(a, b)

    def test_stats_summed(self, figure1):
        from repro.core import merge_results

        a = reference_search(figure1, "os", 100, rng=1)
        b = reference_search(figure1, "os", 100, rng=2)
        merged = merge_results(a, b)
        assert merged.stats["edges_processed"] == (
            a.stats["edges_processed"] + b.stats["edges_processed"]
        )
