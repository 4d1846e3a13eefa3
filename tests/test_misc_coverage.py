"""Edge-case tests rounding out module coverage: report rendering
variants, use-case experiments, statistical cross-checks."""

import numpy as np
import pytest

from repro.counting import exact_count_distribution, sample_butterfly_counts
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.report import format_bars, format_series


class TestReportVariants:
    def test_linear_scale_bars(self):
        text = format_bars(
            [1.0, 2.0, 4.0], reference=3.0, log_scale=False, width=20
        )
        assert "|" in text
        # The largest bar is full width.
        lines = [line for line in text.splitlines() if line.startswith(" ")]
        assert lines[-2].count("#") >= lines[0].count("#")

    def test_bars_without_reference(self):
        text = format_bars([0.5, 1.5])
        assert "reference" not in text

    def test_series_with_short_values(self):
        text = format_series("x", [1, 2, 3], [("s", [10])])
        # Missing trailing points render as blanks, not errors.
        assert "10" in text


class TestUseCaseExperiments:
    CONFIG = ExperimentConfig(
        profile="bench", seed=0, n_prepare=40, n_sampling=500,
        datasets=("abide",),
    )

    def test_fig2(self):
        outcome = run_experiment("fig2", self.CONFIG)
        flat = outcome.data["flat (Fig. 2a)"]
        rewarded = outcome.data["rewarded (Fig. 2b)"]
        assert flat["butterfly"] is not None
        assert rewarded["weight"] > flat["weight"]
        assert "Figure 2" in outcome.text

    def test_fig3(self):
        outcome = run_experiment("fig3", self.CONFIG)
        assert outcome.data["intensity_ratio"] > 1.0
        assert len(outcome.data["tc"].findings) > 0
        assert "Figure 3" in outcome.text


class TestStatisticalCrossChecks:
    def test_sampled_count_distribution_matches_exact(self, figure1):
        """The empirical count distribution tracks the exact PMF — a
        cross-module consistency check between worlds, butterflies and
        counting."""
        exact = exact_count_distribution(figure1)
        samples = sample_butterfly_counts(figure1, 20_000, rng=9)
        values, counts = np.unique(samples, return_counts=True)
        empirical = dict(zip(values.tolist(), (counts / 20_000).tolist()))
        for count, probability in exact.items():
            assert empirical.get(count, 0.0) == pytest.approx(
                probability, abs=0.015
            ), count

    def test_methods_unbiased_across_seeds(self, figure1):
        """Averaging OS estimates over many independent seeds converges
        to the exact value (unbiasedness of the Monte-Carlo estimate)."""
        from repro import exact_probability, make_butterfly, ordering_sampling

        target = make_butterfly(figure1, 0, 1, 1, 2)
        exact = exact_probability(figure1, target)
        estimates = [
            ordering_sampling(figure1, 400, rng=seed).probability(target.key)
            for seed in range(30)
        ]
        assert np.mean(estimates) == pytest.approx(exact, abs=0.01)

    def test_kl_and_optimized_same_target(self, figure1):
        """Both OLS estimators target the same conditional quantity, so
        over the same complete candidate set their long-run estimates
        coincide (Lemma VI.4's premise)."""
        from repro import CandidateSet
        from repro.core import (
            backbone_butterflies,
            estimate_probabilities_karp_luby,
            estimate_probabilities_optimized,
        )

        candidates = CandidateSet(figure1, backbone_butterflies(figure1))
        optimised = estimate_probabilities_optimized(
            candidates, 40_000, rng=1
        )
        karp = estimate_probabilities_karp_luby(
            candidates, rng=2, n_trials=40_000
        )
        for key in optimised.estimates:
            assert optimised.estimates[key] == pytest.approx(
                karp.estimates[key], abs=0.01
            )


class TestSparkline:
    def test_shape(self):
        from repro.experiments import format_sparkline

        line = format_sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] < line[-1]  # block characters ascend in codepoint

    def test_flat_series(self):
        from repro.experiments import format_sparkline

        assert format_sparkline([2.0, 2.0]) == "▄▄"

    def test_empty(self):
        from repro.experiments import format_sparkline

        assert format_sparkline([]) == ""

    def test_explicit_scale(self):
        from repro.experiments import format_sparkline

        clipped = format_sparkline([5.0], low=0.0, high=1.0)
        assert clipped == "█"


class TestLemmaVi5Experiment:
    def test_bound_holds(self):
        from repro.experiments import ExperimentConfig, run_experiment

        outcome = run_experiment(
            "lemma-vi5", ExperimentConfig(n_sampling=8_000)
        )
        assert outcome.data
        for seed, payload in outcome.data.items():
            assert payload["worst_error"] <= (
                payload["worst_bound"] + 0.02
            ), seed


class TestMcVpPriorityKinds:
    def test_both_orders_estimate_correctly(self, figure1):
        from repro.core import reference_search

        default = reference_search(
            figure1, "mc-vp", 3_000, rng=4, priority_kind="degree"
        )
        expected = reference_search(
            figure1, "mc-vp", 3_000, rng=4, priority_kind="expected-degree"
        )
        # Identical worlds (same RNG consumption), identical S_MB —
        # priority only changes the enumeration order, never the result.
        assert default.estimates == expected.estimates

    def test_unknown_kind(self, figure1):
        from repro.core import reference_search

        with pytest.raises(ValueError, match="priority_kind"):
            reference_search(
                figure1, "mc-vp", 10, priority_kind="alphabetical"
            )


class TestMarkdownContextCoverage:
    def test_every_registered_experiment_has_context(self):
        """The Markdown report's per-experiment blurbs stay in sync with
        the registry (a forgotten entry renders without context)."""
        from repro.experiments import EXPERIMENTS
        from repro.experiments.markdown import _CONTEXT

        missing = set(EXPERIMENTS) - set(_CONTEXT)
        # lemma-vi5 was added after the context table; it may carry no
        # blurb, but nothing else should be missing.
        assert missing <= {"lemma-vi5"}


class TestDocstringExamples:
    def test_graph_builder_doctest(self):
        import doctest

        import repro.graph.builder as module

        results = doctest.testmod(module)
        assert results.attempted > 0
        assert results.failed == 0
