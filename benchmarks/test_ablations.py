"""Ablation benchmarks for the design decisions DESIGN.md calls out.

Not paper figures — these quantify each Section V/VI optimisation in
isolation: the edge-ordering prune, the A1/A2 angle index versus
store-everything, and the shared-trial estimator versus per-candidate
Karp-Luby at equal trial counts.
"""

import pytest

from repro.core import (
    prepare_candidates,
    reference_listing_sampling,
    reference_search,
)
from repro.experiments import run_experiment

from .conftest import BENCH_CONFIG, SWEEP_CONFIG


def test_prune_ablation_report(benchmark, capsys):
    outcome = benchmark.pedantic(
        lambda: run_experiment("ablation-prune", SWEEP_CONFIG), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(outcome.text)

    for name, payload in outcome.data.items():
        # The prune only ever removes work...
        assert payload["edges_prune"] <= payload["edges_noprune"], name
        # ...and removes a lot of it on every bench dataset.
        assert payload["edges_prune"] < 0.5 * payload["edges_noprune"], name


@pytest.mark.parametrize("prune", [True, False])
def test_os_prune_onoff(benchmark, bench_datasets, prune):
    graph = bench_datasets["movielens"]
    benchmark.pedantic(
        lambda: reference_search(graph, "os", 30, rng=1, prune=prune),
        rounds=2, iterations=1,
    )


@pytest.mark.parametrize("estimator", ["optimized", "karp-luby"])
def test_estimator_cost_at_equal_trials(
    benchmark, bench_datasets, estimator
):
    """Lemma VI.2 vs VI.3: at the same trial count, per-candidate KL
    costs O(|C|) per candidate-trial while the shared estimator costs
    O(|C|) per trial total (the paper's per-trial Algorithms 4 and 5)."""
    graph = bench_datasets["protein"]
    candidates = prepare_candidates(graph, 80, rng=4)
    trials = 200

    result = benchmark.pedantic(
        lambda: reference_listing_sampling(
            graph, trials, estimator=estimator, rng=5,
            candidates=candidates,
        ),
        rounds=2, iterations=1,
    )
    assert result.estimates


def test_pair_side_choice_matters(bench_datasets):
    """The Lemma V.1 'auto' side selection picks the cheaper partition
    on the lopsided jester network."""
    graph = bench_datasets["jester"]
    cheap = reference_search(graph, "os", 20, rng=2, pair_side="auto")
    # jester: 30 jokes x 1000 users; middles on the joke side are huge,
    # so pairing on the user side (middles = jokes) is the expensive way.
    users_mid = reference_search(graph, "os", 20, rng=2, pair_side="right")
    assert (
        cheap.stats["angles_processed"]
        <= users_mid.stats["angles_processed"]
    )


def test_backbone_seeding_caps_lemma_vi5_error():
    """Ablation: seeding C_MB with the heaviest backbone butterflies
    (a beyond-the-paper extension) removes the worst Lemma VI.5
    overestimation when the preparing budget is tiny."""
    import numpy as np

    from repro.core import exact_mpmb_by_worlds
    from repro.datasets import random_bipartite
    from repro.datasets.synthetic import uniform_probs, uniform_weights
    from repro.core import ordering_listing_sampling, prepare_candidates

    graph = random_bipartite(
        5, 5, 14, rng=3,
        weight_fn=uniform_weights(1.0, 4.0),
        prob_fn=uniform_probs(0.2, 0.8),
        name="seeding-ablation",
    )
    exact = exact_mpmb_by_worlds(graph)
    if not exact.estimates:
        return  # degenerate draw; nothing to measure

    def worst_overestimate(seed_top: int) -> float:
        worst = 0.0
        for seed in range(8):
            candidates = prepare_candidates(
                graph, 2, rng=seed, seed_backbone_top=seed_top
            )
            result = ordering_listing_sampling(
                graph, 6_000, candidates=candidates, rng=seed + 100
            )
            for key, estimate in result.estimates.items():
                worst = max(
                    worst, estimate - exact.estimates.get(key, 0.0)
                )
        return worst

    unseeded = worst_overestimate(0)
    seeded = worst_overestimate(5)
    # Sampling noise aside, guaranteed heavy blockers can only reduce
    # the positive bias.
    assert seeded <= unseeded + 0.02


def test_single_butterfly_query_vs_full_ranking(benchmark, bench_datasets):
    """Extension bench: when only one butterfly's P(B) is needed, the
    conditional query answers with far fewer trials than certifying it
    through a full OS ranking (its Theorem IV.1 budget shrinks by the
    existence-probability factor)."""
    from repro.core import estimate_probability, prepare_candidates
    from repro.sampling import monte_carlo_trial_bound

    graph = bench_datasets["abide"]
    candidates = prepare_candidates(graph, 60, rng=7)
    butterfly = candidates[0]

    estimate = benchmark.pedantic(
        lambda: estimate_probability(graph, butterfly, 500, rng=8),
        rounds=2, iterations=1,
    )
    assert 0.0 <= estimate.probability <= 1.0
    if 0.0 < estimate.probability < 1.0:
        conditional_budget = estimate.trial_bound()
        direct_budget = monte_carlo_trial_bound(
            max(estimate.probability, 1e-6)
        )
        assert conditional_budget < direct_budget
