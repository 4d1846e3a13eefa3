"""Figure 8 — preparing vs sampling time at N ∈ {0, 25, 50, 75, 100}%."""

import pytest

from repro.core import prepare_candidates, reference_listing_sampling
from repro.experiments import run_experiment

from .conftest import SWEEP_CONFIG


@pytest.mark.parametrize("name", SWEEP_CONFIG.datasets)
def test_preparing_phase(benchmark, bench_datasets, name):
    """The 100-trial preparing phase (the paper's fixed setting)."""
    graph = bench_datasets[name]
    candidates = benchmark.pedantic(
        lambda: prepare_candidates(graph, 100, rng=1),
        rounds=2, iterations=1,
    )
    assert len(candidates) > 0


@pytest.mark.parametrize("name", SWEEP_CONFIG.datasets)
def test_sampling_phase(benchmark, bench_datasets, name):
    """The paper's per-trial shared-trial estimator (Algorithm 5) over a
    prepared candidate set."""
    graph = bench_datasets[name]
    candidates = prepare_candidates(graph, 100, rng=1)
    result = benchmark.pedantic(
        lambda: reference_listing_sampling(
            graph, 500, rng=2, candidates=candidates
        ),
        rounds=2, iterations=1,
    )
    assert result.n_trials == 500


def test_fig8_report_and_shape(benchmark, capsys):
    outcome = benchmark.pedantic(
        lambda: run_experiment("fig8", SWEEP_CONFIG), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(outcome.text)

    for name, methods in outcome.data.items():
        for method, times in methods.items():
            # Cumulative time grows with the trial fraction.  Each
            # fraction is an independently timed run, so allow a 15%
            # scheduling-noise inversion between adjacent points.
            assert all(
                times[i] <= 1.15 * times[i + 1] + 1e-9
                for i in range(len(times) - 1)
            ), (name, method, times)
            # And the full budget strictly exceeds the quarter budget.
            assert times[1] <= times[-1] * 1.15 + 1e-9, (
                name, method, times,
            )
        # OS starts at zero (no preparing phase); OLS variants pay the
        # same preparing cost up front.
        assert methods["os"][0] == 0.0
        assert methods["ols"][0] > 0.0
        assert methods["ols"][0] == methods["ols-kl"][0]


def test_sampling_cheaper_than_direct_trials(bench_datasets):
    """The OLS sampling phase walks candidates only — the paper's
    per-trial cost must be far below an OS full-network trial (the
    Figure 8 story)."""
    import time

    graph = bench_datasets["protein"]
    candidates = prepare_candidates(graph, 100, rng=1)

    start = time.perf_counter()
    reference_listing_sampling(graph, 500, rng=2, candidates=candidates)
    ols_per_trial = (time.perf_counter() - start) / 500

    from repro.core import ordering_sampling

    start = time.perf_counter()
    ordering_sampling(graph, 50, rng=2)
    os_per_trial = (time.perf_counter() - start) / 50

    assert ols_per_trial < os_per_trial / 5
