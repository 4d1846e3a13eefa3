"""Figure 13 — memory consumption of the four methods.

The paper observes that OS/OLS/OLS-KL stay close to the network's own
footprint (their indexes are tiny) while MC-VP needs substantially more
to hold every angle and butterfly.
"""

import pytest

from repro.core import ordering_sampling, reference_search
from repro.experiments import peak_memory, run_experiment

from .conftest import BENCH_CONFIG


def test_fig13_report_and_shape(benchmark, capsys):
    outcome = benchmark.pedantic(
        lambda: run_experiment("fig13", BENCH_CONFIG), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(outcome.text)

    for name, peaks in outcome.data.items():
        assert set(peaks) == {"mc-vp", "os", "ols-kl", "ols"}
        assert all(peak > 0 for peak in peaks.values()), name

    # The butterfly-dense rating networks show MC-VP's blow-up clearly.
    for name in ("movielens", "jester"):
        peaks = outcome.data[name]
        assert peaks["mc-vp"] > 2 * peaks["os"], (
            f"{name}: MC-VP should need far more memory than OS"
        )


@pytest.mark.parametrize("name", ["movielens", "jester"])
def test_mcvp_stores_everything(bench_datasets, name):
    """Mechanism check: MC-VP's stored-angle/butterfly counters dwarf
    the OS top-2 index on dense data."""
    graph = bench_datasets[name]
    baseline = reference_search(graph, "mc-vp", 2, rng=1)
    optimised = reference_search(graph, "os", 2, rng=1)
    assert (
        baseline.stats["butterflies_checked"]
        > 50 * optimised.stats["angles_stored"]
    )


def test_memory_measurement_benchmark(benchmark, bench_datasets):
    """Cost of taking one instrumented memory measurement."""
    graph = bench_datasets["abide"]
    _result, peak = benchmark.pedantic(
        lambda: peak_memory(lambda: ordering_sampling(graph, 10, rng=0)),
        rounds=2, iterations=1,
    )
    assert peak > 0
