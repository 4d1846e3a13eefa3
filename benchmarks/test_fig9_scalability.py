"""Figure 9 — scalability over 25/50/75/100% vertex-sampled datasets."""

import numpy as np
import pytest

from repro.core import ordering_sampling, reference_search
from repro.experiments import run_experiment
from repro.graph import sample_vertices

from .conftest import SWEEP_CONFIG


@pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
def test_os_scaling_with_size(benchmark, bench_datasets, fraction):
    """OS cost grows with the vertex sample (Lemma V.1's degree terms)."""
    graph = bench_datasets["protein"]
    sub = sample_vertices(graph, fraction, np.random.default_rng(7))
    benchmark.pedantic(
        lambda: ordering_sampling(sub, 20, rng=1),
        rounds=2, iterations=1,
    )


def test_fig9_report_and_shape(benchmark, capsys):
    outcome = benchmark.pedantic(
        lambda: run_experiment("fig9", SWEEP_CONFIG), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(outcome.text)

    for name, methods in outcome.data.items():
        # Paper shape: OS cost rises with dataset scale (its per-trial
        # cost tracks degrees).  Compare the smallest vs largest sample;
        # scheduling noise makes strict per-step monotonicity too brittle.
        os_times = methods["os"]
        assert os_times[-1] > os_times[0], (name, os_times)


def test_os_work_scales_with_degrees(bench_datasets):
    """The mechanism behind Figure 9: angles processed per trial grow
    superlinearly with the vertex fraction on the protein network."""
    graph = bench_datasets["protein"]
    work = []
    for fraction in (0.25, 0.5, 1.0):
        sub = sample_vertices(graph, fraction, np.random.default_rng(7))
        result = reference_search(sub, "os", 30, rng=1, prune=False)
        work.append(result.stats["angles_processed"] / 30)
    assert work[0] < work[1] < work[2]
    # Halving vertices quarters the (edge-dense) angle work, roughly.
    assert work[2] > 3 * work[1]
