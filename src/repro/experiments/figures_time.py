"""Timing and memory experiments: Figures 7, 8, 9 and 13.

Every timing experiment reports two numbers per cell:

* ``measured`` — wall-clock seconds of the scaled run this machine
  actually executed;
* ``extrapolated`` — the measured per-trial cost multiplied up to the
  paper's trial setting (20 000 direct/sampling trials), which is the
  number comparable to the paper's Figure 7/8/9 bars.

The paper's claims are *relative* (OS ≈ 1000x over MC-VP, OLS up to 180x
over OS, OLS ≈ 3-8x over OLS-KL); EXPERIMENTS.md records how the shapes
observed here compare.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import reference_listing_sampling, reference_search
from ..graph import sample_vertices
from ..sampling import ensure_rng
from .harness import (
    METHOD_ORDER,
    ExperimentConfig,
    ExperimentOutcome,
    run_method,
    time_preparing_phase,
)
from .instrument import measure
from .report import format_seconds, format_table


def fig7_overall_time(config: ExperimentConfig) -> ExperimentOutcome:
    """Figure 7: overall execution time of the four methods per dataset."""
    headers = [
        "dataset",
        "mc-vp", "os", "ols-kl", "ols",
        "os/mc-vp speedup", "ols/os speedup", "ols-kl/ols",
    ]
    rows: List[list] = []
    data: Dict[str, Dict[str, float]] = {}
    for name in config.datasets:
        graph = config.load(name)
        extrapolated: Dict[str, float] = {}

        for method in METHOD_ORDER:
            measurement = run_method(graph, method, config)
            if method == "mc-vp":
                per_trial = measurement.seconds / config.n_mcvp
                extrapolated[method] = per_trial * config.paper_direct
            elif method == "os":
                per_trial = measurement.seconds / config.n_direct
                extrapolated[method] = per_trial * config.paper_direct
            elif method == "ols":
                # Preparing runs at the paper's own budget; only the
                # sampling phase extrapolates.
                _candidates, prep_seconds = time_preparing_phase(
                    graph, config
                )
                sampling_seconds = measurement.seconds - prep_seconds
                per_trial = max(sampling_seconds, 0.0) / config.n_sampling
                extrapolated[method] = (
                    prep_seconds + per_trial * config.paper_direct
                )
            else:  # ols-kl uses its dynamic Lemma VI.4 budget as-is.
                extrapolated[method] = measurement.seconds

        data[name] = extrapolated
        rows.append([
            name,
            format_seconds(extrapolated["mc-vp"]),
            format_seconds(extrapolated["os"]),
            format_seconds(extrapolated["ols-kl"]),
            format_seconds(extrapolated["ols"]),
            f"{extrapolated['mc-vp'] / extrapolated['os']:.0f}x",
            f"{extrapolated['os'] / extrapolated['ols']:.0f}x",
            f"{extrapolated['ols-kl'] / extrapolated['ols']:.1f}x",
        ])
    text = format_table(
        headers, rows,
        title=(
            "Figure 7 — overall executing time, extrapolated to the "
            f"paper's N={config.paper_direct} trial setting "
            f"(profile={config.profile})"
        ),
    )
    return ExperimentOutcome(
        name="fig7", title="Overall executing time", data=data, text=text
    )


def fig8_phase_time(config: ExperimentConfig) -> ExperimentOutcome:
    """Figure 8: preparing + sampling time at N ∈ {0, 25, 50, 75, 100}%.

    ``N=0%`` is the preparing phase alone (OLS variants only); the other
    columns are cumulative time after running that fraction of the
    sampling-phase trials.  OS has no preparing phase, so its 0% column
    is zero and its fractions scale the direct trials.
    """
    fractions = (0.25, 0.5, 0.75, 1.0)
    headers = ["dataset", "method", "N=0%", "N=25%", "N=50%", "N=75%", "N=100%"]
    rows: List[list] = []
    data: Dict[str, Dict[str, List[float]]] = {}
    for name in config.datasets:
        graph = config.load(name)
        per_dataset: Dict[str, List[float]] = {}

        # OS: no preparing phase; time fractions of the direct budget.
        os_times = [0.0]
        for fraction in fractions:
            n = max(1, int(config.n_direct * fraction))
            measurement = run_method(graph, "os", config, n_override=n)
            os_times.append(measurement.seconds)
        per_dataset["os"] = os_times

        # OLS variants: one shared preparing phase, then the estimator at
        # each fraction over the same candidate set.
        candidates, prep_seconds = time_preparing_phase(graph, config)
        for method, runner in (
            ("ols-kl", _kl_runner(candidates, config)),
            ("ols", _optimized_runner(candidates, config)),
        ):
            times = [prep_seconds]
            for fraction in fractions:
                if len(candidates) == 0:
                    times.append(prep_seconds)
                    continue
                measurement = measure(lambda f=fraction: runner(f))
                times.append(prep_seconds + measurement.seconds)
            per_dataset[method] = times

        data[name] = per_dataset
        for method in ("os", "ols-kl", "ols"):
            rows.append(
                [name, method]
                + [format_seconds(t) for t in per_dataset[method]]
            )
    text = format_table(
        headers, rows,
        title=(
            "Figure 8 — executing time vs sampling-phase trial fraction "
            f"(measured at the scaled budget, profile={config.profile})"
        ),
    )
    return ExperimentOutcome(
        name="fig8", title="Phase-resolved executing time", data=data,
        text=text,
    )


def _optimized_runner(candidates, config: ExperimentConfig):
    # The paper's per-trial Algorithm 5 over the one shared C_MB.
    def run(fraction: float):
        n = max(1, int(config.n_sampling * fraction))
        return reference_listing_sampling(
            candidates.graph, n, rng=config.seed + 31,
            candidates=candidates,
        )

    return run


def _kl_runner(candidates, config: ExperimentConfig):
    # The paper's per-trial Algorithm 4, fixed per-candidate trials
    # scaled by the fraction, so the sweep is monotone like the paper's
    # x-axis.
    base = max(32, config.n_sampling // max(1, len(candidates)))

    def run(fraction: float):
        n = max(1, int(base * fraction))
        return reference_listing_sampling(
            candidates.graph, n, estimator="karp-luby",
            rng=config.seed + 32, candidates=candidates,
        )

    return run


def fig9_scalability(config: ExperimentConfig) -> ExperimentOutcome:
    """Figure 9: executing time on 25/50/75/100% vertex samples."""
    fractions = (0.25, 0.5, 0.75, 1.0)
    headers = ["dataset", "method", "25%", "50%", "75%", "100%"]
    rows: List[list] = []
    data: Dict[str, Dict[str, List[float]]] = {}
    for name in config.datasets:
        graph = config.load(name)
        per_dataset: Dict[str, List[float]] = {m: [] for m in ("os", "ols-kl", "ols")}
        for fraction in fractions:
            rng = ensure_rng(config.seed + int(fraction * 100))
            sub = sample_vertices(graph, fraction, rng)
            for method in ("os", "ols-kl", "ols"):
                measurement = run_method(sub, method, config)
                per_dataset[method].append(measurement.seconds)
        data[name] = per_dataset
        for method in ("os", "ols-kl", "ols"):
            rows.append(
                [name, method]
                + [format_seconds(t) for t in per_dataset[method]]
            )
    text = format_table(
        headers, rows,
        title=(
            "Figure 9 — scalability over vertex-sampled datasets "
            f"(measured at the scaled budget, profile={config.profile})"
        ),
    )
    return ExperimentOutcome(
        name="fig9", title="Scalability", data=data, text=text
    )


def fig13_memory(config: ExperimentConfig) -> ExperimentOutcome:
    """Figure 13: peak memory consumption of the four methods.

    Peak tracemalloc allocations during a short run of each method (the
    network itself is allocated beforehand and excluded, matching the
    paper's observation that the index size is tiny next to the network).
    MC-VP's store-everything behaviour should dominate.
    """
    headers = ["dataset", "mc-vp", "os", "ols-kl", "ols"]
    rows: List[list] = []
    data: Dict[str, Dict[str, int]] = {}
    short = ExperimentConfig(
        profile=config.profile,
        seed=config.seed,
        n_direct=max(10, config.n_direct // 20),
        n_mcvp=2,
        n_prepare=max(10, config.n_prepare // 2),
        n_sampling=max(10, config.n_sampling // 20),
        datasets=config.datasets,
    )
    for name in config.datasets:
        graph = config.load(name)
        graph.adjacency_left  # materialise shared caches outside the window
        graph.adjacency_right
        graph.edges_by_weight_desc
        peaks: Dict[str, int] = {}
        for method in METHOD_ORDER:
            measurement = run_method(
                graph, method, short, trace_memory=True
            )
            peaks[method] = measurement.peak_bytes
        data[name] = peaks
        rows.append([name] + [_fmt_bytes(peaks[m]) for m in METHOD_ORDER])
    text = format_table(
        headers, rows,
        title=(
            "Figure 13 — peak extra memory per method (tracemalloc, "
            "network allocated outside the measurement window)"
        ),
    )
    return ExperimentOutcome(
        name="fig13", title="Memory consumption", data=data, text=text
    )


def _fmt_bytes(n: int) -> str:
    from .report import format_bytes

    return format_bytes(n)


def ablation_pruning(config: ExperimentConfig) -> ExperimentOutcome:
    """Ablation: OS with and without the Section V-B edge-ordering prune.

    Not a paper figure — DESIGN.md calls the prune out as a key design
    decision, and this experiment quantifies it: identical estimates
    (same RNG consumption), different work.
    """
    headers = [
        "dataset", "os (prune)", "os (no prune)", "speedup",
        "edges/trial (prune)", "edges/trial (no prune)",
    ]
    rows: List[list] = []
    data: Dict[str, Dict[str, float]] = {}
    n = max(50, config.n_direct // 4)
    for name in config.datasets:
        graph = config.load(name)
        with_prune = measure(
            lambda: reference_search(
                graph, "os", n, rng=config.seed + 5, prune=True
            )
        )
        without = measure(
            lambda: reference_search(
                graph, "os", n, rng=config.seed + 5, prune=False
            )
        )
        edges_with = with_prune.value.stats["edges_processed"] / n
        edges_without = without.value.stats["edges_processed"] / n
        data[name] = {
            "seconds_prune": with_prune.seconds,
            "seconds_noprune": without.seconds,
            "edges_prune": edges_with,
            "edges_noprune": edges_without,
        }
        rows.append([
            name,
            format_seconds(with_prune.seconds),
            format_seconds(without.seconds),
            f"{without.seconds / with_prune.seconds:.1f}x",
            f"{edges_with:.0f}",
            f"{edges_without:.0f}",
        ])
    text = format_table(
        headers, rows,
        title=f"Ablation — Section V-B edge-ordering prune ({n} trials)",
    )
    return ExperimentOutcome(
        name="ablation-prune", title="Edge-ordering prune ablation",
        data=data, text=text,
    )
