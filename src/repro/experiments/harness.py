"""Shared experiment configuration and method runners.

The paper's testbed is C++17/-O3; this reproduction is pure Python, so
every timing experiment runs a *scaled* trial budget and, where the paper
used its defaults (``N = 2x10^4`` direct trials, 100 preparing trials),
also reports the extrapolation ``measured_per_trial x paper_N``.  The
scaling knobs live in one :class:`ExperimentConfig` so the whole suite
can be cranked up on faster machines (or down for CI smoke runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..core import (
    find_mpmb,
    prepare_candidates,
    reference_listing_sampling,
    reference_search,
)
from ..core.results import MPMBResult
from ..datasets import DATASET_NAMES, load_dataset
from ..graph import UncertainBipartiteGraph
from ..observability import Observer
from ..runtime import RuntimePolicy
from .instrument import Measurement, measure

#: Methods in the paper's plotting order.
METHOD_ORDER: Tuple[str, ...] = ("mc-vp", "os", "ols-kl", "ols")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes:
        profile: Dataset profile (``"bench"`` or ``"paper"``).
        seed: Base seed; per-run seeds derive from it deterministically.
        n_direct: Measured OS trials (paper: 20 000).
        n_mcvp: Measured MC-VP trials (extrapolated to ``paper_direct``).
        n_prepare: Preparing-phase trials (paper: 100).
        n_sampling: OLS sampling-phase trials (paper: 20 000).
        paper_direct: The paper's direct/sampling trial setting used for
            extrapolated columns.
        datasets: Dataset names to sweep.
        mu: ε-δ target probability (Section VIII-B uses 0.05), passed
            to every runner.
        epsilon: Relative error target.
        delta: Failure probability target, passed to every runner.
        timeout_seconds: Optional per-run wall-clock budget; expired
            runs return degraded results with re-widened guarantees
            instead of blocking the whole sweep.
        block_size: Route the sampling methods through the batched
            kernel layer with this many trials per vectorised call;
            ``None`` times the paper's fixed-budget algorithms: the
            MC-VP/OS :func:`~repro.core.reference.reference_search` and
            the OLS/OLS-KL
            :func:`~repro.core.reference.reference_listing_sampling`.
        adaptive: Run the sampling methods in anytime adaptive mode —
            racing elimination with empirical-Bernstein intervals and,
            for OLS-KL, the exact pre-screen — reporting realised
            instead of worst-case budgets (``docs/performance.md``).
            Adaptive mode races kernel blocks, so adaptive runs take
            the kernels whatever ``block_size`` says (``None``: each
            kernel's default block size).
    """

    profile: str = "bench"
    seed: int = 0
    n_direct: int = 2_000
    n_mcvp: int = 8
    n_prepare: int = 100
    n_sampling: int = 2_000
    paper_direct: int = 20_000
    datasets: Tuple[str, ...] = DATASET_NAMES
    mu: float = 0.05
    epsilon: float = 0.1
    delta: float = 0.1
    timeout_seconds: Optional[float] = None
    block_size: Optional[int] = None
    adaptive: bool = False

    def runtime_policy(self) -> Optional[RuntimePolicy]:
        """The runtime policy experiment runs execute under, if any."""
        if self.timeout_seconds is None:
            return None
        return RuntimePolicy(timeout_seconds=self.timeout_seconds)

    def load(self, name: str) -> UncertainBipartiteGraph:
        """Load one dataset deterministically for this config."""
        return load_dataset(name, self.profile, rng=self.seed)


@dataclass
class ExperimentOutcome:
    """Uniform experiment output: structured data plus rendered text.

    Attributes:
        name: Experiment id (``"fig7"``, ``"table3"``, ...).
        title: Human-readable description.
        data: Experiment-specific structured payload (rows, matrices,
            traces) — whatever the paired test/benchmark asserts on.
        text: The rendered report.
    """

    name: str
    title: str
    data: Dict[str, object] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


def run_method(
    graph: UncertainBipartiteGraph,
    method: str,
    config: ExperimentConfig,
    rng_offset: int = 0,
    trace_memory: bool = False,
    n_override: Optional[int] = None,
    observer: Optional[Observer] = None,
) -> Measurement:
    """Run one MPMB method with the config's scaled trial budget.

    Args:
        graph: Dataset to analyse.
        method: One of :data:`METHOD_ORDER`.
        config: Shared knobs.
        rng_offset: Added to the config seed so repeated runs differ.
        trace_memory: Record peak allocations (Figure 13) — slows the run.
        n_override: Replace the method's default measured trial count.
        observer: Optional :class:`~repro.observability.Observer`.  The
            method records its spans/metrics into it, and the harness
            adds ``harness.<method>.seconds`` (plus ``.peak_bytes`` when
            memory is traced) gauges for the measured call.

    Returns:
        A :class:`~repro.experiments.instrument.Measurement` whose value
        is the :class:`~repro.core.results.MPMBResult`.
    """
    seed = config.seed + 1_000_003 * (rng_offset + 1)
    runner = _method_runner(graph, method, config, seed, n_override,
                            observer)
    instrumented = observer is not None and observer.enabled
    return measure(
        runner,
        trace_memory=trace_memory,
        metrics=observer.metrics if instrumented else None,
        name=f"harness.{method}" if instrumented else None,
    )


def _method_runner(
    graph: UncertainBipartiteGraph,
    method: str,
    config: ExperimentConfig,
    seed: int,
    n_override: Optional[int],
    observer: Optional[Observer] = None,
) -> Callable[[], MPMBResult]:
    runtime = config.runtime_policy()
    block_size = config.block_size
    target = dict(mu=config.mu, delta=config.delta)
    reference = block_size is None and not config.adaptive
    if method in ("mc-vp", "os"):
        n = n_override or (
            config.n_mcvp if method == "mc-vp" else config.n_direct
        )
        if reference:
            return lambda: reference_search(
                graph, method, n, rng=seed,
                runtime=runtime, observer=observer, **target,
            )
    elif method in ("ols", "ols-kl"):
        if method == "ols":
            n = n_override or config.n_sampling
        else:
            n = n_override if n_override is not None else 0  # 0 = dynamic
        if reference:
            return lambda: reference_listing_sampling(
                graph, n, n_prepare=config.n_prepare,
                estimator="optimized" if method == "ols" else "karp-luby",
                rng=seed, epsilon=config.epsilon, runtime=runtime,
                observer=observer, **target,
            )
    else:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHOD_ORDER}"
        )
    return lambda: find_mpmb(
        graph, method, n, config.n_prepare, seed, observer,
        epsilon=config.epsilon, adaptive=config.adaptive,
        block_size=block_size, runtime=runtime, **target,
    )


def time_preparing_phase(
    graph: UncertainBipartiteGraph,
    config: ExperimentConfig,
    rng_offset: int = 0,
):
    """Time the OLS preparing phase alone; returns ``(candidates, secs)``."""
    seed = config.seed + 7_000_037 * (rng_offset + 1)
    measurement = measure(
        lambda: prepare_candidates(graph, config.n_prepare, rng=seed)
    )
    return measurement.value, measurement.seconds
