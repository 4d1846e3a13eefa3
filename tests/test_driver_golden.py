"""Golden pin of the frequency-method trial driver's observable output.

MC-VP, OS and OLS's shared-trial estimator run through one trial
driver (``repro.core.driver``).  The bit-identity tests compare paths
against each other; this file compares every path against a recorded
document, so a driver that (say) stopped one block late, moved a span,
or dropped a metric fails here even when every path agrees with every
other.

Each case records ``result_to_dict``, the Observer's span paths and
its metric names (with the deterministic counter values) for
{mc-vp, os, ols} x {scalar, ``block_size=16``} x {fixed, adaptive},
on the ``dominant`` graph where the racing rule stops early — except
scalar adaptive: the scalar cases run the references, which take no
``adaptive=`` (MC-VP and OS the one-world-per-trial
``reference_search``, OLS the per-trial walk of
``reference_listing_sampling``).  Every edge of ``dominant`` is a
candidate edge, so the OLS kernel's union-edge draw equals a full-graph
draw here; the golden does not cover that draw (``test_kernels.py``
does).  One blocked-adaptive crash/resume per method also records the
checkpoint document written at the crash and the resumed result.

OLS-KL's round loop is pinned the same way in two cases — fixed
Lemma VI.4 budgets and adaptive — on a random small graph where the
race itself eliminates candidates after the exact pre-screen, so a
bound that moves by one ulp and flips an elimination fails here.

Regenerate (only when a change is *meant* to alter these outputs)::

    PYTHONPATH=src python -m tests.test_driver_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import FaultPlan, Observer, RuntimePolicy
from repro.core import (
    mc_vp,
    ordering_listing_sampling,
    ordering_sampling,
    reference_listing_sampling,
    reference_search,
    result_to_dict,
)
from repro.runtime import InjectedCrash, read_checkpoint

from .conftest import build_graph, random_small_graph
from .test_adaptive import DOMINANT_EDGES

GOLDEN = Path(__file__).resolve().parent / "data" / "driver_golden.json"

METHODS = ("mc-vp", "os", "ols")
BLOCK_SIZES = (None, 16)
MODES = ("fixed", "adaptive")

#: Every recorded (method, block size, mode) of the frequency methods.
CASES = [
    (method, block_size, mode)
    for method in METHODS for block_size in BLOCK_SIZES for mode in MODES
    if block_size is not None or mode == "fixed"
]

#: OLS-KL's modes, run in 8-trial rounds.
OLS_KL_MODES = ("fixed", "adaptive")

#: Engine unit (a block of 16 trials) the crash/resume cases die before.
CRASH_BEFORE_BLOCK = 6


def _run(method, block_size, mode, observer=None, runtime=None):
    if method == "ols-kl":
        # The pre-screen drops 3 of the 8 candidates and the race 4 more.
        return ordering_listing_sampling(
            random_small_graph(np.random.default_rng(50)), 0, n_prepare=30,
            estimator="karp-luby", rng=3, block_size=block_size,
            adaptive=mode == "adaptive", observer=observer,
            runtime=runtime,
        )
    graph = build_graph(DOMINANT_EDGES, name="dominant")
    kwargs = {"observer": observer, "runtime": runtime}
    if block_size is not None:  # the references take no adaptive=
        kwargs["adaptive"] = mode == "adaptive"
    if method == "ols":
        if block_size is None:
            return reference_listing_sampling(
                graph, 2_000, n_prepare=40, estimator="optimized", rng=9,
                **kwargs,
            )
        return ordering_listing_sampling(
            graph, 2_000, n_prepare=40, estimator="optimized", rng=9,
            block_size=block_size, **kwargs,
        )
    n_trials, seed = (1_024, 2) if method == "mc-vp" else (2_000, 5)
    if block_size is None:
        return reference_search(graph, method, n_trials, rng=seed, **kwargs)
    search = mc_vp if method == "mc-vp" else ordering_sampling
    return search(graph, n_trials, rng=seed, block_size=block_size, **kwargs)


def _case_id(method, block_size, mode):
    return f"{method}/{'scalar' if block_size is None else block_size}/{mode}"


def _observed_run(method, block_size, mode):
    observer = Observer()
    result = _run(method, block_size, mode, observer=observer)
    metrics = observer.metrics.to_dict()
    return {
        "result": result_to_dict(result),
        "spans": [span.path for span in observer.tracer.spans],
        "counters": metrics["counters"],
        "gauges": sorted(metrics["gauges"]),
        "histograms": sorted(metrics["histograms"]),
    }


def _crash_resume(method, path):
    with pytest.raises(InjectedCrash):
        _run(
            method, 16, "adaptive",
            runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=1,
                faults=FaultPlan(crash_before_trial=CRASH_BEFORE_BLOCK),
            ),
        )
    checkpoint = read_checkpoint(path)
    resumed = _run(
        method, 16, "adaptive",
        runtime=RuntimePolicy(
            checkpoint_path=path, checkpoint_every=1, resume_from=path,
        ),
    )
    return {"checkpoint": checkpoint, "resumed": result_to_dict(resumed)}


def _normalise(document):
    """JSON round trip, so tuples compare equal to recorded lists."""
    return json.loads(json.dumps(document))


def collect(tmp_dir: Path):
    """Every golden case, keyed like the recorded document."""
    cases = {
        _case_id(*case): _observed_run(*case) for case in CASES
    }
    for method in METHODS:
        cases[f"{method}/resume"] = _crash_resume(
            method, tmp_dir / f"{method}.json"
        )
    for mode in OLS_KL_MODES:
        cases[_case_id("ols-kl", 8, mode)] = _observed_run("ols-kl", 8, mode)
    return _normalise(cases)


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("method, block_size, mode", CASES)
def test_run_matches_golden(golden, method, block_size, mode):
    case = _case_id(method, block_size, mode)
    assert _normalise(_observed_run(method, block_size, mode)) \
        == golden[case]


@pytest.mark.parametrize("mode", OLS_KL_MODES)
def test_ols_kl_matches_golden(golden, mode):
    case = _case_id("ols-kl", 8, mode)
    assert _normalise(_observed_run("ols-kl", 8, mode)) == golden[case]


@pytest.mark.parametrize("method", METHODS)
def test_blocked_adaptive_resume_matches_golden(golden, method, tmp_path):
    recorded = golden[f"{method}/resume"]
    observed = _normalise(_crash_resume(method, tmp_path / "run.json"))
    assert observed == recorded
    # The resumed run is the uninterrupted run, bit for bit; OLS's
    # resume marker is the only permitted divergence.
    resumed = dict(recorded["resumed"])
    resumed["stats"] = {
        key: value for key, value in resumed["stats"].items()
        if key != "resumed_candidates"
    }
    assert resumed == golden[_case_id(method, 16, "adaptive")]["result"]


def test_adaptive_cases_stop_early(golden):
    """The golden only pins the racing stop if racing actually fired."""
    for method, block_size, mode in CASES:
        if mode == "adaptive":
            case = golden[_case_id(method, block_size, mode)]
            assert case["counters"]["adaptive.trials_saved"] > 0, method


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        document = collect(Path(workdir))
    GOLDEN.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(document)} cases to {GOLDEN}")
