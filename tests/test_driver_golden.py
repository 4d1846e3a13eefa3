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
on the ``dominant`` graph where the racing rule stops early.  One
blocked-adaptive crash/resume per method also records the checkpoint
document written at the crash and the resumed result.

Regenerate (only when a change is *meant* to alter these outputs)::

    PYTHONPATH=src python -m tests.test_driver_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import FaultPlan, Observer, RuntimePolicy
from repro.core import (
    mc_vp,
    ordering_listing_sampling,
    ordering_sampling,
    result_to_dict,
)
from repro.runtime import InjectedCrash, read_checkpoint

from .conftest import build_graph
from .test_adaptive import DOMINANT_EDGES, FAST_RACE

GOLDEN = Path(__file__).resolve().parent / "data" / "driver_golden.json"

METHODS = ("mc-vp", "os", "ols")
BLOCK_SIZES = (None, 16)
MODES = ("fixed", "adaptive")

#: Engine unit (a block of 16 trials) the crash/resume cases die before.
CRASH_BEFORE_BLOCK = 6


def _run(method, block_size, mode, observer=None, runtime=None):
    graph = build_graph(DOMINANT_EDGES, name="dominant")
    kwargs = {
        "block_size": block_size,
        "adaptive": FAST_RACE if mode == "adaptive" else None,
        "observer": observer,
        "runtime": runtime,
    }
    if method == "mc-vp":
        return mc_vp(graph, 1_024, rng=2, **kwargs)
    if method == "os":
        return ordering_sampling(graph, 2_000, rng=5, **kwargs)
    return ordering_listing_sampling(
        graph, 2_000, n_prepare=40, estimator="optimized", rng=9, **kwargs
    )


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
    cases = {}
    for method in METHODS:
        for block_size in BLOCK_SIZES:
            for mode in MODES:
                cases[_case_id(method, block_size, mode)] = _observed_run(
                    method, block_size, mode
                )
        cases[f"{method}/resume"] = _crash_resume(
            method, tmp_dir / f"{method}.json"
        )
    return _normalise(cases)


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("method", METHODS)
def test_run_matches_golden(golden, method, block_size, mode):
    case = _case_id(method, block_size, mode)
    assert _normalise(_observed_run(method, block_size, mode)) \
        == golden[case]


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
    for method in METHODS:
        for block_size in BLOCK_SIZES:
            case = golden[_case_id(method, block_size, "adaptive")]
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
