"""Produce ``reference.json``: each bench graph's top butterflies and P(B).

The answer check in :mod:`answers` compares every served response with
this table.  The table is produced once, by plain Monte-Carlo ordering
sampling (batched OS) with a trial budget far above any request the
benchmark sends (the largest world-sampling budget is the 23,966-trial
Theorem IV.1 budget of an epsilon = delta = 0.1 target; OLS-KL's
Karp-Luby trials aim at 10% relative error), so its own standard error
is small next to a request's.  OS estimates P(B) directly from winner
frequencies: it has no candidate-set bias, unlike OLS.

Run from the root of a checkout::

    python3 servebench/make_reference.py

It rewrites ``servebench/reference.json`` and records in it this
command and the constants below.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checkout import import_repro  # noqa: E402
from workloads import DATASETS  # noqa: E402

#: The registry identity the benchmark serves (``repro serve`` defaults).
PROFILE = "bench"
DATASET_SEED = 0

TRIALS = 400_000  # per graph
WORKERS = 2
BLOCK_SIZE = 1024
TOP = 60  # butterflies kept per graph
SEED = 20251017


def main() -> int:
    import_repro()
    from repro.datasets import load_dataset
    from repro.runtime import run_parallel_trials

    graphs = {}
    for index, name in enumerate(DATASETS):
        graph = load_dataset(name, PROFILE, rng=DATASET_SEED)
        started = time.perf_counter()
        result = run_parallel_trials(
            graph, TRIALS, WORKERS, method="os",
            rng=SEED + index, block_size=BLOCK_SIZE,
        )
        seconds = time.perf_counter() - started
        n = result.n_trials
        rows = []
        for labels, weight, probability in result.labelled_ranking(TOP):
            rows.append({
                "labels": list(labels),
                "weight": float(weight),
                "probability": float(probability),
                "stderr": math.sqrt(
                    probability * (1.0 - probability) / n
                ),
            })
        graphs[name] = {
            "n_edges": graph.n_edges,
            "n_trials": n,
            "seconds": round(seconds, 1),
            "butterflies": rows,
        }
        best = rows[0]
        print(
            f"{name}: {n} trials in {seconds:.1f}s, MPMB "
            f"{best['labels']} P={best['probability']:.5f}",
            file=sys.stderr,
        )
    document = {
        "command": "python3 servebench/make_reference.py",
        "method": "os (batched, pooled)",
        "trials": TRIALS,
        "workers": WORKERS,
        "block_size": BLOCK_SIZE,
        "seed": SEED,
        "profile": PROFILE,
        "dataset_seed": DATASET_SEED,
        "graphs": graphs,
    }
    (HERE / "reference.json").write_text(
        json.dumps(document, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
