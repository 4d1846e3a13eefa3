"""The two request mixes and how a workload seed expands into requests.

Every request is a JSON-ready payload, exactly what a client would POST
to ``/query``.  A workload's requests are a pure function of the
workload seed and the request count: the seed shuffles each round of
the mix and picks each request's RNG seed, and nothing depends on
timing.  Requests are generated lazily, one at a time, so the caller's
memory stays out of the served process's peak RSS.

A run is a whole number of *rounds*; each round holds every request
class of the mix exactly as often as the mix says, in a seeded order.
The class shares are chosen so that the median and the 90th percentile
of the latencies fall inside a request class, not on the boundary
between a cheap class and an expensive one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: The four bench graphs every workload serves.
DATASETS = ("abide", "movielens", "jester", "protein")

#: The epsilon-delta target of every epsilon-delta request (default mu).
EPSILON_DELTA = {"epsilon": 0.1, "delta": 0.1}

#: Request seeds of one run are ``seed * SEED_STRIDE + i``: unique within
#: a run and across workload seeds, so every computed answer is new.
SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class RequestClass:
    """One kind of request: a label, its graph and its payload fields."""

    label: str
    dataset: str
    fields: Dict[str, object]
    share: int = 1  # occurrences per round


def _classes(dataset: str, shapes: Dict[str, Dict[str, object]]):
    return [
        RequestClass(f"{name}@{dataset}", dataset, dict(shape))
        for name, shape in shapes.items()
    ]


@dataclass(frozen=True)
class Workload:
    """A request mix plus the knobs that size one run of it.

    Attributes:
        name: Workload name as the benchmark command takes it.
        mix: The request classes of one round.
        round_seconds: Wall seconds per round of a whole run, set-up
            included, measured on the reference machine (2-core 2.1 GHz
            Linux VM) in its slower phases; with ``--seconds`` it fixes
            how many rounds a run sends.  The count never depends on
            the host's speed at the time, so every run of a seed does
            the same work.
        pooled: Whether set-up starts the worker pools of the pooled
            share.
        setup_repeats: Set-ups per untraced run; ``setup_s`` is their
            median.
        min_rounds: Rounds a full run sends at least.
    """

    name: str
    mix: Tuple[RequestClass, ...]
    round_seconds: float
    pooled: bool = False
    setup_repeats: int = 3
    min_rounds: int = 1

    @property
    def round_size(self) -> int:
        return sum(cls.share for cls in self.mix)

    def rounds_for(self, seconds: float) -> int:
        """Rounds a run of about ``seconds`` seconds sends."""
        return max(self.min_rounds, round(seconds / self.round_seconds))

    def round_classes(self) -> List[RequestClass]:
        return [cls for cls in self.mix for _ in range(cls.share)]

    def requests(self, seed: int, rounds: int) -> Iterator[Tuple[str, Dict]]:
        """``(class label, payload)`` for every timed request, lazily."""
        order = random.Random(seed)
        serial = seed * SEED_STRIDE
        base = self.round_classes()
        for _ in range(rounds):
            batch = list(base)
            order.shuffle(batch)
            for cls in batch:
                serial += 1
                payload = {"dataset": cls.dataset, **cls.fields}
                payload["seed"] = serial
                payload["top_k"] = 1 + serial % 5
                yield cls.label, payload

    def setup_requests(self) -> List[Dict]:
        """Requests set-up sends before the timed phase (not timed)."""
        payloads = []
        if self.pooled:
            # One small batched pooled OS request per graph publishes the
            # graph and its wedge index to shared memory and starts both
            # workers, so every later pooled request (OLS or OS, batched
            # or not) reuses that pool.
            for dataset in DATASETS:
                payloads.append({
                    "dataset": dataset, "method": "os", "trials": 64,
                    "block_size": 64, "workers": 2, "seed": 0,
                    "use_cache": False,
                })
        return payloads


def _fixed_mix() -> Tuple[RequestClass, ...]:
    shapes = {
        "ols-scalar": {"method": "ols", "trials": 1000},
        "ols-batched": {"method": "ols", "trials": 1000, "block_size": 512},
        "ols-pooled": {"method": "ols", "trials": 1000, "workers": 2},
        "ols-kl": {"method": "ols-kl", "trials": 0, "block_size": 512},
        "os-batched": {"method": "os", "trials": 1000, "block_size": 512},
        "os-scalar": {"method": "os", "trials": 100},
        "os-pooled": {
            "method": "os", "trials": 1000, "block_size": 512,
            "workers": 2,
        },
        "mc-vp": {"method": "mc-vp", "trials": 100, "block_size": 256},
    }
    classes = []
    for dataset in DATASETS:
        classes.extend(_classes(dataset, shapes))
    # Movielens holds many tied weight-20 butterflies, so the Lemma VI.4
    # budget of static OLS-KL follows |C_MB|: with the default 100
    # preparing trials it spans 0.4-1.7M trials (0.6-5 s) by seed and
    # alone moved throughput by +-15% between seeds.  A 30-trial
    # preparing phase keeps the class (0.1-1.5 s) without that swing.
    return tuple(
        RequestClass(cls.label, cls.dataset, {**cls.fields, "prepare": 30})
        if cls.label == "ols-kl@movielens" else cls
        for cls in classes
    )


def _adaptive_mix() -> Tuple[RequestClass, ...]:
    adaptive = {**EPSILON_DELTA, "mode": "adaptive", "block_size": 256}
    shares = {
        ("ols-kl", "abide"): 2, ("ols-kl", "movielens"): 4,
        ("ols-kl", "jester"): 2, ("ols-kl", "protein"): 2,
        ("ols", "abide"): 3, ("ols", "movielens"): 3,
        ("ols", "jester"): 2, ("ols", "protein"): 1,
        ("os", "movielens"): 2, ("os", "jester"): 3,
    }
    return tuple(
        RequestClass(
            f"{method}-adaptive@{dataset}", dataset,
            {"method": method, **adaptive}, share,
        )
        for (method, dataset), share in shares.items()
    )


WORKLOADS: Dict[str, Workload] = {
    # Five rounds send 160 cache-writing misses, more than the 128
    # entries ResultCache holds, so the write side evicts too.
    "serve-fixed": Workload(
        name="serve-fixed", mix=_fixed_mix(), round_seconds=8.0,
        pooled=True, min_rounds=5,
    ),
    "serve-adaptive": Workload(
        name="serve-adaptive", mix=_adaptive_mix(), round_seconds=7.0,
        setup_repeats=9,
    ),
}
