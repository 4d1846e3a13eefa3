"""Convergence traces for sampling estimators (Figures 11-12).

A :class:`ConvergenceTrace` records the running estimate of one tracked
quantity at regular trial checkpoints, so experiments can plot (or
tabulate) how quickly an estimator stabilises and whether it stays inside
the paper's ``2ε`` error band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)


@dataclass
class ConvergenceTrace:
    """Running-estimate checkpoints of a single tracked probability.

    Attributes:
        label: Human-readable name of the tracked quantity.
        checkpoints: ``(trials_so_far, running_estimate)`` pairs.
    """

    label: str = ""
    checkpoints: List[Tuple[int, float]] = field(default_factory=list)

    def record(self, n_trials: int, estimate: float) -> None:
        """Append one checkpoint."""
        self.checkpoints.append((n_trials, float(estimate)))

    @property
    def final_estimate(self) -> float:
        """The last recorded estimate (``nan`` when empty)."""
        if not self.checkpoints:
            return float("nan")
        return self.checkpoints[-1][1]

    def estimates(self) -> List[float]:
        """All recorded estimates in trial order."""
        return [value for _n, value in self.checkpoints]

    def trials(self) -> List[int]:
        """All checkpoint trial counts in order."""
        return [n for n, _value in self.checkpoints]

    def within_band(
        self, target: float, epsilon: float, after_fraction: float = 0.5
    ) -> bool:
        """Whether all checkpoints after a warm-up stay in ``target·(1±ε)``.

        Mirrors the paper's Figure 11 criterion: fluctuation is expected in
        the first half of the trial budget, stability after it.

        Args:
            target: Reference probability (centre of the band).
            epsilon: Relative half-width of the band.
            after_fraction: Fraction of the total trials treated as
                warm-up and excluded from the check.
        """
        if not self.checkpoints:
            return False
        horizon = self.checkpoints[-1][0] * after_fraction
        tail = [
            value for n, value in self.checkpoints if n >= horizon
        ]
        if not tail:
            return False
        low = target * (1.0 - epsilon)
        high = target * (1.0 + epsilon)
        return all(low <= value <= high for value in tail)


def encode_traces(
    traces: Mapping[Any, ConvergenceTrace],
) -> Dict[str, List[List[float]]]:
    """Checkpoint form of traces keyed by int tuples (butterfly keys):
    ``"a|b|c|d" -> [[n, value], ...]``."""
    return {
        "|".join(map(str, key)): [[n, value] for n, value in trace.checkpoints]
        for key, trace in traces.items()
    }


def decode_traces(
    encoded: Mapping[str, List],
    keys: Optional[Iterable[Tuple[int, ...]]] = None,
) -> Dict[Any, ConvergenceTrace]:
    """Inverse of :func:`encode_traces`.

    Without ``keys`` every encoded trace is rebuilt.  With ``keys`` the
    result holds exactly those keys, in that order — a tracked key the
    snapshot never recorded restarts empty, and an encoded key nobody
    tracks any more is dropped.
    """
    if keys is None:
        keys = [
            tuple(int(part) for part in raw.split("|")) for raw in encoded
        ]
    traces: Dict[Any, ConvergenceTrace] = {}
    for key in keys:
        recorded = encoded.get("|".join(map(str, key)), [])
        traces[key] = ConvergenceTrace(
            label=str(key),
            checkpoints=[(int(n), float(value)) for n, value in recorded],
        )
    return traces


def checkpoint_schedule(total_trials: int, points: int = 40) -> Sequence[int]:
    """Evenly spaced checkpoint trial counts ending exactly at the total."""
    if total_trials <= 0:
        return []
    points = max(1, min(points, total_trials))
    step = total_trials / points
    schedule = sorted({int(round(step * i)) for i in range(1, points + 1)})
    return [n for n in schedule if n > 0]
