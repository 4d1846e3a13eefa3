"""Checkpointable winner-frequency loop shared by MC-VP and OS.

Both direct sampling methods estimate ``P(B)`` as the frequency with
which ``B`` wins a sampled world's maximum-weight set — the estimator
whose trial budget Theorem IV.1 sizes (``N ≥ (1/μ)·4 ln(2/δ)/ε²``; the
unbiasedness argument is Lemma IV.2's expectation identity, restated
for OS by Lemma V.2).  Both methods therefore share the same outer-loop
state: winner counts keyed by canonical butterfly key, the butterflies
themselves, the method's instrumentation counters, optional convergence
traces, and the :class:`~repro.worlds.sampler.WorldSampler` whose RNG
stream drives the trials.  :class:`WinnerCountLoop` packages that state
behind the engine's checkpointable-loop contract, so both methods
inherit checkpoint/resume, deadlines, and graceful interruption from
:func:`~repro.runtime.engine.execute_trial_loop` without duplicating
the bookkeeping.

Butterflies are snapshotted by canonical key only: the graph is part of
a resumed run's inputs, so each butterfly is rebuilt (with its weight and
edge indices) from its four vertex indices on restore.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from ..butterfly import Butterfly, ButterflyKey
from ..butterfly.model import make_butterfly
from ..errors import CheckpointError, ConfigurationError
from ..graph import UncertainBipartiteGraph
from ..observability import Observer, ensure_observer
from ..sampling.convergence import (
    ConvergenceTrace,
    checkpoint_schedule,
    decode_traces,
    encode_traces,
)

#: One trial returns the butterflies of this trial's maximum-weight set.
WinnerTrialFn = Callable[[], Iterable[Butterfly]]

#: Histogram bucket edges for the per-trial winner-set size (``|S_MB|``
#: is 0 or a small count on real networks; ties inflate it on grids).
WINNER_BUCKET_EDGES = (0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)


class WinnerCountLoop:
    """Winner-frequency trial loop with snapshot/restore support."""

    def __init__(
        self,
        graph: UncertainBipartiteGraph,
        sampler,
        trial_fn: Optional[WinnerTrialFn],
        n_target: int,
        track: Optional[Iterable[ButterflyKey]] = None,
        checkpoints: int = 40,
        stats: Optional[Dict[str, float]] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        """
        Args:
            graph: The analysed graph (used to rebuild butterflies on
                restore).
            sampler: The :class:`~repro.worlds.sampler.WorldSampler`
                whose stream position is part of every snapshot.
            trial_fn: Zero-argument callable running one trial and
                returning its winners, or ``None`` when a block driver
                feeds :meth:`record_winners` instead.
            n_target: Target trial count (fixes the trace schedule).
            track: Butterfly keys to trace for convergence plots.
            checkpoints: Number of evenly spaced trace checkpoints.
            stats: Method counters dict, shared *by reference* with the
                trial function and restored in place on resume.
            observer: Optional observer; when given, each trial's
                winner-set size feeds the ``trial.winners`` histogram.
        """
        self.graph = graph
        self.sampler = sampler
        self._trial_fn = trial_fn
        self.counts: Dict[ButterflyKey, int] = {}
        self.butterflies: Dict[ButterflyKey, Butterfly] = {}
        self.stats: Dict[str, float] = stats if stats is not None else {}
        self._track = list(track) if track is not None else []
        self.traces = {
            key: ConvergenceTrace(label=str(key)) for key in self._track
        }
        self._schedule = set(checkpoint_schedule(n_target, checkpoints))
        self._winner_sizes = ensure_observer(observer).metrics.histogram(
            "trial.winners", WINNER_BUCKET_EDGES
        )

    # ------------------------------------------------------------------
    # Engine contract
    # ------------------------------------------------------------------

    def run_trial(self, trial: int) -> None:
        if self._trial_fn is None:
            raise ConfigurationError(
                "this winner loop is fed by a block driver, not run_trial"
            )
        self.record_winners(trial, self._trial_fn())

    def record_winners(
        self, trial: int, winners: Iterable[Butterfly]
    ) -> None:
        """Fold one trial's winner set into the counters and traces.

        Exposed separately from :meth:`run_trial` so the batched block
        driver (:mod:`repro.kernels.frequency_block`) can feed trials
        whose worlds came from one shared mask matrix while keeping the
        counting, histogram, and trace bookkeeping in a single place.
        """
        n_winners = 0
        for butterfly in winners:
            n_winners += 1
            self.butterflies.setdefault(butterfly.key, butterfly)
            self.counts[butterfly.key] = self.counts.get(butterfly.key, 0) + 1
        self._winner_sizes.observe(n_winners)
        if self.traces and trial in self._schedule:
            for key, trace in self.traces.items():
                trace.record(trial, self.counts.get(key, 0) / trial)

    def state_payload(self, completed: int) -> Dict:
        return {
            "counts": [
                [list(key), count] for key, count in self.counts.items()
            ],
            "stats": {key: float(v) for key, v in self.stats.items()},
            "traces": encode_traces(self.traces),
            "sampler": self.sampler.state_payload(),
        }

    def restore_state(self, payload: Dict) -> None:
        self.counts.clear()
        self.butterflies.clear()
        for raw_key, count in payload["counts"]:
            key = tuple(int(part) for part in raw_key)
            butterfly = make_butterfly(self.graph, *key)
            if butterfly is None:
                raise CheckpointError(
                    f"checkpointed butterfly {key} does not exist in "
                    f"graph {self.graph.name!r}"
                )
            self.counts[key] = int(count)
            self.butterflies[key] = butterfly
        self.stats.clear()
        self.stats.update(
            {key: float(v) for key, v in payload["stats"].items()}
        )
        self.traces = decode_traces(payload["traces"], keys=self.traces)
        self.sampler.restore_state(payload["sampler"])

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def probabilities(self, completed: int) -> Dict[ButterflyKey, float]:
        """Winner frequencies over the trials actually completed."""
        if completed <= 0:
            return {}
        return {
            key: count / completed for key, count in self.counts.items()
        }
