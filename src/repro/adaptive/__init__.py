"""Anytime adaptive trial allocation (racing + exact pre-screen).

The static Theorem IV.1 / Lemma VI.4 budgets are worst-case: they size
every candidate for the full ε-δ target even when the incumbent
separates after a fraction of the trials.  This package replaces the
fixed budgets with an *anytime* scheme:

- :mod:`~repro.adaptive.intervals` — the race core: one array function
  giving every arm's empirical-Bernstein limits at a check, valid at
  every check simultaneously through a union-bound δ-split, so
  stopping early still certifies an overall ε-δ statement (reported as
  a *realised*, not worst-case, budget).
- :mod:`~repro.adaptive.racing` — racers that wrap the fixed runs'
  block loops and call the core: certified early stopping for the
  winner-frequency methods, and for OLS-KL's rounds the elimination of
  any candidate whose upper bound falls below the incumbent's lower
  bound.
- :mod:`~repro.adaptive.prescreen` — OLS-KL's pre-screen: it drops
  the candidates dominated by an exact bound on ``C_MB``, before any
  union trial.  It draws nothing, so it costs almost nothing, spends
  no δ, and a resumed run recomputes it.

Everything is opt-in behind ``adaptive=True`` / ``--adaptive`` /
``mode="adaptive"``; with the switch off every method is bit-identical
to the fixed-budget paths.  A race certifies the ``mu`` and ``delta``
its method was called with.
"""

from .intervals import bernstein_limits, realized_epsilon
from .prescreen import PrescreenReport, prescreen_candidates
from .racing import ADAPTIVE_STOP, RacingFrequencyLoop

__all__ = [
    "ADAPTIVE_STOP",
    "PrescreenReport",
    "RacingFrequencyLoop",
    "bernstein_limits",
    "prescreen_candidates",
    "realized_epsilon",
]
