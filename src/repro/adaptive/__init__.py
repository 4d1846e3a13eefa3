"""Anytime adaptive trial allocation (racing + sublinear pre-screen).

The static Theorem IV.1 / Lemma VI.4 budgets are worst-case: they size
every candidate for the full ε-δ target even when the incumbent
separates after a fraction of the trials.  This package replaces the
fixed budgets with an *anytime* scheme:

- :mod:`~repro.adaptive.intervals` — empirical-Bernstein confidence
  sequences per candidate, valid at every check simultaneously through
  a union-bound δ-split, so stopping early still certifies an overall
  ε-δ statement (reported as a *realised*, not worst-case, budget).
- :mod:`~repro.adaptive.racing` — racers that wrap the fixed runs'
  loops: certified early stopping for the winner-frequency methods, and
  for OLS-KL's rounds the elimination of any candidate whose upper
  bound falls below the incumbent's lower bound.
- :mod:`~repro.adaptive.prescreen` — a sublinear pre-screen that
  samples wedge pairs through the existing wedge-CSR index to bound the
  heavier-butterfly mass and drop dominated candidates before any
  OLS/OLS-KL sampling starts.

Everything is opt-in behind ``adaptive=`` / ``--adaptive`` /
``mode="adaptive"``; with the switch off every method is bit-identical
to the fixed-budget paths.
"""

from .intervals import (
    EBInterval,
    anytime_delta,
    realized_epsilon,
    split_delta,
)
from .prescreen import PrescreenReport, prescreen_candidates
from .racing import (
    ADAPTIVE_STOP,
    AdaptiveConfig,
    RacingFrequencyLoop,
    resolve_adaptive,
)

__all__ = [
    "ADAPTIVE_STOP",
    "AdaptiveConfig",
    "EBInterval",
    "PrescreenReport",
    "RacingFrequencyLoop",
    "anytime_delta",
    "prescreen_candidates",
    "realized_epsilon",
    "resolve_adaptive",
    "split_delta",
]
