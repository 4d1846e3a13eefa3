"""Empirical-Bernstein anytime confidence limits — the race core.

The racing scheduler needs per-candidate intervals that stay valid at
*every* elimination check, not just at one pre-registered sample size.
Two standard ingredients provide that, and :func:`bernstein_limits`
applies both to every arm at once:

1. **Empirical Bernstein** (Maurer & Pontil 2009).  For ``t`` i.i.d.
   observations in ``[0, 1]`` with sample mean ``m̂`` and sample
   variance ``V̂``, with probability at least ``1 − δ``::

       |m̂ − μ| ≤ sqrt(2 V̂ ln(3/δ) / t) + 3 ln(3/δ) / t

   The variance-adaptive first term is what makes racing pay off: a
   candidate whose blocking indicator is nearly constant gets a tight
   interval after a handful of trials, regardless of the worst-case
   Theorem IV.1 budget.

2. **A union-bound δ-split over checks and arms.**  Check ``k`` spends
   ``δ·6/(π²k²)``; the series sums to ``δ``, so *all* checks hold
   simultaneously with probability ``1 − δ`` no matter when the
   scheduler stops.  Each check's share is split evenly over the ``m``
   arms it bounds.

Both racers of :mod:`~repro.adaptive.racing` call the one core: the
frequency racer on winner counts, the OLS-KL racer on union acceptance
counts.  Their observations are 0/1, so ``Σx² = Σx`` and the success
counts and trial counts are all the core reads.

The final claim is then reported as a *realised* ε: how far the
incumbent's interval reaches from its estimate, divided by
``max(estimate, μ)`` (:func:`realized_epsilon`), which is the
relative-error form Theorem IV.1 certifies — but measured from the
trials actually spent instead of the worst-case budget.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike

from ..errors import ConfigurationError

#: ``Σ 6/(π²k²) = 1`` — the convergent series behind the per-check split.
_BASEL = math.pi * math.pi / 6.0


def bernstein_limits(
    successes: ArrayLike,
    trials: ArrayLike,
    delta: float,
    check: int,
    arms: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every arm's anytime empirical-Bernstein limits at check ``check``.

    Args:
        successes: Per-arm success counts of 0/1 observations.
        trials: Observations per arm, at least one: one count shared by
            every arm, or one per arm.
        delta: The run's total failure budget.
        check: 1-based index of this elimination check.
        arms: Arms the check's budget splits over (at least the arms
            given: a caller may bound only some of them).

    Returns:
        ``(lower, upper)`` float64 arrays, clamped to ``[0, 1]``.
    """
    if check < 1 or arms < 1:
        raise ConfigurationError(
            f"check index and arm count must be >= 1, got {check}, {arms}"
        )
    delta_arm = delta / (_BASEL * check * check) / arms
    log_term = math.log(3.0 / delta_arm)
    successes = np.asarray(successes, dtype=np.float64)
    trials = np.asarray(trials)
    mean = successes / trials
    # Σx² = Σx for 0/1 observations; one observation has no variance.
    raw = (successes - trials * mean * mean) / np.maximum(trials - 1, 1)
    variance = np.where(trials < 2, 0.0, np.maximum(raw, 0.0))
    radius = (
        np.sqrt(2.0 * variance * log_term / trials) + 3.0 * log_term / trials
    )
    return np.maximum(mean - radius, 0.0), np.minimum(mean + radius, 1.0)


def realized_epsilon(radius: float, estimate: float, mu: float) -> float:
    """The relative error the final interval actually certifies.

    Theorem IV.1 budgets target ``|P̂ − P| ≤ ε·max(P̂, μ)``; inverting
    that for the achieved ``radius`` (how far the interval reaches from
    the estimate) gives the realised ε an adaptive run reports instead
    of the worst-case target.
    """
    scale = max(estimate, mu)
    if scale <= 0.0:
        return math.inf
    return radius / scale
