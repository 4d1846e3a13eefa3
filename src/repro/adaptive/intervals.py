"""Empirical-Bernstein anytime confidence intervals.

The racing scheduler needs per-candidate intervals that stay valid at
*every* elimination check, not just at one pre-registered sample size.
Two standard ingredients provide that:

1. **Empirical Bernstein** (Maurer & Pontil 2009).  For ``t`` i.i.d.
   observations in ``[0, R]`` with sample mean ``m̂`` and sample
   variance ``V̂``, with probability at least ``1 − δ``::

       |m̂ − μ| ≤ sqrt(2 V̂ ln(3/δ) / t) + 3 R ln(3/δ) / t

   The variance-adaptive first term is what makes racing pay off: a
   candidate whose blocking indicator is nearly constant gets a tight
   interval after a handful of trials, regardless of the worst-case
   Theorem IV.1 budget.

2. **A union-bound δ-split over checks** (:func:`anytime_delta`).  Check
   ``k`` spends ``δ·6/(π²k²)``; the series sums to ``δ``, so *all*
   checks hold simultaneously with probability ``1 − δ`` no matter when
   the scheduler stops.  Splitting each check's budget further over the
   ``m`` candidates (:func:`split_delta`) gives the per-arm, per-check
   failure probability the scheduler feeds into :meth:`EBInterval.radius`.

The final claim is then reported as a *realised* ε: how far the
incumbent's interval reaches from its estimate, divided by
``max(estimate, μ)`` (:func:`realized_epsilon`), which is the
relative-error form Theorem IV.1 certifies — but measured from the
trials actually spent instead of the worst-case budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError

#: ``Σ 6/(π²k²) = 1`` — the convergent series behind the per-check split.
_BASEL = math.pi * math.pi / 6.0


def anytime_delta(delta: float, check: int) -> float:
    """Failure budget assigned to elimination check ``check`` (1-based).

    The budgets over all checks sum to ``delta``, so intervals computed
    at every check hold simultaneously with probability ``1 − delta``
    — the property that makes stopping at a data-dependent time sound.
    """
    if check <= 0:
        raise ConfigurationError(f"check index must be >= 1, got {check}")
    return delta / (_BASEL * check * check)


def split_delta(delta: float, arms: int) -> float:
    """Per-arm share of one check's failure budget (plain union bound)."""
    if arms <= 0:
        raise ConfigurationError(f"arm count must be >= 1, got {arms}")
    return delta / arms


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


@dataclass
class EBInterval:
    """Moments of one candidate's bounded trial values.

    Holds only ``(count, Σx, Σx²)``, which the racers build from the
    counts their loops already keep (and checkpoint).

    Attributes:
        range_width: ``R`` — the known value range ``[0, R]``.
        count: Number of observations.
        total: Sum of observations.
        total_sq: Sum of squared observations.
    """

    range_width: float = 1.0
    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    @property
    def mean(self) -> float:
        """Sample mean (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 below two observations)."""
        if self.count < 2:
            return 0.0
        mean = self.mean
        raw = (self.total_sq - self.count * mean * mean) / (self.count - 1)
        return max(0.0, raw)

    def radius(self, delta: float) -> float:
        """Maurer-Pontil empirical-Bernstein radius at confidence ``δ``."""
        if self.count == 0:
            return math.inf
        log_term = math.log(3.0 / delta)
        return (
            math.sqrt(2.0 * self.variance * log_term / self.count)
            + 3.0 * self.range_width * log_term / self.count
        )

    def lower(self, delta: float) -> float:
        """Lower confidence limit, clamped to the value range."""
        if self.count == 0:
            return 0.0
        return max(0.0, self.mean - self.radius(delta))

    def upper(self, delta: float) -> float:
        """Upper confidence limit, clamped to the value range."""
        if self.count == 0:
            return self.range_width
        return min(self.range_width, self.mean + self.radius(delta))
