"""Generic ε-δ trial-count bounds for Monte-Carlo estimation.

Theorem IV.1 (after Karp, Luby & Madras [51]): to estimate a probability
``μ`` with ``Pr(|μ̂ - μ| > εμ) ≤ δ``, a Monte-Carlo estimator needs

    ``N ≥ (1/μ) · 4 ln(2/δ) / ε²``

trials.  The paper instantiates this bound for every method (Lemma V.2 for
OS, Lemma VI.4 for the OLS estimators); the paper-specific ratios live in
:mod:`repro.core.bounds`, this module holds the shared primitive.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

#: Largest trial budget Theorem IV.1 sizing may request.  The bound
#: grows as ``1/(μ·ε²)``, so an aggressive target (say ``μ=1e-12`` with
#: ``ε=1e-6``) silently asks for ~10²⁵ trials — a budget nothing could
#: ever run, which used to surface only hours later as a hung loop.
#: Requests above the cap are a configuration mistake and are rejected
#: up front (the CLI maps this to exit code 2, the service to HTTP 400).
MAX_TRIAL_BOUND = 10**9


def check_target(mu: float, delta: float) -> None:
    """Reject a ``μ`` outside ``(0, 1]`` or a ``δ`` outside ``(0, 1)``."""
    if not 0.0 < mu <= 1.0:
        raise ConfigurationError(f"mu must be in (0, 1], got {mu}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")


def monte_carlo_trial_bound(
    mu: float, epsilon: float = 0.1, delta: float = 0.1
) -> int:
    """Theorem IV.1 lower bound on the trial count, rounded up.

    Args:
        mu: Target probability being estimated (must be in ``(0, 1]``).
        epsilon: Relative error tolerance (must be positive and finite).
        delta: Failure probability (must be in ``(0, 1)``).

    Returns:
        The smallest integer ``N`` satisfying the bound.

    Raises:
        ConfigurationError: On out-of-range arguments, or when the
            requested guarantee needs more than :data:`MAX_TRIAL_BOUND`
            trials.
    """
    check_target(mu, delta)
    if not 0.0 < epsilon < math.inf:
        raise ConfigurationError(
            f"epsilon must be positive and finite, got {epsilon}"
        )
    bound = math.ceil((1.0 / mu) * 4.0 * math.log(2.0 / delta) / epsilon**2)
    if bound > MAX_TRIAL_BOUND:
        raise ConfigurationError(
            f"mu={mu}, epsilon={epsilon}, delta={delta} would require "
            f"{bound:.3e} trials, above the {MAX_TRIAL_BOUND:.0e} cap; "
            "relax the guarantee targets"
        )
    return bound


def achievable_epsilon(
    mu: float, n_trials: int, delta: float = 0.1
) -> float:
    """Invert Theorem IV.1: the ε guaranteed by a given trial budget.

    Useful for reporting what accuracy a scaled-down experiment actually
    certifies (the reproduction runs far fewer trials than the paper's
    C++ testbed).
    """
    check_target(mu, delta)
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
    return math.sqrt(4.0 * math.log(2.0 / delta) / (mu * n_trials))
