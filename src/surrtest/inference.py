"""Wald tests, p-values, and confidence intervals for estimate/SE pairs.

All tests use the standard normal reference distribution.  The normal CDF and
quantile are scipy's ``ndtr`` and ``ndtri``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from scipy.special import ndtr, ndtri

from .errors import ConfigError, ZeroSE

__all__ = ["TestOutcome", "check_alpha", "wald_test"]


@dataclass(frozen=True)
class TestOutcome:
    """A two-sided Wald test result with its confidence interval.

    Invariants (enforced by construction): reject holds exactly when
    p_value < alpha, exactly when |z| exceeds the normal quantile at
    1 - alpha/2; the CI is estimate +/- that quantile times se.
    """

    method: str
    estimate: float
    se: float
    z: float
    p_value: float
    alpha: float
    reject: bool
    ci_lower: float
    ci_upper: float


def check_alpha(alpha: float) -> None:
    """Raise ConfigError unless the test level `alpha` lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha!r}")


def wald_test(e, alpha: float = 0.05) -> TestOutcome:
    """Two-sided normal-reference test of `estimate = 0`.

    `e` is anything with .estimate and .se attributes (and optionally
    .method, used as the tag).
    """
    check_alpha(alpha)
    est = float(e.estimate)
    se = float(e.se)
    if not (math.isfinite(se) and se > 0.0):
        raise ZeroSE(f"standard error must be positive and finite, got {se!r}")
    z = est / se
    p = 2.0 * float(ndtr(-abs(z)))
    q = float(ndtri(1.0 - alpha / 2.0))
    tag = getattr(e, "method", "")
    if isinstance(tag, enum.Enum):  # Method enums flatten to their string value
        tag = tag.value
    return TestOutcome(
        method=tag,
        estimate=est,
        se=se,
        z=z,
        p_value=p,
        alpha=alpha,
        reject=bool(abs(z) > q),
        ci_lower=est - q * se,
        ci_upper=est + q * se,
    )
