"""Closed-form benchmark values for two instructive generative models.

Both benchmarks have exact population answers, so they anchor the estimator
definitions independently of any kernel smoothing:

* the discrete two-group mix, where the surrogate's outcome relationship
  differs by sex and the current study's sex mix drives every quantity;
* the lognormal model, where the covariate-ignoring contrast provably
  *overshoots* the outcome-scale effect while the covariate-aware contrast
  equals it exactly.

For the lognormal model two closed forms for the covariate-ignoring contrast
circulate: one with the exponential intact and a linearized variant with the
exponential dropped.  They disagree wildly (the linearized one even goes
negative for small effects), so the Monte-Carlo evaluator here is the
adjudicator; the exponential form is the one it confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, NonPositiveDelta0

__all__ = [
    "DiscreteMix",
    "OracleTriple",
    "MCTriple",
    "discrete_example",
    "DISCRETE_DELTA_P_NOTE",
    "lognormal_counterexample_analytic",
    "lognormal_delta_p_linearized",
    "lognormal_counterexample_mc",
]


@dataclass(frozen=True)
class DiscreteMix:
    """Composition of the current study: fraction of female participants."""

    p_female: float

    def __post_init__(self):
        if not 0.0 <= self.p_female <= 1.0:
            raise ConfigError(f"p_female must lie in [0, 1], got {self.p_female!r}")


@dataclass(frozen=True)
class OracleTriple:
    """Population values: outcome-scale effect, covariate-ignoring and
    covariate-aware transported effects."""

    delta: float
    delta_p: float
    delta_h: float


@dataclass(frozen=True)
class MCTriple:
    """Monte-Carlo estimates of the same three quantities with their MC SEs."""

    delta: float
    delta_se: float
    delta_p: float
    delta_p_se: float
    delta_h: float
    delta_h_se: float
    n: int


DISCRETE_DELTA_P_NOTE = (
    "the covariate-ignoring contrast is mix-independent: the pooled curve is "
    "8.9*s + 0.5 and the surrogate laws do not depend on sex, forcing 44.5 for "
    "every mix; a circulated value of 44.05 for the male-heavy mix is "
    "inconsistent with that curve"
)


def discrete_example(mix: DiscreteMix) -> OracleTriple:
    """Closed forms for the discrete sex-mix benchmark.

    Treated/control surrogate means are 10 and 5 in both sexes.  Outcome
    effects are 37 (female) and 76 (male); covariate-aware transported
    effects are 15 (female) and 74 (male).  The pooled curve fit on the
    half-female reference study is 8.9*s + 0.5, making the covariate-ignoring
    contrast 8.9*(10-5) = 44.5 regardless of mix.
    """
    p = mix.p_female
    return OracleTriple(
        delta=p * 37.0 + (1.0 - p) * 76.0,
        delta_p=44.5,
        delta_h=p * 15.0 + (1.0 - p) * 74.0,
    )


def _check_delta0(delta0: float) -> None:
    if not (math.isfinite(delta0) and delta0 > 0.0):
        raise NonPositiveDelta0(f"delta0 must be positive, got {delta0!r}")


def lognormal_counterexample_analytic(delta0: float) -> OracleTriple:
    """Closed forms for the lognormal model.

    Model: eW, eS iid standard normal; W = exp(eW); S(g) = W*exp(delta0*g + eS);
    Y(g) = S(g)*W.  Then the conditional outcome means are s*w exactly in two
    dimensions and exp(1/4)*s^(3/2) in one, giving

        delta   = delta_h = exp(5/2) * (exp(delta0) - 1)
        delta_p = exp(5/2) * (exp(3*delta0/2) - 1)

    The delta_p form follows from log S(g) ~ N(delta0*g, 2), whose 3/2 moment
    is exp(3*delta0*g/2 + 9/4).  Note delta_p > delta for every delta0 > 0:
    ignoring the covariate overstates the effect here.
    """
    _check_delta0(delta0)
    scale = math.exp(2.5)
    d = scale * (math.exp(delta0) - 1.0)
    return OracleTriple(delta=d,
                        delta_p=scale * (math.exp(1.5 * delta0) - 1.0),
                        delta_h=d)


def lognormal_delta_p_linearized(delta0: float) -> float:
    """Variant closed form with the exponential dropped: exp(5/2)*(3*delta0/2 - 1).

    Kept only so reports can show both circulating forms side by side; the
    Monte-Carlo evaluator rejects this one (it is negative for delta0 < 2/3,
    which no mean contrast of positive quantities can be).
    """
    _check_delta0(delta0)
    return math.exp(2.5) * (1.5 * delta0 - 1.0)


def lognormal_counterexample_mc(delta0: float, n: int,
                                master_seed: int = 0) -> MCTriple:
    """Simulate the lognormal model and estimate all three contrasts.

    Uses the exact conditional-mean transforms (s*w and exp(1/4)*s^(3/2)),
    not kernel fits, so disagreement with the closed forms can only come from
    Monte-Carlo noise.  Each contrast gets its own independent block of draws
    (streams derived as in the simulation harness), so the delta and delta_h
    estimates agree statistically rather than by construction.
    """
    _check_delta0(delta0)
    if n < 1000:
        raise ConfigError(f"need at least 1000 draws for stable MC SEs, got {n}")

    def draws(tag: int):
        seq = np.random.SeedSequence(master_seed, spawn_key=(3, 0, tag))
        rng = np.random.Generator(np.random.Philox(seq))
        e_w = ndtri(rng.random(n) + 2.0**-54)
        e_s = ndtri(rng.random(n) + 2.0**-54)
        w = np.exp(e_w)
        s0 = w * np.exp(e_s)
        s1 = s0 * math.exp(delta0)
        return w, s0, s1

    def mean_se(diff: np.ndarray):
        return float(diff.mean()), float(np.std(diff, ddof=1) / math.sqrt(n))

    w, s0, s1 = draws(0)
    d, d_se = mean_se(s1 * w - s0 * w)  # Y(g) = S(g)*W

    w, s0, s1 = draws(1)
    dh, dh_se = mean_se(s1 * w - s0 * w)  # exact 2-D transform s*w

    w, s0, s1 = draws(2)
    c = math.exp(0.25)
    dp, dp_se = mean_se(c * s1**1.5 - c * s0**1.5)  # exact 1-D transform

    return MCTriple(delta=d, delta_se=d_se, delta_p=dp, delta_p_se=dp_se,
                    delta_h=dh, delta_h_se=dh_se, n=n)
