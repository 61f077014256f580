"""Treatment-effect estimators on the transported outcome scale.

The chain: fit a conditional-mean surface on the prior study's control arm,
push the current study's (surrogate, covariate) pairs through it, then
contrast arms.  Three estimator families live here:

* gold standard: difference of observed outcome means (needs current outcomes);
* pooled-ignorant: pushes surrogates through a 1-D curve, ignoring the covariate;
* heterogeneity-aware: pushes (surrogate, covariate) through the 2-D surface,
  in four algebraic forms (simple, twostage, pooled, augmented) that are
  asymptotically equivalent; the pooled form is the headline estimator.

Every estimator here is a pure function of immutable inputs; sums are numpy
pairwise sums over arrays in construction order, so results are reproducible
and independent of any outer parallelism.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import PairedStudies
from .errors import MissingPriorOutcome, OutOfSupport, ZeroDenominator
from .smoothing import (
    Bandwidths,
    KernelKind,
    SmoothingConfig,
    nw_curve_many,
    nw_surface_many,
)

__all__ = [
    "Method",
    "EstimateWithSE",
    "Mu0Surface",
    "fit_mu0_surface",
    "pte_ratio",
    "estimate_suite",
]


class Method(enum.Enum):
    """The estimators, declared in report order."""

    GOLD = "gold"
    P = "p"
    H_POOLED = "h_pooled"
    H_SIMPLE = "h_simple"
    H_TWOSTAGE = "h_twostage"
    H_AUG = "h_aug"


@dataclass(frozen=True)
class EstimateWithSE:
    """A point estimate with its standard error and provenance counts.

    n_clamped counts the surface/curve/smoother evaluations this estimate
    uses that fell outside the kernel support and were re-evaluated at the
    nearest data point (always 0 under the ERROR out-of-bounds policy).
    """

    estimate: float
    se: float
    method: Method
    n1: int
    n0: int
    n_clamped: int = 0


@dataclass(frozen=True)
class Mu0Surface:
    """Conditional outcome mean given (surrogate, covariate), fit on prior control data.

    Built exclusively from the prior study's control arm; current-study
    outcomes never enter.
    """

    s: np.ndarray
    w: np.ndarray
    y: np.ndarray
    h_s: float
    h_w: float
    kernel: KernelKind
    cfg: SmoothingConfig

    def evaluate_many(self, s0s, w0s):
        """Vector evaluation; returns (values, clamped-query count)."""
        return nw_surface_many(self.s, self.w, self.y, self.h_s, self.h_w,
                               self.kernel, s0s, w0s, self.cfg)


def fit_mu0_surface(paired: PairedStudies, bw: Bandwidths,
                    kernel: KernelKind, cfg: SmoothingConfig) -> Mu0Surface:
    arm = paired.prior.control
    if not arm.has_outcome:
        raise MissingPriorOutcome("prior control arm has no outcomes; cannot fit surface")
    return Mu0Surface(s=arm.s, w=arm.w, y=arm.y,
                      h_s=bw.h2, h_w=bw.h3, kernel=kernel, cfg=cfg)


def _arm_contrast(a: np.ndarray, b: np.ndarray, method: Method,
                  n_clamped: int = 0) -> EstimateWithSE:
    """Difference of two arms' means, with its two-sample standard error."""
    va = float(np.var(a, ddof=1)) if a.size > 1 else 0.0
    vb = float(np.var(b, ddof=1)) if b.size > 1 else 0.0
    return EstimateWithSE(float(a.mean() - b.mean()), math.sqrt(va / a.size + vb / b.size),
                          method, a.size, b.size, n_clamped)


def pte_ratio(delta_h: EstimateWithSE, gold: EstimateWithSE) -> float:
    """Fraction of the outcome-scale effect captured on the transported scale."""
    if gold.estimate == 0.0:
        raise ZeroDenominator("gold-standard estimate is zero; ratio undefined")
    return delta_h.estimate / gold.estimate


def estimate_suite(paired: PairedStudies, bw: Bandwidths, cfg: SmoothingConfig) -> dict:
    """All estimators off one shared set of intermediates.

    Returns a dict keyed by Method.  s1t/s0t are the transported outcomes per
    arm and m1/m0 the arm smoothed means at the treated then control
    covariates.  The pooled form, the headline estimator, averages both
    smoothed means over the pooled covariates: randomization makes the
    covariate distribution identical across arms, so evaluating both arm means
    over all n covariate values recovers the same limit with lower variance.
    The simple form is the difference of arm means of transported outcomes;
    twostage contrasts each arm's smoothed mean at its own covariate points;
    the augmented form centers the transported outcomes by the arm-share blend
    of m1 and m0, and its SE uses the pooled estimate as its contrast center.
    Both arms go through the surface, and through the covariate-ignoring
    curve, in one call each; the simple form counts only that surface call's
    clamps.  Every call takes the treated queries first, and each is made once:
    under ERROR a failing stage's OutOfSupport.values (clamped) feed the later
    stages, and one OutOfSupport names every failing stage with the first one's
    indices.  The gold row appears only when both current arms carry outcomes.
    """
    surface = fit_mu0_surface(paired, bw, cfg.kernel, cfg)
    tre, ctl = paired.current.treated, paired.current.control
    pc = paired.prior.control
    n1, n0 = tre.n, ctl.n
    pi1 = n1 / (n1 + n0)
    pi0 = n0 / (n1 + n0)
    s_all = np.concatenate([tre.s, ctl.s])
    w_all = np.concatenate([tre.w, ctl.w])

    failures = []

    def stage(name: str, smooth):
        try:
            return smooth()
        except OutOfSupport as exc:  # its clamped values feed the later stages
            failures.append((name, exc))
            return exc.values, exc.indices.size

    st, c_st = stage("surface transport", lambda: surface.evaluate_many(s_all, w_all))
    s1t, s0t = st[:n1], st[n1:]
    m1, c_m1 = stage("m1", lambda: nw_curve_many(tre.w, s1t, bw.h1, cfg.kernel, w_all, cfg))
    m0, c_m0 = stage("m0", lambda: nw_curve_many(ctl.w, s0t, bw.h0, cfg.kernel, w_all, cfg))
    yt, c_p = stage("covariate-ignoring curve",
                    lambda: nw_curve_many(pc.s, pc.y, bw.h4, cfg.kernel, s_all, cfg))
    if failures:
        raise OutOfSupport("; ".join(f"{name}: {exc}" for name, exc in failures),
                           indices=failures[0][1].indices)
    clamped = c_st + c_m1 + c_m0
    resid = st - (pi0 * m1 + pi1 * m0)  # less the arm-share blend of m1 and m0

    def sigma_h(delta: float) -> float:
        # each arm's residual is centered: the pi-weighted m level sits
        # pi1*delta below the treated mean and pi0*delta above the control
        # mean.  Subtracting pi0*delta instead would leave the control
        # residuals a -2*pi0*delta offset that inflates the variance.
        r1 = resid[:n1] - pi1 * delta
        r0 = resid[n1:] + pi0 * delta
        return math.sqrt(float((r1 * r1).sum()) / n1**2 + float((r0 * r0).sum()) / n0**2)

    pooled = float((m1 - m0).mean())
    twostage = float(m1[:n1].mean() - m0[n1:].mean())
    aug = float(resid[:n1].mean() - resid[n1:].mean())
    e1 = s1t - m1[:n1]
    e0 = s0t - m0[n1:]
    g = m1 - m0 - pooled
    g1, g0 = g[:n1], g[n1:]
    sigma_aug = math.sqrt(
        float((e1 * e1).sum()) / n1**2
        + float((e0 * e0).sum()) / n0**2
        + pi1**2 / n1**2 * float((g1 * g1).sum())
        + pi0**2 / n0**2 * float((g0 * g0).sum())
    )

    out = {
        Method.H_POOLED: EstimateWithSE(pooled, sigma_h(pooled),
                                        Method.H_POOLED, n1, n0, clamped),
        Method.H_SIMPLE: _arm_contrast(s1t, s0t, Method.H_SIMPLE, c_st),
        Method.H_TWOSTAGE: EstimateWithSE(twostage, sigma_h(twostage),
                                          Method.H_TWOSTAGE, n1, n0, clamped),
        Method.H_AUG: EstimateWithSE(aug, sigma_aug, Method.H_AUG, n1, n0, clamped),
        Method.P: _arm_contrast(yt[:n1], yt[n1:], Method.P, c_p),
    }
    if tre.has_outcome and ctl.has_outcome:
        out[Method.GOLD] = _arm_contrast(tre.y, ctl.y, Method.GOLD)
    return out
