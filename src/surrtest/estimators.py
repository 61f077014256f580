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


def _two_sample_se(a: np.ndarray, b: np.ndarray) -> float:
    va = float(np.var(a, ddof=1)) if a.size > 1 else 0.0
    vb = float(np.var(b, ddof=1)) if b.size > 1 else 0.0
    return math.sqrt(va / a.size + vb / b.size)


def pte_ratio(delta_h: EstimateWithSE, gold: EstimateWithSE) -> float:
    """Fraction of the outcome-scale effect captured on the transported scale."""
    if gold.estimate == 0.0:
        raise ZeroDenominator("gold-standard estimate is zero; ratio undefined")
    return delta_h.estimate / gold.estimate


def estimate_suite(paired: PairedStudies, bw: Bandwidths, cfg: SmoothingConfig) -> dict:
    """All estimators off one shared set of intermediates.

    Returns a dict keyed by Method.  The heavy pieces (surface transforms,
    smoothed means) are computed once and reused, so this is the entry point
    the simulation harness and CLI both use.  s1t/s0t are the transported
    outcomes per arm and m1/m0 the arm smoothed means at the treated then
    control covariates.  The pooled form, the headline estimator, averages both
    smoothed means over the pooled covariates: randomization makes the
    covariate distribution identical across arms, so evaluating both arm
    means over all n covariate values recovers the same limit with lower
    variance.  The simple form is the difference of arm means of transported
    outcomes; twostage contrasts each arm's smoothed mean at its own
    covariate points; the augmented form centers the transported outcomes by
    the arm-share blend of m1 and m0, and its SE uses the pooled estimate as
    its contrast center.  The simple form counts only the clamps of the
    surface evaluations behind s1t/s0t.  The gold row appears only when both
    current arms carry outcomes.  An OutOfSupport names its failing stage.
    """
    surface = fit_mu0_surface(paired, bw, cfg.kernel, cfg)
    tre, ctl = paired.current.treated, paired.current.control
    pc = paired.prior.control
    n1, n0 = tre.n, ctl.n
    n = n1 + n0
    pi1 = n1 / n
    pi0 = n0 / n
    w_all = np.concatenate([tre.w, ctl.w])

    stage = "surface transport (treated arm)"
    try:
        s1t, c1 = surface.evaluate_many(tre.s, tre.w)
        stage = "surface transport (control arm)"
        s0t, c0 = surface.evaluate_many(ctl.s, ctl.w)
        stage = "m1"
        m1, c2 = nw_curve_many(tre.w, s1t, bw.h1, cfg.kernel, w_all, cfg)
        stage = "m0"
        m0, c3 = nw_curve_many(ctl.w, s0t, bw.h0, cfg.kernel, w_all, cfg)
        # covariate-ignoring: the arms' surrogates carried through the 1-D curve
        stage = "covariate-ignoring curve (treated arm)"
        y1t, c4 = nw_curve_many(pc.s, pc.y, bw.h4, cfg.kernel, tre.s, cfg)
        stage = "covariate-ignoring curve (control arm)"
        y0t, c5 = nw_curve_many(pc.s, pc.y, bw.h4, cfg.kernel, ctl.s, cfg)
    except OutOfSupport as exc:
        raise OutOfSupport(f"{stage}: {exc}", indices=exc.indices) from None
    clamped = c1 + c0 + c2 + c3
    blend = pi0 * m1 + pi1 * m0

    def sigma_h(delta: float) -> float:
        # each arm's residual is centered: the pi-weighted m level sits
        # pi1*delta below the treated mean and pi0*delta above the control
        # mean, so the treated term subtracts pi1*delta and the control term
        # adds pi0*delta.  With a subtracted control term the control
        # residuals carry a -2*pi0*delta offset and the variance estimate is
        # inflated whenever delta is large against the control-arm spread.
        r1 = s1t - blend[:n1] - pi1 * delta
        r0 = s0t - blend[n1:] + pi0 * delta
        return math.sqrt(float((r1 * r1).sum()) / n1**2 + float((r0 * r0).sum()) / n0**2)

    pooled = float((m1 - m0).mean())
    simple = float(s1t.mean() - s0t.mean())
    twostage = float(m1[:n1].mean() - m0[n1:].mean())
    aug = float((s1t - blend[:n1]).mean() - (s0t - blend[n1:]).mean())
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
        Method.H_SIMPLE: EstimateWithSE(simple, _two_sample_se(s1t, s0t),
                                        Method.H_SIMPLE, n1, n0, c1 + c0),
        Method.H_TWOSTAGE: EstimateWithSE(twostage, sigma_h(twostage),
                                          Method.H_TWOSTAGE, n1, n0, clamped),
        Method.H_AUG: EstimateWithSE(aug, sigma_aug, Method.H_AUG, n1, n0, clamped),
        Method.P: EstimateWithSE(float(y1t.mean() - y0t.mean()),
                                 _two_sample_se(y1t, y0t), Method.P, n1, n0, c4 + c5),
    }
    if tre.has_outcome and ctl.has_outcome:
        out[Method.GOLD] = EstimateWithSE(float(tre.y.mean() - ctl.y.mean()),
                                          _two_sample_se(tre.y, ctl.y),
                                          Method.GOLD, n1, n0)
    return out
