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
from .errors import MissingOutcome, ZeroDenominator
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
    GOLD = "gold"
    P = "p"
    H_SIMPLE = "h_simple"
    H_TWOSTAGE = "h_twostage"
    H_POOLED = "h_pooled"
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
        raise MissingOutcome("prior control arm has no outcomes; cannot fit surface")
    return Mu0Surface(s=arm.s, w=arm.w, y=arm.y,
                      h_s=bw.h2, h_w=bw.h3, kernel=kernel, cfg=cfg)


def _two_sample_se(a: np.ndarray, b: np.ndarray) -> float:
    va = float(np.var(a, ddof=1)) if a.size > 1 else 0.0
    vb = float(np.var(b, ddof=1)) if b.size > 1 else 0.0
    return math.sqrt(va / a.size + vb / b.size)


@dataclass(frozen=True)
class _HParts:
    """Shared intermediates for the heterogeneity-aware estimators.

    s1t/s0t are the transported outcomes per arm; mg_wk holds the arm-g
    smoothed mean evaluated at arm k's covariate points.  n_clamped counts
    every clamped query, n_clamped_transport only those of the surface
    evaluations behind s1t/s0t.
    """

    s1t: np.ndarray
    s0t: np.ndarray
    m1_w1: np.ndarray
    m1_w0: np.ndarray
    m0_w1: np.ndarray
    m0_w0: np.ndarray
    n_clamped_transport: int
    n_clamped: int

    @property
    def n1(self) -> int:
        return self.s1t.size

    @property
    def n0(self) -> int:
        return self.s0t.size


def _compute_h_parts(paired: PairedStudies, surface: Mu0Surface,
                     bw: Bandwidths, cfg: SmoothingConfig) -> _HParts:
    tre = paired.current.treated
    ctl = paired.current.control
    s1t, c1 = surface.evaluate_many(tre.s, tre.w)
    s0t, c0 = surface.evaluate_many(ctl.s, ctl.w)
    w_all = np.concatenate([tre.w, ctl.w])
    m1_all, c2 = nw_curve_many(tre.w, s1t, bw.h1, surface.kernel, w_all, cfg)
    m0_all, c3 = nw_curve_many(ctl.w, s0t, bw.h0, surface.kernel, w_all, cfg)
    n1 = tre.n
    return _HParts(
        s1t=s1t, s0t=s0t,
        m1_w1=m1_all[:n1], m1_w0=m1_all[n1:],
        m0_w1=m0_all[:n1], m0_w0=m0_all[n1:],
        n_clamped_transport=c1 + c0,
        n_clamped=c1 + c0 + c2 + c3,
    )


def _pooled_from_parts(p: _HParts) -> float:
    """The headline estimator: both smoothed means averaged over the pooled covariates.

    Randomization makes the covariate distribution identical across arms, so
    evaluating both arm means over all n covariate values recovers the same
    limit with lower variance.
    """
    n = p.n1 + p.n0
    return float((p.m1_w0.sum() + p.m1_w1.sum() - p.m0_w0.sum() - p.m0_w1.sum()) / n)


def _sigma_h_from_parts(p: _HParts, delta_h: float) -> float:
    """Standard error of the pooled and twostage estimators, centered at delta_h."""
    n1, n0 = p.n1, p.n0
    n = n1 + n0
    pi1 = n1 / n
    pi0 = n0 / n
    # each arm's residual is centered: the pi-weighted m level sits pi1*delta
    # below the treated mean and pi0*delta above the control mean, so the
    # treated term subtracts pi1*delta and the control term adds pi0*delta.
    # With a subtracted control term the control residuals carry a
    # -2*pi0*delta offset and the variance estimate is inflated whenever
    # delta is large against the control-arm spread.
    r1 = p.s1t - pi0 * p.m1_w1 - pi1 * p.m0_w1 - pi1 * delta_h
    r0 = p.s0t - pi0 * p.m1_w0 - pi1 * p.m0_w0 + pi0 * delta_h
    return math.sqrt(float((r1 * r1).sum()) / n1**2 + float((r0 * r0).sum()) / n0**2)


def _sigma_aug_from_parts(p: _HParts, delta_h: float) -> float:
    """Standard error of the augmented estimator (four-term decomposition)."""
    n1, n0 = p.n1, p.n0
    n = n1 + n0
    pi1 = n1 / n
    pi0 = n0 / n
    e1 = p.s1t - p.m1_w1
    e0 = p.s0t - p.m0_w0
    g1 = p.m1_w1 - p.m0_w1 - delta_h
    g0 = p.m1_w0 - p.m0_w0 - delta_h
    return math.sqrt(
        float((e1 * e1).sum()) / n1**2
        + float((e0 * e0).sum()) / n0**2
        + pi1**2 / n1**2 * float((g1 * g1).sum())
        + pi0**2 / n0**2 * float((g0 * g0).sum())
    )


def _aug_from_parts(p: _HParts) -> float:
    """Augmented form: transported outcomes centered by the arm-share blend of m1, m0."""
    n1, n0 = p.n1, p.n0
    n = n1 + n0
    pi1 = n1 / n
    pi0 = n0 / n
    mopt_w1 = pi0 * p.m1_w1 + pi1 * p.m0_w1
    mopt_w0 = pi0 * p.m1_w0 + pi1 * p.m0_w0
    return float((p.s1t - mopt_w1).mean() - (p.s0t - mopt_w0).mean())


def pte_ratio(delta_h: EstimateWithSE, gold: EstimateWithSE) -> float:
    """Fraction of the outcome-scale effect captured on the transported scale."""
    if gold.estimate == 0.0:
        raise ZeroDenominator("gold-standard estimate is zero; ratio undefined")
    return delta_h.estimate / gold.estimate


def estimate_suite(paired: PairedStudies, bw: Bandwidths, cfg: SmoothingConfig) -> dict:
    """All estimators off one shared set of intermediates.

    Returns a dict keyed by Method.  The heavy pieces (surface transforms,
    smoothed means) are computed once and reused, so this is the entry point
    the simulation harness and CLI both use.  The simple form is the
    difference of arm means of transported outcomes; twostage contrasts each
    arm's smoothed mean at its own covariate points; the augmented SE uses
    the pooled estimate as its contrast center.  The gold row appears only
    when both current arms carry outcomes.
    """
    surface = fit_mu0_surface(paired, bw, cfg.kernel, cfg)
    p = _compute_h_parts(paired, surface, bw, cfg)
    n1, n0 = p.n1, p.n0

    pooled = _pooled_from_parts(p)
    simple = float(p.s1t.mean() - p.s0t.mean())
    twostage = float(p.m1_w1.mean() - p.m0_w0.mean())
    aug = _aug_from_parts(p)

    # covariate-ignoring: the arms' surrogates carried through the 1-D curve
    tre, ctl = paired.current.treated, paired.current.control
    pc = paired.prior.control
    y1t, c1 = nw_curve_many(pc.s, pc.y, bw.h4, cfg.kernel, tre.s, cfg)
    y0t, c0 = nw_curve_many(pc.s, pc.y, bw.h4, cfg.kernel, ctl.s, cfg)

    out = {
        Method.H_POOLED: EstimateWithSE(pooled, _sigma_h_from_parts(p, pooled),
                                        Method.H_POOLED, n1, n0, p.n_clamped),
        Method.H_SIMPLE: EstimateWithSE(simple, _two_sample_se(p.s1t, p.s0t),
                                        Method.H_SIMPLE, n1, n0,
                                        p.n_clamped_transport),
        Method.H_TWOSTAGE: EstimateWithSE(twostage, _sigma_h_from_parts(p, twostage),
                                          Method.H_TWOSTAGE, n1, n0, p.n_clamped),
        Method.H_AUG: EstimateWithSE(aug, _sigma_aug_from_parts(p, pooled),
                                     Method.H_AUG, n1, n0, p.n_clamped),
        Method.P: EstimateWithSE(float(y1t.mean() - y0t.mean()),
                                 _two_sample_se(y1t, y0t), Method.P, n1, n0, c1 + c0),
    }
    if tre.has_outcome and ctl.has_outcome:
        out[Method.GOLD] = EstimateWithSE(float(tre.y.mean() - ctl.y.mean()),
                                          _two_sample_se(tre.y, ctl.y),
                                          Method.GOLD, n1, n0)
    return out
