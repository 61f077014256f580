"""Estimator tests, anchored by a naive double-loop reference implementation.

The reference code below re-derives every estimator with plain Python loops
and explicit kernel sums, sharing nothing with the library internals except
the input fixture, so agreement to 1e-10 rules out transcription errors in
the vectorized versions.
"""

import math

import numpy as np
import pytest

from surrtest.data import StudyArm, TwoArmStudy, validate_paired
from surrtest.errors import MissingOutcome, ZeroDenominator
from surrtest.estimators import (
    Method,
    estimate_suite,
    fit_mu0_surface,
    pte_ratio,
)
from surrtest.smoothing import Bandwidths, KernelKind, OobPolicy, SmoothingConfig

from conftest import tiny_pair

EPA = KernelKind.EPANECHNIKOV
ERR_CFG = SmoothingConfig(kernel=EPA)
BW = Bandwidths(h0=2.0, h1=2.0, h2=2.0, h3=2.0, h4=2.0)


# ------------------------------------------------- naive reference (loops)

def _k(u):
    return 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0


def naive_mu0_2d(ps, pw, py, h_s, h_w, s0, w0):
    num = 0.0
    den = 0.0
    for i in range(len(ps)):
        wt = (_k((ps[i] - s0) / h_s) / h_s) * (_k((pw[i] - w0) / h_w) / h_w)
        num += wt * py[i]
        den += wt
    return num / den


def naive_mu0_1d(ps, py, h, s0):
    num = 0.0
    den = 0.0
    for i in range(len(ps)):
        wt = _k((ps[i] - s0) / h) / h
        num += wt * py[i]
        den += wt
    return num / den


def naive_transform(paired, arm, h2, h3):
    pc = paired.prior.control
    return [naive_mu0_2d(list(pc.s), list(pc.w), list(pc.y), h2, h3,
                         arm.s[i], arm.w[i]) for i in range(arm.n)]


def naive_m(arm_w, tvals, h, w0):
    num = 0.0
    den = 0.0
    for i in range(len(arm_w)):
        wt = _k((arm_w[i] - w0) / h) / h
        num += wt * tvals[i]
        den += wt
    return num / den


def naive_everything(paired, bw):
    """All estimators and standard errors from first principles."""
    tre = paired.current.treated
    ctl = paired.current.control
    n1, n0 = tre.n, ctl.n
    n = n1 + n0
    pi1, pi0 = n1 / n, n0 / n

    s1t = naive_transform(paired, tre, bw.h2, bw.h3)
    s0t = naive_transform(paired, ctl, bw.h2, bw.h3)

    m1 = {w: naive_m(list(tre.w), s1t, bw.h1, w)
          for w in list(tre.w) + list(ctl.w)}
    m0 = {w: naive_m(list(ctl.w), s0t, bw.h0, w)
          for w in list(tre.w) + list(ctl.w)}

    simple = sum(s1t) / n1 - sum(s0t) / n0
    twostage = (sum(m1[w] for w in tre.w) / n1
                - sum(m0[w] for w in ctl.w) / n0)
    pooled = (sum(m1[w] for w in ctl.w) + sum(m1[w] for w in tre.w)
              - sum(m0[w] for w in ctl.w) - sum(m0[w] for w in tre.w)) / n
    aug = (sum(s1t[i] - pi0 * m1[w] - pi1 * m0[w]
               for i, w in enumerate(tre.w)) / n1
           - sum(s0t[i] - pi0 * m1[w] - pi1 * m0[w]
                 for i, w in enumerate(ctl.w)) / n0)

    def sig_h(d):
        # control residuals center with +pi0*d (the mixed m level sits
        # pi0*d above the control mean)
        a = sum((s1t[i] - pi0 * m1[w] - pi1 * m0[w] - pi1 * d) ** 2
                for i, w in enumerate(tre.w)) / n1 ** 2
        b = sum((s0t[i] - pi0 * m1[w] - pi1 * m0[w] + pi0 * d) ** 2
                for i, w in enumerate(ctl.w)) / n0 ** 2
        return math.sqrt(a + b)

    def sig_aug(d):
        a = sum((s1t[i] - m1[w]) ** 2 for i, w in enumerate(tre.w)) / n1 ** 2
        b = sum((s0t[i] - m0[w]) ** 2 for i, w in enumerate(ctl.w)) / n0 ** 2
        c = pi1 ** 2 / n1 ** 2 * sum((m1[w] - m0[w] - d) ** 2 for w in tre.w)
        e = pi0 ** 2 / n0 ** 2 * sum((m1[w] - m0[w] - d) ** 2 for w in ctl.w)
        return math.sqrt(a + b + c + e)

    def two_sample_se(a_vals, b_vals):
        def var1(v):
            mu = sum(v) / len(v)
            return sum((x - mu) ** 2 for x in v) / (len(v) - 1)
        return math.sqrt(var1(a_vals) / len(a_vals) + var1(b_vals) / len(b_vals))

    h4c = [naive_mu0_1d(list(paired.prior.control.s),
                        list(paired.prior.control.y), bw.h4, s)
           for s in tre.s]
    h4c0 = [naive_mu0_1d(list(paired.prior.control.s),
                         list(paired.prior.control.y), bw.h4, s)
            for s in ctl.s]
    p_est = sum(h4c) / n1 - sum(h4c0) / n0

    return {
        "simple": simple, "twostage": twostage, "pooled": pooled, "aug": aug,
        "sigma_h_pooled": sig_h(pooled), "sigma_h_twostage": sig_h(twostage),
        "sigma_aug": sig_aug(pooled),
        "se_simple": two_sample_se(s1t, s0t),
        "p": p_est, "se_p": two_sample_se(h4c, h4c0),
        "gold": (sum(tre.y) / n1 - sum(ctl.y) / n0),
        "se_gold": two_sample_se(list(tre.y), list(ctl.y)),
    }


# ------------------------------------------------------ oracle equivalence

def test_all_estimators_match_naive_reference():
    paired = tiny_pair()
    ref = naive_everything(paired, BW)
    suite = estimate_suite(paired, BW, ERR_CFG)

    tol = dict(abs=1e-10)
    assert suite[Method.H_SIMPLE].estimate == pytest.approx(ref["simple"], **tol)
    assert suite[Method.H_TWOSTAGE].estimate == pytest.approx(ref["twostage"], **tol)
    assert suite[Method.H_POOLED].estimate == pytest.approx(ref["pooled"], **tol)
    assert suite[Method.H_AUG].estimate == pytest.approx(ref["aug"], **tol)
    assert suite[Method.P].estimate == pytest.approx(ref["p"], **tol)
    assert suite[Method.GOLD].estimate == pytest.approx(ref["gold"], **tol)

    assert suite[Method.H_POOLED].se == pytest.approx(ref["sigma_h_pooled"], **tol)
    assert suite[Method.H_TWOSTAGE].se == pytest.approx(ref["sigma_h_twostage"], **tol)
    assert suite[Method.H_AUG].se == pytest.approx(ref["sigma_aug"], **tol)
    assert suite[Method.H_SIMPLE].se == pytest.approx(ref["se_simple"], **tol)
    assert suite[Method.P].se == pytest.approx(ref["se_p"], **tol)
    assert suite[Method.GOLD].se == pytest.approx(ref["se_gold"], **tol)


# -------------------------------------------------------- exact identities

def test_identical_arms_give_zero():
    prior = tiny_pair().prior
    arm = StudyArm(s=[1.0, 1.4, 1.9], w=[0.5, 1.0, 1.6])
    current = TwoArmStudy(treated=arm, control=arm)
    paired = validate_paired(prior, current)
    suite = estimate_suite(paired, BW, ERR_CFG)
    for method in (Method.H_SIMPLE, Method.H_TWOSTAGE, Method.H_POOLED,
                   Method.H_AUG, Method.P):
        assert suite[method].estimate == pytest.approx(0.0, abs=1e-12)


def test_constant_surface_gives_zero():
    prior = TwoArmStudy(
        treated=StudyArm(s=[1.0, 2.0], w=[0.5, 1.5]),
        control=StudyArm(s=[1.0, 1.5, 2.0], w=[0.5, 1.0, 1.5],
                         y=[4.2, 4.2, 4.2]))
    current = tiny_pair().current
    paired = validate_paired(prior, current)
    suite = estimate_suite(paired, BW, ERR_CFG)
    for method in (Method.H_SIMPLE, Method.H_TWOSTAGE, Method.H_POOLED,
                   Method.H_AUG, Method.P):
        assert suite[method].estimate == pytest.approx(0.0, abs=1e-12)
        assert suite[method].se == pytest.approx(0.0, abs=1e-12)


def test_outcome_scale_equivariance():
    """Scaling and shifting prior outcomes scales the contrasts, drops the shift."""
    paired = tiny_pair()
    pc = paired.prior.control
    scaled_prior = TwoArmStudy(
        treated=paired.prior.treated,
        control=StudyArm(s=pc.s, w=pc.w, y=2.0 * pc.y + 3.0))
    paired2 = validate_paired(scaled_prior, paired.current)
    s1 = estimate_suite(paired, BW, ERR_CFG)
    s2 = estimate_suite(paired2, BW, ERR_CFG)
    for method in (Method.H_SIMPLE, Method.H_TWOSTAGE, Method.H_POOLED,
                   Method.H_AUG, Method.P):
        assert s2[method].estimate == pytest.approx(
            2.0 * s1[method].estimate, rel=1e-10)
        assert s2[method].se == pytest.approx(2.0 * s1[method].se, rel=1e-10)


def test_blinding_changes_nothing_but_gold():
    with_y = tiny_pair(with_current_y=True)
    blinded = tiny_pair(with_current_y=False)
    s1 = estimate_suite(with_y, BW, ERR_CFG)
    s2 = estimate_suite(blinded, BW, ERR_CFG)
    assert Method.GOLD in s1 and Method.GOLD not in s2
    for method in (Method.H_SIMPLE, Method.H_TWOSTAGE, Method.H_POOLED,
                   Method.H_AUG, Method.P):
        assert s1[method].estimate == s2[method].estimate
        assert s1[method].se == s2[method].se


def test_huge_current_bandwidths_collapse_twostage_to_simple():
    # an arm's smoothed mean under an enormous covariate bandwidth is the
    # plain arm mean of transported outcomes, so the twostage contrast
    # equals the simple one
    paired = tiny_pair()
    bw = Bandwidths(h0=1e12, h1=1e12, h2=2.0, h3=2.0, h4=2.0)
    suite = estimate_suite(paired, bw, ERR_CFG)
    assert suite[Method.H_TWOSTAGE].estimate == pytest.approx(
        suite[Method.H_SIMPLE].estimate, rel=1e-9)
    assert suite[Method.H_POOLED].estimate == pytest.approx(
        suite[Method.H_SIMPLE].estimate, rel=1e-9)


# ------------------------------------------------------------- edge cases

def test_simple_form_counts_only_transport_clamps():
    # the arms' covariates never come within a bandwidth of each other, so
    # every cross-arm m1/m0 query clamps; the simple contrast uses none of
    # those smooths, and every transported point has surface mass
    s_grid, w_grid = np.meshgrid(np.linspace(0.0, 3.0, 13), np.linspace(0.0, 10.0, 41))
    prior_arm = StudyArm(s=s_grid.ravel(), w=w_grid.ravel(),
                         y=(s_grid + w_grid).ravel())
    s = np.linspace(1.0, 2.0, 30)
    current = TwoArmStudy(treated=StudyArm(s=s, w=np.linspace(0.0, 2.0, 30)),
                          control=StudyArm(s=s, w=np.linspace(8.0, 10.0, 30)))
    paired = validate_paired(TwoArmStudy(treated=prior_arm, control=prior_arm),
                             current)
    bw = Bandwidths(h0=1.0, h1=1.0, h2=1.0, h3=1.0, h4=1.0)
    cfg = SmoothingConfig(kernel=EPA, oob_policy=OobPolicy.CLAMP_TO_NEAREST)
    suite = estimate_suite(paired, bw, cfg)
    assert suite[Method.H_SIMPLE].n_clamped == 0
    for method in (Method.H_POOLED, Method.H_TWOSTAGE, Method.H_AUG):
        assert suite[method].n_clamped == 60


def test_fit_requires_prior_outcome():
    prior = TwoArmStudy(
        treated=StudyArm(s=[1.0, 2.0], w=[0.5, 1.5]),
        control=StudyArm(s=[1.0, 2.0], w=[0.5, 1.5]))
    fake = tiny_pair()
    broken = PairedLike(prior=prior, current=fake.current)
    with pytest.raises(MissingOutcome):
        fit_mu0_surface(broken, BW, EPA, ERR_CFG)


class PairedLike:
    """Bypasses validate_paired so the estimator-level guard is exercised."""

    def __init__(self, prior, current):
        self.prior = prior
        self.current = current


def test_pte_ratio():
    paired = tiny_pair()
    suite = estimate_suite(paired, BW, ERR_CFG)
    r = pte_ratio(suite[Method.H_POOLED], suite[Method.GOLD])
    assert r == pytest.approx(suite[Method.H_POOLED].estimate
                              / suite[Method.GOLD].estimate, rel=1e-15)

    class Zero:
        estimate = 0.0
    with pytest.raises(ZeroDenominator):
        pte_ratio(suite[Method.H_POOLED], Zero())


def test_estimate_counts_and_methods():
    paired = tiny_pair()
    suite = estimate_suite(paired, BW, ERR_CFG)
    assert suite[Method.H_POOLED].n1 == 3
    assert suite[Method.H_POOLED].n0 == 2
    assert suite[Method.GOLD].method is Method.GOLD
    assert suite[Method.P].n_clamped == 0
