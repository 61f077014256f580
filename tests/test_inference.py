import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from surrtest.errors import ConfigError, ZeroSE
from surrtest.estimators import Method
from surrtest.inference import wald_test


class _Est:
    def __init__(self, estimate, se, method=None):
        self.estimate = estimate
        self.se = se
        if method is not None:
            self.method = method


# ------------------------------------------------------- normal reference

def test_quantile_frozen_values():
    # classical two-sided 5% and 10% critical values, as CI half-widths at se 1
    for alpha, q in ((0.05, 1.959963984540054), (0.10, 1.6448536269514722)):
        t = wald_test(_Est(0.0, 1.0), alpha=alpha)
        assert t.ci_upper == pytest.approx(q, abs=1e-12)
        assert t.ci_lower == pytest.approx(-q, abs=1e-12)


# -------------------------------------------------------------- wald test

def test_zero_estimate_gives_p_one():
    t = wald_test(_Est(0.0, 1.0))
    assert t.p_value == 1.0
    assert t.z == 0.0
    assert not t.reject


def test_textbook_two_sigma():
    t = wald_test(_Est(2.0, 1.0))
    # 2*Phi(-2) = 0.04550026...
    assert t.p_value == pytest.approx(0.04550026389635842, abs=1e-12)
    assert t.reject


def test_ci_construction():
    t = wald_test(_Est(3.0, 0.5), alpha=0.05)
    q = ndtri(0.975)
    assert t.ci_lower == pytest.approx(3.0 - q * 0.5, abs=1e-12)
    assert t.ci_upper == pytest.approx(3.0 + q * 0.5, abs=1e-12)


def test_boundary_consistency():
    q = ndtri(0.975)
    just_over = wald_test(_Est(q * (1 + 1e-9), 1.0))
    just_under = wald_test(_Est(q * (1 - 1e-9), 1.0))
    assert just_over.reject and just_over.p_value < 0.05
    assert not just_under.reject and just_under.p_value > 0.05
    # the CI excludes 0 exactly when the test rejects
    assert just_over.ci_lower > 0.0
    assert just_under.ci_lower < 0.0


@given(est=st.floats(-50, 50), se=st.floats(0.01, 20),
       alpha=st.floats(0.001, 0.5))
def test_reject_pvalue_ci_agree(est, se, alpha):
    t = wald_test(_Est(est, se), alpha=alpha)
    assert t.reject == (t.p_value < alpha)
    ci_excludes_zero = t.ci_lower > 0.0 or t.ci_upper < 0.0
    # strict inequality on |z| matches the open CI comparison up to float slop
    if abs(abs(t.z) - ndtri(1 - alpha / 2)) > 1e-9:
        assert t.reject == ci_excludes_zero


@given(c=st.floats(0.01, 100))
def test_scale_invariance(c):
    base = wald_test(_Est(1.7, 0.6))
    scaled = wald_test(_Est(1.7 * c, 0.6 * c))
    assert scaled.z == pytest.approx(base.z, rel=1e-12)
    assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)
    assert scaled.reject == base.reject


def test_two_sided_symmetry():
    plus = wald_test(_Est(2.3, 1.0))
    minus = wald_test(_Est(-2.3, 1.0))
    assert plus.p_value == minus.p_value
    assert plus.reject == minus.reject


def test_zero_se_rejected():
    for se in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ZeroSE):
            wald_test(_Est(1.0, se))


def test_alpha_validation():
    with pytest.raises(ConfigError):
        wald_test(_Est(1.0, 1.0), alpha=0.0)
    with pytest.raises(ConfigError):
        wald_test(_Est(1.0, 1.0), alpha=1.0)


def test_method_tag_flattens_enums():
    t = wald_test(_Est(1.0, 1.0, method=Method.H_POOLED))
    assert t.method == "h_pooled"
    t2 = wald_test(_Est(1.0, 1.0))
    assert t2.method == ""
