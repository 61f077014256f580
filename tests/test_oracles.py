import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrtest.errors import ConfigError, NonPositiveDelta0
from surrtest.oracles import (
    DISCRETE_DELTA_P_NOTE,
    DiscreteMix,
    discrete_example,
    lognormal_counterexample_analytic,
    lognormal_counterexample_mc,
    lognormal_delta_p_linearized,
)


# --------------------------------------------------------- discrete model

def test_discrete_female_heavy_mix():
    t = discrete_example(DiscreteMix(p_female=0.95))
    assert t.delta == pytest.approx(38.95, abs=1e-12)
    assert t.delta_p == pytest.approx(44.5, abs=1e-12)
    assert t.delta_h == pytest.approx(17.95, abs=1e-12)


def test_discrete_male_heavy_mix():
    t = discrete_example(DiscreteMix(p_female=0.05))
    assert t.delta == pytest.approx(74.05, abs=1e-12)
    assert t.delta_p == pytest.approx(44.5, abs=1e-12)
    assert t.delta_h == pytest.approx(71.05, abs=1e-12)


def test_discrete_balanced_mix():
    t = discrete_example(DiscreteMix(p_female=0.5))
    assert t.delta == pytest.approx(56.5, abs=1e-12)
    assert t.delta_p == pytest.approx(44.5, abs=1e-12)
    assert t.delta_h == pytest.approx(44.5, abs=1e-12)


@given(p=st.floats(0, 1))
def test_discrete_closed_forms_affine_in_mix(p):
    t = discrete_example(DiscreteMix(p_female=p))
    assert t.delta == pytest.approx(p * 37.0 + (1 - p) * 76.0, rel=1e-14)
    assert t.delta_h == pytest.approx(p * 15.0 + (1 - p) * 74.0, rel=1e-14)
    assert t.delta_p == 44.5  # mix-independent by construction


@given(p=st.floats(0, 1))
def test_discrete_ordering_crosses_at_half(p):
    # delta_h falls below the mix-independent delta_p exactly for female-rich
    # mixes (p > 0.5), matching the heterogeneity story
    t = discrete_example(DiscreteMix(p_female=p))
    if p < 0.5:
        assert t.delta_h > t.delta_p
    elif p > 0.5:
        assert t.delta_h < t.delta_p


def test_discrete_mix_validation():
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ConfigError):
            DiscreteMix(p_female=bad)


def test_discrete_note_flags_circulated_value():
    # the 44.05 value in circulation is inconsistent with the pooled curve
    assert "44.05" in DISCRETE_DELTA_P_NOTE
    assert "44.5" in DISCRETE_DELTA_P_NOTE


# -------------------------------------------------------- lognormal model

def test_lognormal_analytic_values():
    t = lognormal_counterexample_analytic(0.5)
    scale = math.exp(2.5)
    assert t.delta == pytest.approx(scale * (math.exp(0.5) - 1), rel=1e-15)
    assert t.delta_h == t.delta
    assert t.delta_p == pytest.approx(scale * (math.exp(0.75) - 1), rel=1e-15)
    # spot values, computed independently
    assert t.delta == pytest.approx(7.903042962484195, abs=1e-12)
    assert t.delta_p == pytest.approx(13.607845956489589, abs=1e-12)


@given(d=st.floats(0.01, 3.0))
def test_lognormal_ignoring_covariate_overshoots(d):
    t = lognormal_counterexample_analytic(d)
    assert t.delta_p > t.delta > 0.0


def test_linearized_variant_goes_negative():
    # the dropped-exponential variant is impossible as a contrast of positive
    # means for small effects; that is what the MC adjudication leans on
    assert lognormal_delta_p_linearized(0.5) < 0.0
    assert lognormal_delta_p_linearized(2.0/3.0) == pytest.approx(0.0, abs=1e-12)
    assert lognormal_delta_p_linearized(1.0) > 0.0


def test_lognormal_validation():
    for bad in (0.0, -0.5, math.nan):
        with pytest.raises(NonPositiveDelta0):
            lognormal_counterexample_analytic(bad)
        with pytest.raises(NonPositiveDelta0):
            lognormal_delta_p_linearized(bad)
        with pytest.raises(NonPositiveDelta0):
            lognormal_counterexample_mc(bad, 10_000)


def test_oversized_delta0_is_a_named_error():
    # the closed forms overflow a double past delta0 = 471.52; the Monte
    # Carlo's squared contrasts do so near 231.4 at seed 0 and 1000 draws
    lognormal_counterexample_analytic(471.5)
    lognormal_counterexample_mc(231.4, 1000, master_seed=0)
    for bad in (471.53, 500.0, 1e300):
        for oracle in (lognormal_counterexample_analytic, lognormal_delta_p_linearized,
                       lambda d: lognormal_counterexample_mc(d, 1000)):
            with pytest.raises(ConfigError, match="delta0"):
                oracle(bad)
    for bad in (231.5, 300.0, 471.5):
        with pytest.raises(ConfigError, match="delta0"):
            lognormal_counterexample_mc(bad, 1000, master_seed=0)


def test_mc_requires_enough_draws():
    with pytest.raises(ConfigError):
        lognormal_counterexample_mc(0.5, 999)


def test_mc_agrees_with_analytic_small_run():
    t = lognormal_counterexample_analytic(0.5)
    mc = lognormal_counterexample_mc(0.5, 200_000, master_seed=11)
    assert abs(mc.delta - t.delta) <= 3 * mc.delta_se
    assert abs(mc.delta_h - t.delta_h) <= 3 * mc.delta_h_se
    assert abs(mc.delta_p - t.delta_p) <= 3 * mc.delta_p_se
    assert mc.delta_p > mc.delta


def test_mc_determinism_and_seed_sensitivity():
    a = lognormal_counterexample_mc(0.5, 20_000, master_seed=1)
    b = lognormal_counterexample_mc(0.5, 20_000, master_seed=1)
    c = lognormal_counterexample_mc(0.5, 20_000, master_seed=2)
    assert a == b
    assert a != c


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_mc_blocks_are_independent_draws(seed):
    # delta and delta_h share a definition here (the exact 2-d transform of
    # S*W is S*W itself) but come from separate draw blocks, so they agree
    # statistically, never bitwise.  No 1/sqrt(n) check on the realized SEs:
    # the outcome's fourth moment is e^20-ish, so sample SDs at feasible n
    # are dominated by the single largest draw and do not scale cleanly.
    mc = lognormal_counterexample_mc(0.5, 5_000, master_seed=seed)
    assert mc.delta != mc.delta_h
    assert abs(mc.delta - mc.delta_h) < 20 * (mc.delta_se + mc.delta_h_se)
    assert mc.delta_se > 0 and mc.delta_p_se > 0 and mc.delta_h_se > 0
