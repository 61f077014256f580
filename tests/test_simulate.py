import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from surrtest import simulate, smoothing
from surrtest.data import validate_paired
from surrtest.errors import ConfigError, OutOfSupport, UnknownSetting, ZeroSE
from surrtest.estimators import Method, Mu0Surface, fit_mu0_surface
from surrtest.simulate import (
    SimConfig,
    generate_setting,
    run_simulation,
    tilde_delta_h,
    true_deltas,
)
from surrtest.smoothing import (
    KernelKind,
    OobPolicy,
    SmoothingConfig,
    default_bandwidths,
    rule_of_thumb_bandwidth,
)

FAST = dict(reps=6, truth_mc_draws=20_000)


# ------------------------------------------------------------- generators

def test_unknown_setting():
    with pytest.raises(UnknownSetting):
        generate_setting(0, "prior", 10, 10, 1)
    with pytest.raises(UnknownSetting):
        generate_setting(9, "prior", 10, 10, 1)
    with pytest.raises(UnknownSetting):
        true_deltas("one")
    with pytest.raises(UnknownSetting):
        SimConfig(setting=11)
    # a setting is an integer, as the sizes are: 1.0 is not setting 1
    with pytest.raises(UnknownSetting):
        generate_setting(1.0, "prior", 10, 10, 1)
    with pytest.raises(UnknownSetting):
        true_deltas(1.0)
    assert true_deltas(np.int64(1)) == true_deltas(1)
    np.testing.assert_array_equal(generate_setting(np.int64(1), "prior", 10, 10, 1).treated.y,
                                  generate_setting(1, "prior", 10, 10, 1).treated.y)


def test_which_validation():
    with pytest.raises(ValueError):
        generate_setting(1, "future", 10, 10, 1)


def test_sizes_and_outcomes():
    study = generate_setting(1, "prior", 23, 17, master_seed=5)
    assert study.treated.n == 23
    assert study.control.n == 17
    assert study.treated.has_outcome and study.control.has_outcome


def test_covariate_supports():
    prior = generate_setting(1, "prior", 500, 500, master_seed=2)
    cur = generate_setting(1, "current", 500, 500, master_seed=2)
    for arm in (prior.treated, prior.control):
        assert arm.w.min() >= 0.0 and arm.w.max() <= 10.0
    for arm in (cur.treated, cur.control):
        assert arm.w.min() >= 0.0 and arm.w.max() <= 4.0
    cur2 = generate_setting(2, "current", 500, 500, master_seed=2)
    assert cur2.treated.w.min() >= 6.0 and cur2.treated.w.max() <= 10.0


def test_surrogate_moments():
    # gamma(shape, scale): mean 7.7284 treated / 6.25 control in setting 1
    prior = generate_setting(1, "prior", 20_000, 20_000, master_seed=3)
    assert prior.treated.s.mean() == pytest.approx(2.78 * 2.78, abs=0.15)
    assert prior.control.s.mean() == pytest.approx(2.5 * 2.5, abs=0.12)
    assert prior.treated.s.min() > 0.0


def test_outcome_regression_with_split():
    # setting 6: below the split y = 1 + 3 s + noise(sd 1), above y = 15.8 s
    study = generate_setting(6, "prior", 4000, 4000, master_seed=4)
    arm = study.control
    low = arm.w < 5.0
    resid_low = arm.y[low] - (1.0 + 3.0 * arm.s[low])
    resid_high = arm.y[~low] - 15.8 * arm.s[~low]
    assert abs(resid_low.mean()) < 0.1
    assert resid_low.std(ddof=1) == pytest.approx(1.0, abs=0.05)
    assert abs(resid_high.mean()) < 0.1


def test_streams_disjoint():
    a = generate_setting(5, "prior", 50, 50, master_seed=1, rep=0)
    b = generate_setting(5, "prior", 50, 50, master_seed=1, rep=1)
    c = generate_setting(5, "current", 50, 50, master_seed=1, rep=0)
    d = generate_setting(4, "prior", 50, 50, master_seed=1, rep=0)
    e = generate_setting(5, "prior", 50, 50, master_seed=2, rep=0)
    base = a.treated.s
    for other in (b, c, d, e):
        assert not np.array_equal(base, other.treated.s)
    # and the same key reproduces bitwise
    a2 = generate_setting(5, "prior", 50, 50, master_seed=1, rep=0)
    np.testing.assert_array_equal(a.treated.s, a2.treated.s)
    np.testing.assert_array_equal(a.control.y, a2.control.y)


class _TopUniforms:
    """A generator whose every uniform is the largest one, 1 - 2^-53."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


def test_normal_draws_stay_finite_at_the_top_uniform():
    assert np.isfinite(simulate.normal(_TopUniforms(), 4.0, 3)).all()


def test_normal_is_the_offset_inverse_cdf_bit_for_bit():
    u = simulate.stream(1, 5, 0, 0, 2).random(10_000)
    drawn = simulate.normal(simulate.stream(1, 5, 0, 0, 2), 4.0, 10_000)
    np.testing.assert_array_equal(drawn, 4.0 * ndtri(u + 2.0**-54))


# ------------------------------------------------------------ true values

def test_true_deltas_closed_forms():
    # independent arithmetic: uniform covariate mixes the two outcome pieces
    assert true_deltas(1) == (pytest.approx(13.942, abs=1e-9),
                              pytest.approx(5.9136, abs=1e-9))
    # setting 2: 16*2.66^2 - 15.95*2.5^2 = 13.5221
    assert true_deltas(2) == (pytest.approx(13.5221, abs=1e-9),
                              pytest.approx(13.16832, abs=1e-9))
    assert true_deltas(3) == true_deltas(2)
    # setting 4: even mix of the two pieces, (13.942 + 23.9669) / 2
    assert true_deltas(4) == (pytest.approx(18.95445, abs=1e-9),
                              pytest.approx(14.74704, abs=1e-9))
    assert true_deltas(5) == (pytest.approx(13.942, abs=1e-9),
                              pytest.approx(5.9136, abs=1e-9))
    assert true_deltas(6) == (pytest.approx(33.64, abs=1e-9),
                              pytest.approx(13.14, abs=1e-9))
    assert true_deltas(7) == (0.0, 0.0)
    assert true_deltas(8) == (0.0, 0.0)


@pytest.mark.slow
def test_tilde_approaches_population_value_with_big_prior():
    # with a large prior study the fitted surface is near the population one
    prior = generate_setting(5, "prior", 4000, 8000, master_seed=1)
    pc = prior.control
    cfg = SmoothingConfig(kernel=KernelKind.EPANECHNIKOV,
                          oob_policy=OobPolicy.CLAMP_TO_NEAREST)
    surface = Mu0Surface(
        s=pc.s, w=pc.w, y=pc.y,
        h_s=rule_of_thumb_bandwidth(pc.s, -0.4, 2.0),
        h_w=rule_of_thumb_bandwidth(pc.w, -0.4, 2.0), cfg=cfg)
    tilde = tilde_delta_h(surface, 5, 100_000, master_seed=1)
    assert tilde == pytest.approx(5.9136, abs=0.35)


def test_tilde_holds_few_doubles_per_draw():
    # per draw a call holds its 2 surrogates and 2 covariates, which the
    # smoother does not copy, and 2 smoothed values; each arm's own draws
    # live only until they are joined
    prior = generate_setting(1, "prior", 1000, 800, master_seed=1)
    paired = validate_paired(prior, prior)
    surface = fit_mu0_surface(paired, default_bandwidths(paired),
                              KernelKind.EPANECHNIKOV, SmoothingConfig())
    draws = 20_000
    tracemalloc.start()
    try:
        tilde_delta_h(surface, 1, draws, master_seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (smoothing._BLOCK_DOUBLES + 10 * draws) * 8


# --------------------------------------------------------------- campaign

def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(setting=1, reps=0)
    with pytest.raises(ConfigError):
        SimConfig(setting=1, n1=-5)
    with pytest.raises(ConfigError):
        SimConfig(setting=1, alpha=1.5)
    with pytest.raises(ConfigError, match="threads"):
        SimConfig(setting=1, threads=-3)
    with pytest.raises(ConfigError, match="threads"):
        SimConfig(setting=1, threads=0)
    with pytest.raises(ConfigError, match="truth_mc_draws"):
        SimConfig(setting=1, truth_mc_draws=0)
    with pytest.raises(ConfigError, match="n1 must be a positive integer"):
        SimConfig(setting=1, n1=30.5)
    with pytest.raises(ConfigError, match="reps must be a positive integer"):
        SimConfig(setting=1, reps=2.0)
    assert SimConfig(setting=1, n1=np.int64(30)).n1 == 30  # numpy integers pass
    with pytest.raises(UnknownSetting):
        SimConfig(setting=1.0)
    assert SimConfig(setting=np.int64(1)).setting == 1
    # the smoothing policy is an enum member, never a string that would pass
    # every `is OobPolicy.ERROR` test as a clamp
    with pytest.raises(ConfigError, match="oob_policy must be of type OobPolicy, got 'error'"):
        SimConfig(setting=1, oob_policy="error")
    with pytest.raises(ConfigError, match="kernel must be of type KernelKind, got 'gaussian'"):
        SimConfig(setting=1, kernel="gaussian")
    with pytest.raises(ConfigError, match="oob_policy"):
        SmoothingConfig(oob_policy="error")
    with pytest.raises(ConfigError, match="kernel"):
        SmoothingConfig(kernel="gaussian")
    prior = generate_setting(1, "prior", 100, 80, master_seed=1)
    paired = validate_paired(prior, prior)
    with pytest.raises(ConfigError, match="kernel"):
        fit_mu0_surface(paired, default_bandwidths(paired), "gaussian", SmoothingConfig())


def test_summary_shape():
    s = run_simulation(SimConfig(setting=5, **FAST))
    assert set(s.methods) == {"gold", "p", "h_pooled", "h_simple",
                              "h_twostage", "h_aug"}
    assert s.reps == 6 and s.n_failed == 0
    assert s.truth_delta == pytest.approx(13.942, abs=1e-9)
    assert math.isfinite(s.truth_tilde_delta_h)
    assert s.clamped_evals >= 0
    assert 0.5 < s.se_ratio_pooled_simple < 1.5
    for name, m in s.methods.items():
        assert math.isfinite(m.mean_estimate)
        assert m.ase > 0
        assert 0.0 <= m.power <= 1.0
    # the covariate-ignoring estimator has no tracked truth target
    assert s.methods["p"].bias is None
    assert s.methods["p"].coverage is None
    assert s.methods["gold"].bias is not None
    assert s.methods["h_pooled"].bias_tilde is not None


def test_determinism_across_runs_and_threads():
    base = run_simulation(SimConfig(setting=5, **FAST))
    again = run_simulation(SimConfig(setting=5, **FAST))
    threaded = run_simulation(SimConfig(setting=5, threads=4, **FAST))
    for other in (again, threaded):
        assert dataclasses.asdict(base) == dataclasses.asdict(other)


def test_single_rep_has_zero_ese():
    s = run_simulation(SimConfig(setting=5, reps=1, truth_mc_draws=5_000))
    assert s.methods["h_pooled"].ese == 0.0
    assert s.methods["gold"].ese == 0.0


def test_refreshed_prior_mode():
    s = run_simulation(SimConfig(setting=5, fix_prior=False, **FAST))
    assert s.truth_tilde_delta_h is None
    assert s.methods["h_pooled"].bias_tilde is None
    assert s.methods["h_pooled"].coverage_tilde is None
    assert s.methods["h_pooled"].bias is not None


def test_reported_prior_bandwidths_are_the_ones_used():
    # a redrawn prior gives each replication its own h2-h4, so the report
    # gives their mean; a fixed prior gives them all its own, bit for bit
    def bandwidths(rep, prior_rep):
        prior = generate_setting(5, "prior", 1000, 800, 1, rep=prior_rep)
        current = generate_setting(5, "current", 300, 300, 1, rep=rep)
        return default_bandwidths(validate_paired(prior, current))

    for fix_prior in (False, True):
        s = run_simulation(SimConfig(setting=5, fix_prior=fix_prior, **FAST))
        used = [bandwidths(rep, 0 if fix_prior else rep) for rep in range(FAST["reps"])]
        for name in ("h2", "h3", "h4"):
            values = [getattr(bw, name) for bw in used]
            expected = values[0] if fix_prior else float(np.mean(values))
            assert getattr(s, name) == expected, (fix_prior, name)
            assert fix_prior or getattr(s, name) != values[0], name
        assert s.mean_h0 == float(np.mean([bw.h0 for bw in used]))
        assert s.mean_h1 == float(np.mean([bw.h1 for bw in used]))


def test_zero_se_in_a_replication_raises(monkeypatch):
    # each replication is scored by its Wald test, which has no z for a
    # zero SE; the campaign must fail instead of averaging inf into effect_size
    real = simulate.estimate_suite

    def zero_simple_se(*args):
        suite = real(*args)
        suite[Method.H_SIMPLE] = dataclasses.replace(suite[Method.H_SIMPLE], se=0.0)
        return suite

    monkeypatch.setattr(simulate, "estimate_suite", zero_simple_se)
    with pytest.raises(ZeroSE):
        run_simulation(SimConfig(setting=5, **FAST))


def test_tilde_surface_uses_replication_bandwidths(monkeypatch):
    # the fixed-prior tilde target must come from the surface every
    # replication transports through: same h2/h3, same kernel
    seen = []

    def capture(surface, *args):
        seen.append(surface)
        return tilde_delta_h(surface, *args)

    monkeypatch.setattr(simulate, "tilde_delta_h", capture)
    for kernel in KernelKind:
        s = run_simulation(SimConfig(setting=1, kernel=kernel, **FAST))
        surface = seen.pop()
        assert (surface.h_s, surface.h_w) == (s.h2, s.h3)
        assert surface.cfg.kernel is kernel
    assert not seen


def test_error_policy_fails_on_tail_extrapolation():
    # heavy treated surrogate tail in setting 1 lands outside the prior
    # control kernel support often enough to break the campaign fast
    cfg = SimConfig(setting=1, reps=30, truth_mc_draws=2_000,
                    oob_policy=OobPolicy.ERROR)
    with pytest.raises(OutOfSupport):
        run_simulation(cfg)


def test_one_thread_runs_replications_in_the_caller(monkeypatch):
    # threads=1 builds no pool: a pool worker allocates in a second malloc
    # arena, and a profiler of the caller sees only its lock
    real = simulate.estimate_suite
    seen = []

    def record(*args):
        seen.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(simulate, "estimate_suite", record)
    run_simulation(SimConfig(setting=5, **FAST))
    assert seen == [threading.get_ident()] * FAST["reps"]


def test_first_failed_replication_ends_the_campaign(monkeypatch):
    # with a fresh prior every setting-1 replication fails under the error
    # policy; the campaign stops at replication 0 and names it, and a pool
    # re-raises that same failure
    real = simulate.estimate_suite
    calls = []

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simulate, "estimate_suite", count)
    cfg = SimConfig(setting=1, reps=40, fix_prior=False, oob_policy=OobPolicy.ERROR)
    with pytest.raises(OutOfSupport) as serial:
        run_simulation(cfg)
    assert len(calls) == 1
    assert str(serial.value).startswith("replication 0: surface transport: ")
    assert len(serial.value.indices) == 50  # the first failing stage's queries
    with pytest.raises(OutOfSupport) as pooled:
        run_simulation(dataclasses.replace(cfg, threads=2))
    assert str(pooled.value) == str(serial.value)
    np.testing.assert_array_equal(pooled.value.indices, serial.value.indices)


def test_master_seed_changes_results():
    a = run_simulation(SimConfig(setting=5, master_seed=1, **FAST))
    b = run_simulation(SimConfig(setting=5, master_seed=2, **FAST))
    assert a.methods["h_pooled"].mean_estimate != b.methods["h_pooled"].mean_estimate


def test_null_settings_have_zero_truth():
    s = run_simulation(SimConfig(setting=7, **FAST))
    assert s.truth_delta == 0.0
    assert s.truth_delta_h == 0.0
    # fixed surface pushed through identical surrogate laws: the tilde
    # target is Monte-Carlo noise around zero
    assert abs(s.truth_tilde_delta_h) < 0.5
