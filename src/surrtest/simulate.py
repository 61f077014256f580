"""Deterministic generators for the eight benchmark settings and the replication harness.

Reproducibility contract
------------------------
Every random draw comes from ``stream(master_seed, setting, context,
replication, tag)``, a counter-based Philox generator, where context is 0 for
the prior study, 1 for the current study, and 2 for truth-evaluation draws;
``tag`` enumerates the variable being drawn (0/1/2 = treated
covariate/surrogate/outcome-noise, 3/4/5 = the same for the control arm).
Normal noise is ``normal``, the inverse normal CDF of uniforms, so a draw
depends only on its stream position; gamma variates use numpy's standard
rejection sampler on a stream no other variable shares.
Keying by setting makes each setting's fixed baseline draw its own
realization, mirroring how independent per-scenario runs consume a seed.
Replications therefore never share state and any parallel execution order
yields byte-identical summaries.

Settings (prior covariate always U(0, 10) in both arms; N(a, b) below means
mean a and *variance* b; gamma means are shape*scale):

1  treated S ~ gamma(2.78, 2.78), control S ~ gamma(2.5, 2.5);
   y1 = 3.5+5s (w<5) / 16s (w>=5) + N(0,16); y0 = 3.2+4s / 15.95s + N(0,16);
   current covariate U(0, 4).
2  as 1 but treated S ~ gamma(2.66, 2.66); current covariate U(6, 10).
3  as 2 but the w<5 outcome pieces are the constants 3.5+5*7 and 3.2+4*6.25.
4  as 1 but the current study repeats the prior design (covariate U(0, 10)).
5  no heterogeneity: y1 = 3.5+5s + N(0,1), y0 = 3.2+4s + N(0,1), S as in 1,
   current = prior.
6  treated S ~ gamma(3, 3), control S ~ gamma(2.1, 2.2);
   y1 = 3.5+5s / 16s + N(0,1); y0 = 1+3s / 15.8s + N(0,1); current U(0, 4).
7  null: both arms S ~ gamma(2.5, 2.5), y = 3.2+4s + N(0,16); current = prior.
8  as 7 but current covariate U(0, 4).
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .data import StudyArm, TwoArmStudy, validate_paired
from .errors import ConfigError, OutOfSupport, UnknownSetting
from .estimators import Method, Mu0Surface, estimate_suite, fit_mu0_surface
from .inference import check_alpha, wald_test
from .smoothing import KernelKind, OobPolicy, SmoothingConfig, default_bandwidths

__all__ = [
    "SimConfig",
    "MethodSummary",
    "SimulationSummary",
    "generate_setting",
    "true_deltas",
    "tilde_delta_h",
    "run_simulation",
    "stream",
    "normal",
]

_CTX_PRIOR = 0
_CTX_CURRENT = 1
_CTX_TRUTH = 2

# Variable tags within a (context, replication) pair.
_TAG_W1, _TAG_S1, _TAG_E1, _TAG_W0, _TAG_S0, _TAG_E0 = range(6)

_PRIOR_W = (0.0, 10.0)


@dataclass(frozen=True)
class _ArmLaw:
    shape: float
    scale: float
    low_intercept: float
    low_slope: float
    high_slope: float  # slope of the w >= split piece (no intercept there)

    @property
    def s_mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class _SettingLaw:
    treated: _ArmLaw
    control: _ArmLaw
    noise_sd: float
    current_w: tuple
    split: Optional[float]  # None: the "low" piece applies at every w


_SETTINGS = {
    1: _SettingLaw(_ArmLaw(2.78, 2.78, 3.5, 5.0, 16.0),
                   _ArmLaw(2.5, 2.5, 3.2, 4.0, 15.95), 4.0, (0.0, 4.0), 5.0),
    2: _SettingLaw(_ArmLaw(2.66, 2.66, 3.5, 5.0, 16.0),
                   _ArmLaw(2.5, 2.5, 3.2, 4.0, 15.95), 4.0, (6.0, 10.0), 5.0),
    3: _SettingLaw(_ArmLaw(2.66, 2.66, 3.5 + 5.0 * 7.0, 0.0, 16.0),
                   _ArmLaw(2.5, 2.5, 3.2 + 4.0 * 6.25, 0.0, 15.95), 4.0, (6.0, 10.0), 5.0),
    4: _SettingLaw(_ArmLaw(2.78, 2.78, 3.5, 5.0, 16.0),
                   _ArmLaw(2.5, 2.5, 3.2, 4.0, 15.95), 4.0, (0.0, 10.0), 5.0),
    5: _SettingLaw(_ArmLaw(2.78, 2.78, 3.5, 5.0, 0.0),
                   _ArmLaw(2.5, 2.5, 3.2, 4.0, 0.0), 1.0, (0.0, 10.0), None),
    6: _SettingLaw(_ArmLaw(3.0, 3.0, 3.5, 5.0, 16.0),
                   _ArmLaw(2.1, 2.2, 1.0, 3.0, 15.8), 1.0, (0.0, 4.0), 5.0),
    7: _SettingLaw(_ArmLaw(2.5, 2.5, 3.2, 4.0, 0.0),
                   _ArmLaw(2.5, 2.5, 3.2, 4.0, 0.0), 4.0, (0.0, 10.0), None),
    8: _SettingLaw(_ArmLaw(2.5, 2.5, 3.2, 4.0, 0.0),
                   _ArmLaw(2.5, 2.5, 3.2, 4.0, 0.0), 4.0, (0.0, 4.0), None),
}


def _law(setting: int) -> _SettingLaw:
    try:  # as operator.index: no floats, so 1.0 is not setting 1
        return _SETTINGS[operator.index(setting)]
    except (KeyError, TypeError):
        raise UnknownSetting(f"setting must be an integer in 1..8, got {setting!r}") from None


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """The Philox generator of the stream `key` spawned from `master_seed`."""
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (hi - lo) * rng.random(n)


def normal(rng: np.random.Generator, sd: float, n: int) -> np.ndarray:
    """`n` draws of N(0, sd^2): the inverse normal CDF of `rng`'s next uniforms, kept
    inside (0, 1) by the offset and by a cap, as 1 - 2^-53 + 2^-54 rounds to 1.0."""
    u = rng.random(n) + 2.0**-54
    return sd * ndtri(np.minimum(u, np.nextafter(1.0, 0.0), out=u))


def _regression(law: _SettingLaw, arm: _ArmLaw, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    low = arm.low_intercept + arm.low_slope * s
    if law.split is None:
        return low
    return np.where(w < law.split, low, arm.high_slope * s)


def _draw_arm(law: _SettingLaw, arm: _ArmLaw, w_range, n: int,
              rng_w, rng_s, rng_e) -> StudyArm:
    w = _uniform(rng_w, w_range[0], w_range[1], n)
    s = rng_s.gamma(arm.shape, arm.scale, n)
    y = _regression(law, arm, s, w) + normal(rng_e, law.noise_sd, n)
    return StudyArm(s=s, w=w, y=y)


def generate_setting(setting: int, which: str, n1: int, n0: int,
                     master_seed: int, rep: int = 0) -> TwoArmStudy:
    """Draw one study (both arms, outcomes included) for a benchmark setting.

    `which` is "prior" or "current"; the two sides use disjoint stream
    contexts so prior and current draws never overlap even at equal rep.
    """
    law = _law(setting)
    if which == "prior":
        ctx, w_range = _CTX_PRIOR, _PRIOR_W
    elif which == "current":
        ctx, w_range = _CTX_CURRENT, law.current_w
    else:
        raise ValueError(f'which must be "prior" or "current", got {which!r}')
    treated = _draw_arm(law, law.treated, w_range, n1,
                        *(stream(master_seed, setting, ctx, rep, tag)
                          for tag in (_TAG_W1, _TAG_S1, _TAG_E1)))
    control = _draw_arm(law, law.control, w_range, n0,
                        *(stream(master_seed, setting, ctx, rep, tag)
                          for tag in (_TAG_W0, _TAG_S0, _TAG_E0)))
    return TwoArmStudy(treated=treated, control=control)


def true_deltas(setting: int) -> tuple:
    """(outcome-scale effect, covariate-aware transported effect), in closed form.

    Every benchmark setting mixes uniform covariates with gamma surrogates,
    so both population values follow from first moments; the null settings
    return (0, 0) exactly.
    """
    law = _law(setting)
    lo, hi = law.current_w
    if law.split is None:
        p_low = 1.0
    else:
        p_low = min(max((law.split - lo) / (hi - lo), 0.0), 1.0)

    def ey(arm: _ArmLaw) -> float:
        m = arm.s_mean
        return (p_low * (arm.low_intercept + arm.low_slope * m)
                + (1.0 - p_low) * arm.high_slope * m)

    delta = ey(law.treated) - ey(law.control)
    dm = law.treated.s_mean - law.control.s_mean
    ctl = law.control
    delta_h = dm * (p_low * ctl.low_slope + (1.0 - p_low) * ctl.high_slope)
    return delta, delta_h


def tilde_delta_h(surface: Mu0Surface, setting: int, truth_mc_draws: int,
                  master_seed: int) -> float:
    """Monte-Carlo value of the transported contrast with this surface held fixed.

    Draws (covariate, per-arm surrogates) from the *current-study* law and
    averages the surface difference; this is the estimand the fixed-prior
    replications actually target, and feeds the tilde bias/coverage columns.
    Both arms go through one surface call, treated draws first, so an
    OutOfSupport index of truth_mc_draws or above is a control draw.
    """
    law = _law(setting)
    lo, hi = law.current_w
    rng_w, rng_s1, rng_s0 = (stream(master_seed, setting, _CTX_TRUTH, 0, tag)
                             for tag in (_TAG_W1, _TAG_S1, _TAG_S0))
    s = np.concatenate([rng_s1.gamma(law.treated.shape, law.treated.scale, truth_mc_draws),
                        rng_s0.gamma(law.control.shape, law.control.scale, truth_mc_draws)])
    v, _ = surface.evaluate_many(s, np.tile(_uniform(rng_w, lo, hi, truth_mc_draws), 2))
    return float(v[:truth_mc_draws].mean() - v[truth_mc_draws:].mean())


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: a setting, sizes, and reproducibility knobs."""

    setting: int
    n1p: int = 1000
    n0p: int = 800
    n1: int = 300
    n0: int = 300
    reps: int = 500
    master_seed: int = 1
    alpha: float = 0.05
    fix_prior: bool = True
    truth_mc_draws: int = 10**6
    kernel: KernelKind = SmoothingConfig.kernel
    oob_policy: OobPolicy = SmoothingConfig.oob_policy
    threads: int = 1

    def __post_init__(self):
        _law(self.setting)
        SmoothingConfig(self.kernel, self.oob_policy)
        for name in ("n1p", "n0p", "n1", "n0", "reps", "truth_mc_draws", "threads"):
            size = getattr(self, name)
            if not hasattr(size, "__index__") or size < 1:  # as operator.index: no floats
                raise ConfigError(f"{name} must be a positive integer")
        check_alpha(self.alpha)


@dataclass(frozen=True)
class MethodSummary:
    """Aggregates for one estimator across replications, in summary.csv order.

    Power, coverage and effect size score each replication by its Wald test
    at the campaign's alpha.  bias fields are relative to their truth target
    except when that target is zero (null settings), where they are
    absolute.  Fields are None when no truth target applies to the method
    (for example coverage for the covariate-ignoring estimator, whose
    population target is not tracked).
    """

    method: str
    mean_estimate: float
    bias: Optional[float]
    bias_tilde: Optional[float]
    ese: float
    ase: float
    coverage: Optional[float]
    coverage_tilde: Optional[float]
    effect_size: float
    power: float


@dataclass(frozen=True)
class SimulationSummary:
    """Everything a results table needs for one (setting, config) campaign."""

    setting: int
    reps: int
    truth_delta: float
    truth_delta_h: float
    truth_tilde_delta_h: Optional[float]  # None when the prior is redrawn each rep
    methods: dict  # method name -> MethodSummary
    se_ratio_pooled_simple: float  # mean reported SE, pooled over simple
    mean_h0: float
    mean_h1: float
    h2: float  # h2-h4: the fixed prior's, or replication means when it is redrawn
    h3: float
    h4: float
    clamped_evals: int
    n_failed = 0  # not a result: a failure ends the campaign; bench/ reads it


def _bias_and_coverage(tests: list, mean_est: float, target: Optional[float]) -> tuple:
    """(bias, coverage) of one method's Wald tests against `target`.

    Coverage is the share of intervals containing the target; both are None
    without a target.
    """
    if target is None:
        return None, None
    bias = abs(mean_est) if target == 0.0 else abs(mean_est - target) / abs(target)
    return bias, float(np.mean([t.ci_lower <= target <= t.ci_upper for t in tests]))


def _one_replication(cfg: SimConfig, prior: Optional[TwoArmStudy],
                     scfg: SmoothingConfig, rep: int):
    """Replication `rep`'s (suite, bandwidths); its OutOfSupport names `rep`."""
    if prior is None:  # sensitivity mode: fresh prior every replication
        prior = generate_setting(cfg.setting, "prior", cfg.n1p, cfg.n0p,
                                 cfg.master_seed, rep=rep)
    current = generate_setting(cfg.setting, "current", cfg.n1, cfg.n0,
                               cfg.master_seed, rep=rep)
    paired = validate_paired(prior, current)
    bw = default_bandwidths(paired)
    try:
        return estimate_suite(paired, bw, scfg), bw
    except OutOfSupport as exc:
        raise OutOfSupport(f"replication {rep}: {exc}", indices=exc.indices) from None


def run_simulation(cfg: SimConfig) -> SimulationSummary:
    """Run the replication campaign and aggregate per-method results.

    With fix_prior (the default) one prior study is drawn from the master
    seed, one surface is implied, and the tilde target is computed once by
    Monte Carlo before any replication runs.  Replications run in order, in the
    calling thread or in a pool of cfg.threads > 1 threads, on their own streams,
    so any thread count gives the same result; the first OutOfSupport ends it.
    """
    scfg = SmoothingConfig(kernel=cfg.kernel, oob_policy=cfg.oob_policy)
    truth_delta, truth_delta_h = true_deltas(cfg.setting)

    prior = None
    tilde = None
    if cfg.fix_prior:
        prior = generate_setting(cfg.setting, "prior", cfg.n1p, cfg.n0p,
                                 cfg.master_seed, rep=0)
        # The tilde target needs the replications' surface; h2/h3 read only
        # the prior control arm, so pairing the prior with itself resolves them.
        paired = validate_paired(prior, prior)
        surface = fit_mu0_surface(paired, default_bandwidths(paired), scfg.kernel, scfg)
        try:
            tilde = tilde_delta_h(surface, cfg.setting, cfg.truth_mc_draws, cfg.master_seed)
        except OutOfSupport as exc:
            raise OutOfSupport(f"tilde target (fixed-prior Monte Carlo): {exc}; "
                               "--no-fix-prior skips it", indices=exc.indices) from None

    replicate = partial(_one_replication, cfg, prior, scfg)
    if cfg.threads == 1:  # a pool worker allocates in a second malloc arena, unseen by cProfile
        ok = [replicate(rep) for rep in range(cfg.reps)]
    else:  # map re-raises the lowest-index failure, as the serial loop meets it
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            ok = list(pool.map(replicate, range(cfg.reps)))

    methods = {}
    for method in Method:
        tests = [wald_test(suite[method], cfg.alpha) for suite, _ in ok]
        est = np.array([t.estimate for t in tests])
        mean_est = float(est.mean())
        if method is Method.GOLD:
            target, tilde_target = truth_delta, None
        elif method is Method.P:
            target, tilde_target = None, None
        else:
            target, tilde_target = truth_delta_h, tilde
        bias, coverage = _bias_and_coverage(tests, mean_est, target)
        bias_tilde, coverage_tilde = _bias_and_coverage(tests, mean_est, tilde_target)
        methods[method.value] = MethodSummary(
            method=method.value, mean_estimate=mean_est,
            bias=bias, bias_tilde=bias_tilde,
            ese=float(np.std(est, ddof=1)) if est.size > 1 else 0.0,
            ase=float(np.mean([t.se for t in tests])),
            coverage=coverage, coverage_tilde=coverage_tilde,
            effect_size=float(np.mean([t.z for t in tests])),
            power=float(np.mean([t.reject for t in tests])))

    def mean_h(name: str) -> float:
        return float(np.array([getattr(bw, name) for _, bw in ok]).mean())

    # a fixed prior gives every replication the same h2-h4, which a mean can
    # miss in the last bit; a redrawn prior gives each replication its own
    prior_h = {name: getattr(ok[0][1], name) if cfg.fix_prior else mean_h(name)
               for name in ("h2", "h3", "h4")}
    clamps = sum(suite[Method.H_POOLED].n_clamped + suite[Method.P].n_clamped
                 for suite, _ in ok)

    # efficiency of the pooled form, measured on the SE estimates the two
    # methods actually report (the simple SE never centers out the
    # covariate trend, so it is the wider one wherever the trend is real)
    ratio = methods[Method.H_POOLED.value].ase / methods[Method.H_SIMPLE.value].ase

    return SimulationSummary(
        setting=cfg.setting, reps=cfg.reps,
        truth_delta=truth_delta, truth_delta_h=truth_delta_h,
        truth_tilde_delta_h=tilde, methods=methods,
        se_ratio_pooled_simple=ratio,
        mean_h0=mean_h("h0"), mean_h1=mean_h("h1"), **prior_h,
        clamped_evals=clamps)
