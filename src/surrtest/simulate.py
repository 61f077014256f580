"""Deterministic generators for the eight benchmark settings and the replication harness.

Reproducibility contract
------------------------
Every random draw comes from a counter-based Philox generator keyed by
``SeedSequence(master_seed, spawn_key=(setting, context, replication, tag))``
where context is 0 for the prior study, 1 for the current study, and 2 for
truth-evaluation draws; ``tag`` enumerates the variable being drawn
(0/1/2 = treated covariate/surrogate/outcome-noise, 3/4/5 = the same for the
control arm).  Normal noise is drawn through the inverse normal CDF applied
to uniforms, so a draw depends only on its stream position; gamma variates
use numpy's standard rejection sampler on a stream no other variable shares.
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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .data import StudyArm, TwoArmStudy, validate_paired
from .errors import ConfigError, OutOfSupport, UnknownSetting
from .estimators import Method, Mu0Surface, estimate_suite
from .inference import check_alpha, normal_quantile
from .smoothing import (
    BANDWIDTH_RECIPE,
    KernelKind,
    OobPolicy,
    SmoothingConfig,
    default_bandwidths,
)

__all__ = [
    "SimConfig",
    "MethodSummary",
    "SimulationSummary",
    "generate_setting",
    "true_deltas",
    "tilde_delta_h",
    "run_simulation",
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
    try:
        return _SETTINGS[setting]
    except (KeyError, TypeError):
        raise UnknownSetting(f"setting must be an integer in 1..8, got {setting!r}") from None


def _stream(master_seed: int, setting: int, context: int, rep: int,
            tag: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(setting, context, rep, tag))
    return np.random.Generator(np.random.Philox(seq))


def _uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (hi - lo) * rng.random(n)


def _normal(rng: np.random.Generator, sd: float, n: int) -> np.ndarray:
    # Inverse-CDF transform; the tiny offset keeps the argument strictly
    # inside (0, 1) without biasing the grid of representable uniforms.
    return sd * ndtri(rng.random(n) + 2.0**-54)


def _regression(law: _SettingLaw, arm: _ArmLaw, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    low = arm.low_intercept + arm.low_slope * s
    if law.split is None:
        return low
    return np.where(w < law.split, low, arm.high_slope * s)


def _draw_arm(law: _SettingLaw, arm: _ArmLaw, w_range, n: int,
              rng_w, rng_s, rng_e) -> StudyArm:
    w = _uniform(rng_w, w_range[0], w_range[1], n)
    s = rng_s.gamma(arm.shape, arm.scale, n)
    y = _regression(law, arm, s, w) + _normal(rng_e, law.noise_sd, n)
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
                        _stream(master_seed, setting, ctx, rep, _TAG_W1),
                        _stream(master_seed, setting, ctx, rep, _TAG_S1),
                        _stream(master_seed, setting, ctx, rep, _TAG_E1))
    control = _draw_arm(law, law.control, w_range, n0,
                        _stream(master_seed, setting, ctx, rep, _TAG_W0),
                        _stream(master_seed, setting, ctx, rep, _TAG_S0),
                        _stream(master_seed, setting, ctx, rep, _TAG_E0))
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
    if setting in (7, 8):
        return 0.0, 0.0
    return delta, delta_h


def tilde_delta_h(surface: Mu0Surface, setting: int, truth_mc_draws: int,
                  master_seed: int) -> float:
    """Monte-Carlo value of the transported contrast with this surface held fixed.

    Draws (covariate, per-arm surrogates) from the *current-study* law and
    averages the surface difference; this is the estimand the fixed-prior
    replications actually target, and feeds the tilde bias/coverage columns.
    """
    law = _law(setting)
    lo, hi = law.current_w
    rng_w = _stream(master_seed, setting, _CTX_TRUTH, 0, _TAG_W1)
    rng_s1 = _stream(master_seed, setting, _CTX_TRUTH, 0, _TAG_S1)
    rng_s0 = _stream(master_seed, setting, _CTX_TRUTH, 0, _TAG_S0)
    w = _uniform(rng_w, lo, hi, truth_mc_draws)
    s1 = rng_s1.gamma(law.treated.shape, law.treated.scale, truth_mc_draws)
    s0 = rng_s0.gamma(law.control.shape, law.control.scale, truth_mc_draws)
    v1, _ = surface.evaluate_many(s1, w)
    v0, _ = surface.evaluate_many(s0, w)
    return float(v1.mean() - v0.mean())


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
    kernel: KernelKind = KernelKind.EPANECHNIKOV
    oob_policy: OobPolicy = OobPolicy.CLAMP_TO_NEAREST
    threads: int = 1

    def __post_init__(self):
        _law(self.setting)
        for name in ("n1p", "n0p", "n1", "n0", "reps", "truth_mc_draws", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        check_alpha(self.alpha)

    def smoothing(self) -> SmoothingConfig:
        return SmoothingConfig(kernel=self.kernel, oob_policy=self.oob_policy)


@dataclass(frozen=True)
class MethodSummary:
    """Aggregates for one estimator across replications.

    bias fields are relative to their truth target except when that target
    is zero (null settings), where they are absolute.  Fields are None when
    no truth target applies to the method (for example coverage for the
    covariate-ignoring estimator, whose population target is not tracked).
    """

    method: str
    mean_estimate: float
    ese: float
    ase: float
    effect_size: float
    power: float
    bias: Optional[float] = None
    bias_tilde: Optional[float] = None
    coverage: Optional[float] = None
    coverage_tilde: Optional[float] = None


@dataclass(frozen=True)
class SimulationSummary:
    """Everything a results table needs for one (setting, config) campaign."""

    setting: int
    reps: int
    n_failed: int
    truth_delta: float
    truth_delta_h: float
    truth_tilde_delta_h: float  # NaN when the prior is redrawn each rep
    methods: dict = field(default_factory=dict)  # method name -> MethodSummary
    se_ratio_pooled_simple: float = float("nan")  # mean reported SE, pooled over simple
    mean_h0: float = float("nan")
    mean_h1: float = float("nan")
    h2: float = float("nan")
    h3: float = float("nan")
    h4: float = float("nan")
    clamped_evals: int = 0


def _bias(mean_est: float, target: float) -> float:
    if target == 0.0:
        return abs(mean_est)
    return abs(mean_est - target) / abs(target)


_RECORDED = (Method.GOLD, Method.P, Method.H_POOLED, Method.H_SIMPLE,
             Method.H_TWOSTAGE, Method.H_AUG)


def _one_replication(cfg: SimConfig, rep: int, prior: Optional[TwoArmStudy],
                     scfg: SmoothingConfig):
    if prior is None:  # sensitivity mode: fresh prior every replication
        prior = generate_setting(cfg.setting, "prior", cfg.n1p, cfg.n0p,
                                 cfg.master_seed, rep=rep)
    current = generate_setting(cfg.setting, "current", cfg.n1, cfg.n0,
                               cfg.master_seed, rep=rep)
    paired = validate_paired(prior, current)
    bw = default_bandwidths(paired, scfg.kernel)
    suite = estimate_suite(paired, bw, scfg)
    return suite, bw


def run_simulation(cfg: SimConfig) -> SimulationSummary:
    """Run the replication campaign and aggregate per-method results.

    With fix_prior (the default) one prior study is drawn from the master
    seed, one surface is implied, and the tilde target is computed once by
    Monte Carlo before any replication runs.  Aggregation reads per-rep slots
    in index order, so the result is identical for any thread count.
    """
    scfg = cfg.smoothing()
    truth_delta, truth_delta_h = true_deltas(cfg.setting)

    prior = None
    tilde = float("nan")
    if cfg.fix_prior:
        prior = generate_setting(cfg.setting, "prior", cfg.n1p, cfg.n0p,
                                 cfg.master_seed, rep=0)
        # The tilde target needs the surface the replications will use; its
        # bandwidths h2/h3 depend only on the prior control arm.
        pc = prior.control
        rules = {rule.name: rule for rule in BANDWIDTH_RECIPE}
        surface = Mu0Surface(
            s=pc.s, w=pc.w, y=pc.y,
            h_s=rules["h2"].resolve(pc), h_w=rules["h3"].resolve(pc),
            kernel=scfg.kernel, cfg=scfg)
        tilde = tilde_delta_h(surface, cfg.setting, cfg.truth_mc_draws, cfg.master_seed)

    results = [None] * cfg.reps
    failures = [None] * cfg.reps

    def work(rep: int) -> None:
        try:
            results[rep] = _one_replication(cfg, rep, prior, scfg)
        except OutOfSupport as exc:
            failures[rep] = str(exc)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(work, range(cfg.reps)))
    else:
        for rep in range(cfg.reps):
            work(rep)

    n_failed = sum(f is not None for f in failures)
    if n_failed > 0.01 * cfg.reps:
        raise OutOfSupport(
            f"{n_failed} of {cfg.reps} replications failed kernel-support checks; "
            f"first failure: {next(f for f in failures if f)}")

    ok = [r for r in results if r is not None]
    q = normal_quantile(1.0 - cfg.alpha / 2.0)

    methods = {}
    for method in _RECORDED:
        est = np.array([suite[method].estimate for suite, _ in ok])
        se = np.array([suite[method].se for suite, _ in ok])
        mean_est = float(est.mean())
        ese = float(np.std(est, ddof=1)) if est.size > 1 else 0.0
        ase = float(se.mean())
        effect = float((est / se).mean())
        power = float((np.abs(est / se) > q).mean())

        bias = bias_t = cov = cov_t = None
        if method is Method.GOLD:
            bias = _bias(mean_est, truth_delta)
            cov = float(((est - q * se <= truth_delta)
                         & (truth_delta <= est + q * se)).mean())
        elif method is not Method.P:
            bias = _bias(mean_est, truth_delta_h)
            cov = float(((est - q * se <= truth_delta_h)
                         & (truth_delta_h <= est + q * se)).mean())
            if not math.isnan(tilde):
                bias_t = _bias(mean_est, tilde)
                cov_t = float(((est - q * se <= tilde)
                               & (tilde <= est + q * se)).mean())
        methods[method.value] = MethodSummary(
            method=method.value, mean_estimate=mean_est, ese=ese, ase=ase,
            effect_size=effect, power=power, bias=bias, bias_tilde=bias_t,
            coverage=cov, coverage_tilde=cov_t)

    h0s = np.array([bw.h0 for _, bw in ok])
    h1s = np.array([bw.h1 for _, bw in ok])
    bw_any = ok[0][1]
    clamps = sum(suite[Method.H_POOLED].n_clamped + suite[Method.P].n_clamped
                 for suite, _ in ok)

    # efficiency of the pooled form, measured on the SE estimates the two
    # methods actually report (the simple SE never centers out the
    # covariate trend, so it is the wider one wherever the trend is real)
    simple_ase = methods[Method.H_SIMPLE.value].ase
    pooled_ase = methods[Method.H_POOLED.value].ase
    ratio = pooled_ase / simple_ase if simple_ase else float("nan")

    return SimulationSummary(
        setting=cfg.setting, reps=cfg.reps, n_failed=n_failed,
        truth_delta=truth_delta, truth_delta_h=truth_delta_h,
        truth_tilde_delta_h=tilde, methods=methods,
        se_ratio_pooled_simple=ratio,
        mean_h0=float(h0s.mean()), mean_h1=float(h1s.mean()),
        h2=bw_any.h2, h3=bw_any.h3, h4=bw_any.h4,
        clamped_evals=clamps)
