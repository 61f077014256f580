"""Kernel functions, rule-of-thumb bandwidths, and Nadaraya-Watson smoothers.

This module is the numeric core every estimator builds on.  All smoothers are
plain kernel-weighted averages; queries whose kernel neighborhood carries no
mass are handled by an explicit out-of-bounds policy instead of silently
returning NaN.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpread, NonFiniteValue, NonPositiveBandwidth, OutOfSupport

__all__ = [
    "KernelKind",
    "OobPolicy",
    "Bandwidths",
    "SmoothingConfig",
    "BandwidthRule",
    "BANDWIDTH_RECIPE",
    "sample_spread",
    "rule_of_thumb_bandwidth",
    "default_bandwidths",
    "nw_curve_many",
    "nw_surface_many",
]

# Queries per block in the vectorized evaluators; bounds peak memory at
# roughly _CHUNK * n_data doubles per intermediate array.
_CHUNK = 4096

# Minimum admissible summed kernel mass of a query (raw kernel sums, no 1/h);
# below it the out-of-bounds policy applies.
_DENOM_FLOOR = 1e-10

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class KernelKind(enum.Enum):
    """Supported kernel shapes: both symmetric densities integrating to 1."""

    EPANECHNIKOV = "epanechnikov"
    GAUSSIAN = "gaussian"


class OobPolicy(enum.Enum):
    """What to do when a query point has (numerically) no kernel mass.

    ERROR aborts the evaluation; CLAMP_TO_NEAREST re-evaluates at the nearest
    observed data point, which always carries its own kernel mass.
    """

    ERROR = "error"
    CLAMP_TO_NEAREST = "clamp"


@dataclass(frozen=True)
class Bandwidths:
    """The five bandwidths used across the estimators.

    h0, h1  current-study covariate smoothing (control, treated arm);
    h2, h3  prior-study surrogate and covariate smoothing for the 2-D surface;
    h4      prior-study surrogate smoothing for the 1-D curve.
    """

    h0: float
    h1: float
    h2: float
    h3: float
    h4: float

    def __post_init__(self):
        for name in ("h0", "h1", "h2", "h3", "h4"):
            _check_bandwidth(getattr(self, name), name)


@dataclass(frozen=True)
class SmoothingConfig:
    """Evaluation policy shared by all smoother calls."""

    kernel: KernelKind = KernelKind.EPANECHNIKOV
    oob_policy: OobPolicy = OobPolicy.ERROR


def _profile(kind: KernelKind, u: np.ndarray) -> np.ndarray:
    """K(u) for an array of standardized distances."""
    if kind is KernelKind.EPANECHNIKOV:
        out = 0.75 * (1.0 - u * u)
        return np.where(np.abs(u) <= 1.0, out, 0.0)
    if kind is KernelKind.GAUSSIAN:
        return np.exp(-0.5 * u * u) / _SQRT_2PI
    raise ValueError(f"unhandled kernel kind {kind!r}")


def sample_spread(values) -> tuple[float, float]:
    """(sd, IQR) of at least two values: the sample standard deviation (n-1
    denominator) and the interquartile range of linear-interpolation quantiles."""
    x = np.asarray(values, dtype=float)
    q25, q75 = np.quantile(x, [0.25, 0.75])
    return float(np.std(x, ddof=1)), float(q75 - q25)


def rule_of_thumb_bandwidth(values, exponent: float, multiplier: float = 1.0) -> float:
    """Normal-reference bandwidth: multiplier * 1.06 * min(sd, IQR/1.34) * n^exponent.

    n is len(values) and (sd, IQR) come from sample_spread.  A zero IQR with a
    nonzero sd (a binary covariate with over 75% of values in one group)
    falls back to the sd, as R's bw.nrd0 does.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise DegenerateSpread("need at least two values for a bandwidth")
    sd, iqr = sample_spread(x)
    if sd == 0.0:
        raise DegenerateSpread(
            f"degenerate spread (sd={sd}, IQR={iqr}); all values equal?")
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return multiplier * 1.06 * spread * float(x.size) ** exponent


class BandwidthRule(NamedTuple):
    """One bandwidth of the recipe: which study variable feeds it, at which rate."""

    name: str
    study: str  # "current" or "prior"
    arm: str  # "treated" or "control"
    variable: str  # "s" or "w"
    exponent: float
    multiplier: float

    def arm_of(self, paired):
        """The study arm this bandwidth is computed from."""
        return getattr(getattr(paired, self.study), self.arm)

    @property
    def label(self) -> str:
        """The variable feeding this bandwidth, e.g. "prior control s"."""
        return f"{self.study} {self.arm} {self.variable}"

    def resolve(self, arm) -> float:
        """Rule-of-thumb bandwidth from `arm`'s variable; a DegenerateSpread names it."""
        try:
            return rule_of_thumb_bandwidth(getattr(arm, self.variable),
                                           self.exponent, self.multiplier)
        except DegenerateSpread as exc:
            raise DegenerateSpread(f"{self.name} ({self.label}): {exc}") from None


# All rate exponents sit in the undersmoothing window (1/4, 1/2); the
# surface bandwidths h2/h3 carry an extra factor 2.
BANDWIDTH_RECIPE = (
    BandwidthRule("h0", "current", "control", "w", -0.4, 1.0),
    BandwidthRule("h1", "current", "treated", "w", -0.4, 1.0),
    BandwidthRule("h2", "prior", "control", "s", -0.4, 2.0),
    BandwidthRule("h3", "prior", "control", "w", -0.4, 2.0),
    BandwidthRule("h4", "prior", "control", "s", -0.31, 1.0),
)


def default_bandwidths(paired, kernel: KernelKind = KernelKind.EPANECHNIKOV) -> Bandwidths:
    """Resolve all five bandwidths from a validated study pair by BANDWIDTH_RECIPE.

    The normal-reference constant 1.06 is used for either kernel; `kernel` is
    accepted so call sites can keep config plumbing uniform.
    """
    del kernel  # constants are normal-reference regardless of kernel shape
    return Bandwidths(**{rule.name: rule.resolve(rule.arm_of(paired))
                         for rule in BANDWIDTH_RECIPE})


def _check_bandwidth(h: float, name: str) -> None:
    if not (math.isfinite(h) and h > 0):
        raise NonPositiveBandwidth(f"bandwidth {name} must be positive and finite, got {h!r}")


def _kernel_sums(data, ys, queries, kernel: KernelKind) -> tuple[np.ndarray, np.ndarray]:
    """Raw product-kernel sums (numerator, denominator) of each query row.

    No 1/h factor: the ratio cancels it anyway and the mass floor must not
    depend on the bandwidth scale.  The numerator is `vecdot`, one dot
    product per row, since BLAS gemv's row bits vary with the block's rows.
    """
    wts = None
    for (x, h), qd in zip(data, queries):
        k = _profile(kernel, (x[None, :] - qd[:, None]) / h)
        wts = k if wts is None else np.multiply(wts, k, out=wts)
    return np.vecdot(wts, ys), wts.sum(axis=1)


def _nearest_points(data, points) -> list:
    """Coordinates of the data point nearest each point, in bandwidth-scaled
    distance, ties going to the lowest data index."""
    dist2 = np.zeros((points[0].size, data[0][0].size))
    for (x, h), p in zip(data, points):
        dist2 += ((x / h)[None, :] - p[:, None] / h) ** 2
    nearest = np.argmin(dist2, axis=1)
    return [x[nearest] for x, _ in data]


def _nw_product(data, ys, queries, kernel: KernelKind,
               cfg: SmoothingConfig) -> tuple[np.ndarray, int]:
    """Product-kernel Nadaraya-Watson smoother over any number of coordinates.

    `data` holds one (data coordinate, bandwidth) pair per dimension and
    `queries` the matching query arrays.  Queries are evaluated in blocks of
    _CHUNK; returns (values, clamped-query count).  Under the ERROR policy
    every block is checked before OutOfSupport names all offending queries.
    Under CLAMP_TO_NEAREST a low-mass query is re-evaluated at its nearest
    data point.
    """
    out = np.empty_like(queries[0])
    clamped = 0
    offenders = []  # global indices of low-mass queries, ERROR policy
    for lo in range(0, out.size, _CHUNK):
        q = [qd[lo:lo + _CHUNK] for qd in queries]
        num, den = _kernel_sums(data, ys, q, kernel)
        bad = np.flatnonzero(den < _DENOM_FLOOR)
        if bad.size and cfg.oob_policy is OobPolicy.ERROR:
            offenders.append(bad + lo)
            continue
        if bad.size:
            num[bad], den[bad] = _kernel_sums(
                data, ys, _nearest_points(data, [qd[bad] for qd in q]), kernel)
            still = bad[den[bad] < _DENOM_FLOOR]
            if still.size:
                raise OutOfSupport(
                    "kernel mass below floor even at the nearest data point "
                    "(bandwidths too large for the floor?)", indices=still + lo)
            clamped += int(bad.size)
        out[lo:lo + _CHUNK] = num / den
    if offenders:
        bad = np.concatenate(offenders)
        raise OutOfSupport(
            f"{bad.size} query point(s) have kernel mass below "
            f"{_DENOM_FLOOR}; nearest-point clamping is disabled", indices=bad)
    return out, clamped


def _smoother_inputs(data: dict, queries: dict) -> tuple[list, list]:
    """Data and query arguments of a smoother as float arrays, checked.

    The data arrays must be equal-length, nonempty and 1-D, the query arrays
    (scalars become length-1) must match each other, and every value must be
    finite: a NaN would otherwise pass as zero kernel mass or vanish from
    the sums.
    """
    xs = [np.asarray(v, dtype=float) for v in data.values()]
    if xs[0].ndim != 1 or xs[0].size == 0 or any(v.shape != xs[0].shape for v in xs):
        raise ValueError(f"{', '.join(data)} must be equal-length nonempty 1-D arrays")
    qs = [np.array(v, dtype=float, ndmin=1) for v in queries.values()]
    if any(q.shape != qs[0].shape for q in qs):
        raise ValueError("query arrays must have matching shapes")
    for name, v in zip([*data, *queries], xs + qs):
        if not np.isfinite(v).all():
            raise NonFiniteValue(f"non-finite value in smoother input {name}")
    return xs, qs


def nw_curve_many(xs, ys, h: float, kernel: KernelKind, x0s,
                  cfg: SmoothingConfig) -> tuple[np.ndarray, int]:
    """Vectorized 1-D Nadaraya-Watson smoother.

    Returns (values at each x0, number of queries clamped to the nearest
    data point).  Raises OutOfSupport under the ERROR policy when any query
    has kernel mass below the floor, NonFiniteValue on a NaN or infinite input.
    """
    _check_bandwidth(h, "h")
    (xs, ys), (x0s,) = _smoother_inputs(dict(xs=xs, ys=ys), dict(x0s=x0s))
    return _nw_product([(xs, h)], ys, [x0s], kernel, cfg)


def nw_surface_many(ss, ws, ys, h_s: float, h_w: float, kernel: KernelKind,
                    s0s, w0s, cfg: SmoothingConfig) -> tuple[np.ndarray, int]:
    """Vectorized 2-D product-kernel Nadaraya-Watson smoother.

    Same contract as nw_curve_many; clamping measures nearness in
    bandwidth-scaled coordinates so the anisotropy of (h_s, h_w) is respected.
    """
    _check_bandwidth(h_s, "h_s")
    _check_bandwidth(h_w, "h_w")
    (ss, ws, ys), (s0s, w0s) = _smoother_inputs(dict(ss=ss, ws=ws, ys=ys),
                                                dict(s0s=s0s, w0s=w0s))
    return _nw_product([(ss, h_s), (ws, h_w)], ys, [s0s, w0s], kernel, cfg)
