"""Kernel functions, rule-of-thumb bandwidths, and Nadaraya-Watson smoothers.

This module is the numeric core every estimator builds on.  All smoothers are
plain kernel-weighted averages; queries whose kernel neighborhood carries no
mass are handled by an explicit out-of-bounds policy instead of silently
returning NaN.

Two engines compute the kernel sums.  The Epanechnikov surface, whose kernel
vanishes past one bandwidth, goes to a cell grid that weighs only the data
points in each query's neighbouring cells; every other smoother weighs every
data point for every query.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DegenerateSpread, NonFiniteValue, NonPositiveBandwidth,
                     OutOfSupport)

__all__ = [
    "KernelKind",
    "OobPolicy",
    "Bandwidths",
    "SmoothingConfig",
    "BandwidthRule",
    "BANDWIDTH_RECIPE",
    "sample_spread",
    "rule_of_thumb_bandwidth",
    "bandwidth_spread",
    "default_bandwidths",
    "nw_curve_many",
    "nw_surface_many",
]

# Working doubles per query block, 16 MiB: under glibc's 32 MiB mmap ceiling, so a
# block stays in malloc's heap, yet a campaign surface call (600 x 800 x 2) is one
# block.  The dense engine fills it with kernel weights; the cell grid with the
# candidate pairs of a block's queries, which are far fewer.
_BLOCK_DOUBLES = 2**21

# A cell-grid candidate pair holds two indices and three doubles, so a chunk of
# _MAX_PAIRS pairs fills one _BLOCK_DOUBLES workspace.
_PAIR_DOUBLES = 5
_MAX_PAIRS = _BLOCK_DOUBLES // _PAIR_DOUBLES

# Doubles a block reserves per query row and coordinate, at least.  The cell
# grid's per-query search arrays take a few dozen doubles a row, so blocks sized
# by n_data alone would outgrow one _BLOCK_DOUBLES on a few data points.
_MIN_ROW_DOUBLES = 64

# Minimum admissible summed kernel mass of a query (raw kernel sums, no 1/h);
# below it the out-of-bounds policy applies.  A data point's own weight
# K(0)^d >= 1/(2 pi) clears it at any bandwidth, so a clamped query always does.
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
        for f in fields(self):
            _check_bandwidth(getattr(self, f.name), f.name)


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoother policy: ConfigError unless kernel is a KernelKind and oob_policy an OobPolicy."""

    kernel: KernelKind = KernelKind.EPANECHNIKOV
    # clamp by default: heavy-tailed markers put a few treated points past the prior
    # control support, an analysis that aborts on them is useless, and clamps are counted
    oob_policy: OobPolicy = OobPolicy.CLAMP_TO_NEAREST

    def __post_init__(self):
        for name, kind in (("kernel", KernelKind), ("oob_policy", OobPolicy)):
            if not isinstance(value := getattr(self, name), kind):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _profile(kind: KernelKind, u: np.ndarray) -> np.ndarray:
    """K(u) for an array of standardized distances, written over u in place.
    The Epanechnikov clip at 0 is its support test: u*u > 1 exactly when |u| > 1."""
    u *= u
    if kind is KernelKind.EPANECHNIKOV:
        np.maximum(np.subtract(1.0, u, out=u), 0.0, out=u)
        return np.multiply(u, 0.75, out=u)
    if kind is KernelKind.GAUSSIAN:
        np.exp(np.multiply(u, -0.5, out=u), out=u)
        return np.divide(u, _SQRT_2PI, out=u)
    raise ValueError(f"unhandled kernel kind {kind!r}")


def sample_spread(values) -> tuple[float, float]:
    """(sd, IQR) of at least two values: the sample standard deviation (n-1
    denominator) and the interquartile range of linear-interpolation quantiles."""
    x = np.asarray(values, dtype=float)
    q25, q75 = np.quantile(x, [0.25, 0.75])
    return float(np.std(x, ddof=1)), float(q75 - q25)


def bandwidth_spread(sd: float, iqr: float) -> tuple[str, float]:
    """The (name, value) of the spread a rule-of-thumb bandwidth scales by:
    IQR/1.34 when that is positive and below the sd, else the sd."""
    return ("IQR/1.34", iqr / 1.34) if 0.0 < iqr / 1.34 < sd else ("sd", sd)


def rule_of_thumb_bandwidth(values, exponent: float, multiplier: float = 1.0) -> float:
    """Normal-reference bandwidth: multiplier * 1.06 * min(sd, IQR/1.34) * n^exponent.

    n is len(values) and bandwidth_spread picks from sample_spread's (sd, IQR).
    A zero IQR with a nonzero sd (a binary covariate with over 75% of values
    in one group) falls back to the sd, as R's bw.nrd0 does.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise DegenerateSpread("need at least two values for a bandwidth")
    sd, iqr = sample_spread(x)
    if sd == 0.0:
        raise DegenerateSpread(
            f"degenerate spread (sd={sd}, IQR={iqr}); all values equal?")
    _, spread = bandwidth_spread(sd, iqr)
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
    All coordinates share one weight array, which malloc keeps between calls.
    """
    k = np.empty((len(data), queries[0].size, ys.size))
    for (x, h), qd, u in zip(data, queries, k):
        np.subtract(x[None, :], qd[:, None], out=u)
        _profile(kernel, np.divide(u, h, out=u))
    for kd in k[1:]:
        k[0] *= kd
    return np.vecdot(k[0], ys), k[0].sum(axis=1)


def _nearest_points(data, points) -> list:
    """Coordinates of the data point nearest each point, in bandwidth-scaled
    distance, ties going to the lowest data index."""
    dist2 = None  # the first coordinate's squares, then each later one added in place
    for (x, h), p in zip(data, points):
        d = np.subtract((x / h)[None, :], (p / h)[:, None])
        np.square(d, out=d)
        dist2 = d if dist2 is None else np.add(dist2, d, out=dist2)
    nearest = np.argmin(dist2, axis=1)
    return [x[nearest] for x, _ in data]


def _support(q: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo < q < hi holding every x of positive weight K((x - q) / h).

    An Epanechnikov weight is positive only when |fl(x - q)| < h, hence when
    |x - q| < h (1 + 2^-52).  The margin m = h (1 + 2^-50) covers that, and one
    step outward from fl(q -/+ m) covers the rounding of the sum.
    """
    m = h * (1.0 + 2.0**-50)
    return np.nextafter(q - m, -np.inf), np.nextafter(q + m, np.inf)


class _CellGrid:
    """Epanechnikov product-kernel sums over 2-D data, weighing candidate pairs only.

    Binning for kernel estimators (Fan & Marron 1994; Wand 1994).  The data are
    sorted once, by the key (cell, w rank): the cell is floor(s / h_s), ranked
    among the occupied cells, and the w rank a point's place in the data sorted
    by w.  Keys stay below n_data^2 at any bandwidth.  A query's candidates in
    one cell are then one contiguous key range: the w ranks inside its _support
    bounds.  As division and floor are monotone, the cells from floor(lo / h_s)
    to floor(hi / h_s) hold every s inside them, so the candidates hold every
    point of positive weight.

    Each pair's weight is computed as _kernel_sums computes it, bit for bit, and
    zero weights add nothing; only the order of a query's sum differs, as
    np.bincount adds its pairs one after another in key order.
    """

    def __init__(self, data, ys):
        (s, self.h_s), (w, self.h_w) = data
        self.n = s.size
        self.cells, cell = np.unique(np.floor(s / self.h_s), return_inverse=True)
        by_w = np.argsort(w, kind="stable")
        self.w_sorted = w[by_w]
        w_rank = np.empty(self.n, dtype=np.int64)
        w_rank[by_w] = np.arange(self.n)
        key = cell * self.n + w_rank
        order = np.argsort(key)
        self.keys = key[order]
        self.s, self.w, self.y = s[order], w[order], ys[order]
        self._work = np.empty((_PAIR_DOUBLES, 0))

    def sums(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Raw kernel sums (numerator, denominator) of each query row, as _kernel_sums."""
        qs, qw = queries
        s_lo, s_hi = _support(qs, self.h_s)
        w_lo, w_hi = _support(qw, self.h_w)
        first = np.searchsorted(self.cells, np.floor(s_lo / self.h_s))
        last = np.searchsorted(self.cells, np.floor(s_hi / self.h_s), side="right")
        cell = first[:, None] + np.arange(int((last - first).max()))
        base = cell * self.n
        start = np.searchsorted(self.keys, base + np.searchsorted(self.w_sorted, w_lo)[:, None])
        count = np.searchsorted(
            self.keys, base + np.searchsorted(self.w_sorted, w_hi, side="right")[:, None])
        count -= start
        count[cell >= last[:, None]] = 0
        # chunks of whole queries whose candidate pairs fit the workspace
        ends = np.cumsum(count.sum(axis=1))
        num, den = np.empty(qs.size), np.empty(qs.size)
        lo = 0
        while lo < qs.size:
            before = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, before + _MAX_PAIRS, side="right")))
            self._weigh(qs[lo:hi], qw[lo:hi], start[lo:hi], count[lo:hi],
                        num[lo:hi], den[lo:hi])
            lo = hi
        return num, den

    def _weigh(self, qs, qw, start, count, num, den) -> None:
        """Write the sums of one chunk of queries into num and den.

        start and count hold each query's key ranges, one row per query; the
        pairs are expanded into the workspace by cumulative sums of jumps.
        """
        width = count.shape[1]
        entry = np.flatnonzero(count)
        count, start = count.ravel()[entry], start.ravel()[entry]
        pairs = int(count.sum())
        if self._work.shape[1] < pairs:
            self._work = None  # freed before its successor is allocated
            self._work = np.empty((_PAIR_DOUBLES, max(pairs, min(_MAX_PAIRS, 2 * pairs))))
        query, index = (self._work[i, :pairs].view(np.int64) for i in (0, 1))
        u, v, t = self._work[2:, :pairs]
        offset = np.cumsum(count) - count  # each range's first pair
        query.fill(0)
        query[offset] = np.diff(entry // width, prepend=0)
        np.cumsum(query, out=query)
        index.fill(1)
        index[offset] = start - np.concatenate(([0], (start + count - 1)[:-1]))
        np.cumsum(index, out=index)
        for (x, qd, h), k in zip(((self.s, qs, self.h_s), (self.w, qw, self.h_w)), (u, v)):
            np.take(x, index, out=k, mode="clip")
            np.subtract(k, np.take(qd, query, out=t, mode="clip"), out=k)
            _profile(KernelKind.EPANECHNIKOV, np.divide(k, h, out=k))
        u *= v
        den[:] = np.bincount(query, u, minlength=den.size)  # int64 when there are no pairs
        np.multiply(u, np.take(self.y, index, out=v, mode="clip"), out=v)
        num[:] = np.bincount(query, v, minlength=num.size)


def _nw_product(data, ys, queries, kernel: KernelKind,
               cfg: SmoothingConfig) -> tuple[np.ndarray, int]:
    """Product-kernel Nadaraya-Watson smoother over any number of coordinates.

    `data` holds one (data coordinate, bandwidth) pair per dimension and `queries`
    the matching query arrays; returns (values, clamped-query count).  Queries go
    in blocks of _BLOCK_DOUBLES // (d * max(n_data, _MIN_ROW_DOUBLES)) rows, at
    least one, to one of two engines, chosen by kernel and dimension alone:

    * the Epanechnikov surface goes to a _CellGrid built once per call, which
      weighs a block's candidate pairs only, in chunks of at most _BLOCK_DOUBLES
      doubles of pair workspace (one query's candidates past that);
    * every other call goes to _kernel_sums, whose block holds rows x d x n_data
      kernel weights, at most _BLOCK_DOUBLES or past n_data = _BLOCK_DOUBLES / d
      one query's d x n_data.

    Either engine sums each query's weights apart from every other query, so a
    value depends only on its own query row.  Either policy evaluates a low-mass
    query at its nearest data point; under ERROR, OutOfSupport then names every
    offending query and carries the clamped values.
    """
    if kernel is KernelKind.EPANECHNIKOV and len(data) == 2:
        sums = _CellGrid(data, ys).sums
    else:
        def sums(q):
            return _kernel_sums(data, ys, q, kernel)
    out = np.empty_like(queries[0])
    low = np.zeros(out.size, dtype=bool)  # queries with kernel mass below the floor
    rows = max(1, _BLOCK_DOUBLES // (len(data) * max(ys.size, _MIN_ROW_DOUBLES)))
    for lo in range(0, out.size, rows):
        q = [qd[lo:lo + rows] for qd in queries]
        num, den = sums(q)
        low[lo:lo + rows] = den < _DENOM_FLOOR
        bad = np.flatnonzero(low[lo:lo + rows])
        if bad.size:
            num[bad], den[bad] = sums(_nearest_points(data, [qd[bad] for qd in q]))
        out[lo:lo + rows] = num / den
    bad = np.flatnonzero(low)
    if bad.size and cfg.oob_policy is OobPolicy.ERROR:
        raise OutOfSupport(
            f"{bad.size} query point(s) have kernel mass below "
            f"{_DENOM_FLOOR}; nearest-point clamping is disabled", indices=bad, values=out)
    return out, int(bad.size)


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
    qs = [np.array(v, dtype=float, ndmin=1, copy=None) for v in queries.values()]
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
