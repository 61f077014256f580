import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrtest import smoothing
from surrtest.errors import (
    DegenerateSpread,
    NonFiniteValue,
    NonPositiveBandwidth,
    OutOfSupport,
)
from surrtest.smoothing import (
    Bandwidths,
    KernelKind,
    OobPolicy,
    SmoothingConfig,
    bandwidth_spread,
    default_bandwidths,
    nw_curve_many,
    nw_surface_many,
    rule_of_thumb_bandwidth,
    sample_spread,
)
from test_estimators import _k, naive_mu0_2d

EPA = KernelKind.EPANECHNIKOV
GAU = KernelKind.GAUSSIAN

ERR = SmoothingConfig(kernel=EPA, oob_policy=OobPolicy.ERROR)
CLAMP = SmoothingConfig(kernel=EPA, oob_policy=OobPolicy.CLAMP_TO_NEAREST)


def _block_rows(dim, n_data):
    """Queries per smoother block against `dim` coordinates of `n_data` points."""
    return smoothing._BLOCK_DOUBLES // (dim * n_data)


# ---------------------------------------------------------------- kernels
# Kernel weights seen through the smoother: with data xs=[0, u], ys=[0, 1]
# and bandwidth h, the value at 0 is K(u/h) / (K(0) + K(u/h)).

def _two_point(kind, u, h):
    cfg = SmoothingConfig(kernel=kind, oob_policy=OobPolicy.ERROR)
    return nw_curve_many([0.0, u], [0.0, 1.0], h, kind, [0.0], cfg)[0][0]


def test_epanechnikov_values():
    # K(0) = 3/4 and K(1/2) = 9/16 give 3/7; K vanishes at |u| >= 1
    assert _two_point(EPA, 0.0, 1.0) == 0.5
    assert _two_point(EPA, 0.5, 1.0) == pytest.approx(3.0 / 7.0, abs=1e-15)
    for u in (1.0, -1.0, 2.0):
        assert _two_point(EPA, u, 1.0) == 0.0
    # the support edge, one ulp either side: the clip at 0 is the |u| <= 1 test
    above, below = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    for sign in (1.0, -1.0):
        assert _two_point(EPA, sign * above, 1.0) == 0.0
        assert _two_point(EPA, sign * below, 1.0) > 0.0


def test_gaussian_values():
    # standard normal density: K(u)/K(0) = exp(-u^2/2)
    for u in (1.0, -2.0):
        r = math.exp(-0.5 * u * u)
        assert _two_point(GAU, u, 1.0) == pytest.approx(r / (1.0 + r), abs=1e-15)


def test_kernel_weight_bandwidth_scaling():
    # the weight is K(u/h): scaling u and h together changes nothing
    assert _two_point(EPA, 1.0, 2.0) == pytest.approx(3.0 / 7.0, abs=1e-15)
    assert _two_point(EPA, 3.0, 2.0) == 0.0
    for kind in (EPA, GAU):
        assert _two_point(kind, 1.4, 2.0) == pytest.approx(
            _two_point(kind, 0.7, 1.0), rel=1e-15)


def test_kernel_weight_rejects_bad_bandwidth():
    for h in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonPositiveBandwidth):
            nw_curve_many([0.0, 1.0], [0.0, 1.0], h, EPA, [0.5], ERR)
        with pytest.raises(NonPositiveBandwidth):
            nw_surface_many([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], 1.0, h, EPA,
                            [0.5], [0.5], ERR)


@given(u=st.floats(-5, 5), h=st.floats(0.1, 10))
def test_kernel_weight_nonnegative(u, h):
    # a negative K(u/h) would push the value below 0; K(u/h) <= K(0) caps it at 1/2
    for kind in (EPA, GAU):
        assert 0.0 <= _two_point(kind, u, h) <= 0.5


# ------------------------------------------------------------- bandwidths

def test_rule_of_thumb_frozen_value():
    # sd([1..5]) = sqrt(2.5), IQR = 2, min(sd, IQR/1.34) = 2/1.34;
    # 1.06 * (2/1.34) * 5**-0.4, confirmed with independent arithmetic.
    h = rule_of_thumb_bandwidth([1, 2, 3, 4, 5], -0.4)
    assert h == pytest.approx(0.831080439602386, abs=1e-14)


def test_rule_of_thumb_multiplier_is_linear():
    x = [0.3, 1.7, 2.2, 4.9, 0.1, 3.3]
    base = rule_of_thumb_bandwidth(x, -0.31)
    assert rule_of_thumb_bandwidth(x, -0.31, multiplier=2.0) == pytest.approx(
        2.0 * base, rel=1e-15)


@given(c=st.floats(0.01, 100))
def test_rule_of_thumb_scale_equivariance(c):
    x = np.array([0.5, 1.0, 2.5, 4.0, 6.5])
    assert rule_of_thumb_bandwidth(c * x, -0.4) == pytest.approx(
        c * rule_of_thumb_bandwidth(x, -0.4), rel=1e-12)


def test_rule_of_thumb_rate_uses_sample_size():
    # exponent 0 drops the rate factor, so the ratio is n^exponent alone
    for n in (5, 500):
        x = np.random.default_rng(n).standard_normal(n)
        h = rule_of_thumb_bandwidth(x, -0.4)
        assert h == pytest.approx(rule_of_thumb_bandwidth(x, 0.0) * n ** -0.4, rel=1e-12)


def test_rule_of_thumb_degenerate():
    with pytest.raises(DegenerateSpread):
        rule_of_thumb_bandwidth([2.0, 2.0, 2.0, 2.0], -0.4)
    with pytest.raises(DegenerateSpread):
        rule_of_thumb_bandwidth([1.0], -0.4)
    # zero IQR with nonzero sd (mass piled on the quartiles, as in a binary
    # covariate with 80% in one group) falls back to the sd, as R's bw.nrd0 does
    x = [1.0] * 10 + [9.0]
    assert rule_of_thumb_bandwidth(x, -0.4) == 1.06 * np.std(x, ddof=1) * 11 ** -0.4
    x = [0.0] * 80 + [1.0] * 20
    assert rule_of_thumb_bandwidth(x, -0.4) == 1.06 * np.std(x, ddof=1) * 100 ** -0.4
    assert bandwidth_spread(*sample_spread(x)) == ("sd", np.std(x, ddof=1))
    assert rule_of_thumb_bandwidth(x, -0.4) == pytest.approx(0.067538, rel=1e-5)


def test_default_bandwidths_positive(small_pair):
    bw = default_bandwidths(small_pair)
    for name in ("h0", "h1", "h2", "h3", "h4"):
        v = getattr(bw, name)
        assert math.isfinite(v) and v > 0
    # h2 and h4 come from the same values; the multiplier-2 h2 with the
    # faster rate must differ from h4
    assert bw.h2 != bw.h4


def test_bandwidths_validation():
    with pytest.raises(NonPositiveBandwidth):
        Bandwidths(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(NonPositiveBandwidth):
        Bandwidths(1.0, 1.0, 1.0, 1.0, math.inf)


# ------------------------------------------------- hand-computed fixtures

def test_nw_1d_hand_fixture():
    """xs=[0,1,2], ys=[0,1,2], h=1.5 at x0=0.5.

    Standardized distances (-1/3, 1/3, 1) give weights (2/3, 2/3, 0), so the
    smoother returns (2/3*1)/(4/3) = 0.5.  Confirmed by direct arithmetic.
    """
    v, _ = nw_curve_many([0, 1, 2], [0, 1, 2], 1.5, EPA, [0.5], ERR)
    assert v[0] == pytest.approx(0.5, abs=1e-9)


def test_nw_2d_hand_fixture():
    """Three points, h_s=h_w=1.5, query (0.5, 0).

    Product weights: (2/3*3/4, 2/3*3/4, 2/3*5/12) ~ (1/2, 1/2, 5/18), value
    (1/2*1 + 5/18*2) / (1/2+1/2+5/18) = 19/23.  Confirmed independently by
    hand; 19/23 = 0.82608695...
    """
    v, _ = nw_surface_many([0, 1, 0], [0, 0, 1], [0, 1, 2], 1.5, 1.5, EPA,
                           [0.5], [0.0], ERR)
    assert v[0] == pytest.approx(19.0 / 23.0, abs=1e-9)


def test_nw_1d_at_data_point_with_tight_kernel():
    # h small enough that only the queried data point carries weight
    v, _ = nw_curve_many([0.0, 1.0, 2.0], [5.0, 7.0, 9.0], 0.4, EPA, [1.0], ERR)
    assert v[0] == pytest.approx(7.0, abs=1e-12)


# ---------------------------------------------------------- NW properties

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_nw_curve_convex_combination(seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 10, 40)
    ys = rng.normal(0, 3, 40)
    # querying at data points guarantees kernel mass under ERROR
    vals, n_clamped = nw_curve_many(xs, ys, 1.0, EPA, xs[:10], ERR)
    assert n_clamped == 0
    assert np.all(vals >= ys.min() - 1e-12)
    assert np.all(vals <= ys.max() + 1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(-5, 5), st.floats(0.5, 4))
@settings(max_examples=25, deadline=None)
def test_nw_curve_affine_in_y(seed, b, a):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 5, 30)
    ys = rng.normal(0, 2, 30)
    q = xs[:7]
    base, _ = nw_curve_many(xs, ys, 0.8, EPA, q, ERR)
    shifted, _ = nw_curve_many(xs, a * ys + b, 0.8, EPA, q, ERR)
    np.testing.assert_allclose(shifted, a * base + b, atol=1e-10)


def test_nw_curve_permutation_invariant():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 5, 50)
    ys = rng.normal(0, 1, 50)
    q = np.linspace(0.5, 4.5, 9)
    v1, _ = nw_curve_many(xs, ys, 1.0, EPA, q, ERR)
    perm = rng.permutation(50)
    v2, _ = nw_curve_many(xs[perm], ys[perm], 1.0, EPA, q, ERR)
    np.testing.assert_allclose(v2, v1, rtol=1e-12)


def test_nw_infinite_bandwidth_is_mean():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 5, 25)
    ys = rng.normal(2, 1, 25)
    for kind in (EPA, GAU):
        cfg = SmoothingConfig(kernel=kind, oob_policy=OobPolicy.ERROR)
        v, _ = nw_curve_many(xs, ys, 1e9, kind, [1.0, 4.0], cfg)
        np.testing.assert_allclose(v, ys.mean(), rtol=1e-9)


def test_nw_surface_matches_curve_when_w_constant():
    # with all covariate values equal and the query at that value, the 2-D
    # product kernel reduces to the 1-D smoother
    rng = np.random.default_rng(5)
    ss = rng.uniform(0, 5, 30)
    ys = rng.normal(0, 1, 30)
    ws = np.full(30, 2.0)
    v2, _ = nw_surface_many(ss, ws, ys, 1.0, 1.0, EPA, ss[:5], np.full(5, 2.0), ERR)
    v1, _ = nw_curve_many(ss, ys, 1.0, EPA, ss[:5], ERR)
    np.testing.assert_allclose(v2, v1, rtol=1e-12)


def test_nw_chunking_consistent():
    # one call with many queries equals, bit for bit, many calls with one query
    rng = np.random.default_rng(9)
    xs = rng.uniform(0, 10, 1000)
    ys = rng.normal(0, 1, 1000)
    q = rng.uniform(0.5, 9.5, 2 * _block_rows(1, 1000) + 100)  # three blocks
    many, _ = nw_curve_many(xs, ys, 2.0, EPA, q, ERR)
    singles = [nw_curve_many(xs, ys, 2.0, EPA, [x], ERR)[0][0] for x in q]
    assert np.array_equal(many, singles)


def _nearest_data_point(data, queries):
    """Index of the data point nearest each query in bandwidth-scaled distance."""
    dist2 = sum(((x / h)[None, :] - q[:, None] / h) ** 2
                for (x, h), q in zip(data, queries))
    return np.argmin(dist2, axis=1)


@pytest.mark.parametrize("dim", [1, 2], ids=["curve", "surface"])
@pytest.mark.parametrize("kind", [EPA, GAU], ids=["epanechnikov", "gaussian"])
@pytest.mark.parametrize("policy", list(OobPolicy), ids=[p.value for p in OobPolicy])
@pytest.mark.parametrize("cuts", [lambda rows: [1666], lambda rows: [1, rows - 1, rows + 1],
                                  lambda rows: [2500, 2501, 4999]],
                         ids=["1666", "block-edges", "singles"])
def test_values_do_not_depend_on_query_batching(dim, kind, policy, cuts):
    # a smoothed value depends only on its own query: any split of the
    # queries gives the same bits and the same clamp total, and a clamped
    # value is the smoother evaluated directly at the nearest data point
    rng = np.random.default_rng(2022)
    data = [(rng.uniform(0, 10, 801), 0.7) for _ in range(dim)]
    ys = rng.normal(0, 1, 801) + data[0][0]
    queries = [rng.uniform(0, 10, 5000) for _ in range(dim)]
    far = [7, 1666, 4200, 4999]
    rows = _block_rows(dim, 801)
    assert far[0] < rows <= far[-1]  # far queries on both sides of a block edge
    if policy is OobPolicy.CLAMP_TO_NEAREST:
        queries[0][far] = [-40.0, 60.0, 25.0, -15.0]

    def smooth(q, policy=policy):
        cfg = SmoothingConfig(kernel=kind, oob_policy=policy)
        if dim == 1:
            return nw_curve_many(data[0][0], ys, data[0][1], kind, q[0], cfg)
        return nw_surface_many(data[0][0], data[1][0], ys, data[0][1],
                               data[1][1], kind, *q, cfg)

    whole, n_clamped = smooth(queries)
    bounds = [0, *cuts(rows), 5000]
    pieces = [smooth([q[lo:hi] for q in queries]) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate([v for v, _ in pieces]), whole)
    assert sum(c for _, c in pieces) == n_clamped
    if policy is OobPolicy.ERROR:
        assert n_clamped == 0
        return
    # the ERROR policy names exactly the queries CLAMP_TO_NEAREST clamps
    with pytest.raises(OutOfSupport) as exc_info:
        smooth(queries, OobPolicy.ERROR)
    low = exc_info.value.indices
    assert set(far) <= set(low.tolist()) and low.size == n_clamped
    nearest = _nearest_data_point(data, [q[low] for q in queries])
    direct, n_direct = smooth([x[nearest] for x, _ in data])
    assert n_direct == 0
    assert np.array_equal(whole[low], direct)


# --------------------------------------------------------------- cell grid
# The Epanechnikov surface weighs only the pairs in its cells' key ranges, so
# each property checks it against the double loop, which weighs every pair.

def _check_against_naive(ss, ws, ys, h_s, h_w, s0s, w0s):
    """Assert nw_surface_many agrees with naive_mu0_2d at rel 1e-12 and clamps
    exactly the queries whose double-loop mass is below the floor, each at its
    nearest data point; returns the smoother's (values, clamped count)."""
    ss, ws, ys, s0s, w0s = (np.array(v, dtype=float, ndmin=1) for v in (ss, ws, ys, s0s, w0s))
    vals, n_clamped = nw_surface_many(ss, ws, ys, h_s, h_w, EPA, s0s, w0s, CLAMP)
    mass = np.array([sum(_k((s - s0) / h_s) * _k((w - w0) / h_w) for s, w in zip(ss, ws))
                     for s0, w0 in zip(s0s, w0s)])
    low = mass < smoothing._DENOM_FLOOR
    nearest = _nearest_data_point([(ss, h_s), (ws, h_w)], [s0s, w0s])
    at = [np.where(low, x[nearest], q) for x, q in ((ss, s0s), (ws, w0s))]
    naive = [naive_mu0_2d(ss.tolist(), ws.tolist(), ys.tolist(), h_s, h_w, s0, w0)
             for s0, w0 in zip(*at)]
    assert n_clamped == low.sum()
    np.testing.assert_allclose(vals, naive, rtol=1e-12)
    return vals, n_clamped


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_grid_ignores_the_order_of_the_data(seed):
    rng = np.random.default_rng(seed)
    ss, ws = rng.uniform(0, 10, (2, 60))
    ys = rng.uniform(1, 2, 60)
    h_s, h_w = rng.uniform(0.3, 3, 2)
    queries = rng.uniform(-1, 11, (2, 30))
    vals, n_clamped = _check_against_naive(ss, ws, ys, h_s, h_w, *queries)
    perm = rng.permutation(60)
    again, n_again = _check_against_naive(ss[perm], ws[perm], ys[perm], h_s, h_w, *queries)
    assert n_again == n_clamped
    np.testing.assert_allclose(again, vals, rtol=1e-12)


@given(seed=st.integers(0, 2**32 - 1),
       scale=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
       shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
@settings(max_examples=25, deadline=None)
def test_grid_follows_positive_affine_maps(seed, scale, shift):
    # a map of s or w, its bandwidth included, moves every cell edge
    rng = np.random.default_rng(seed)
    cloud = rng.uniform(0, 10, (2, 50))
    ys = rng.uniform(1, 2, 50)
    h = rng.uniform(0.3, 3, 2)
    queries = rng.uniform(-1, 11, (2, 25))
    a, b = np.array(scale)[:, None], np.array(shift)[:, None]
    _check_against_naive(*(a * cloud + b), ys, *(a[:, 0] * h), *(a * queries + b))


@given(seed=st.integers(0, 2**32 - 1), h=st.sampled_from([0.25, 0.5, 0.7, 1.0]))
@settings(max_examples=25, deadline=None)
def test_grid_handles_tied_data(seed, h):
    # a coarse lattice: many points share a cell, an s, a w or both, and many
    # queries sit on cell edges or exactly one bandwidth from a point
    rng = np.random.default_rng(seed)
    ss, ws = rng.integers(0, 8, (2, 60)) * 0.5
    ys = rng.integers(0, 2, 60)
    queries = rng.integers(-4, 20, (2, 30)) * 0.25
    _check_against_naive(ss, ws, ys, h, 2 * h, *queries)


@given(seed=st.integers(0, 2**32 - 1), shape=st.floats(0.8, 1.2))
@settings(max_examples=25, deadline=None)
def test_grid_handles_heavy_tails(seed, shape):
    # gamma data of shape near 1 at the package's surface bandwidths: a dense
    # core, a sparse tail of lone points, and tail queries that clamp
    rng = np.random.default_rng(seed)
    ss, ws = rng.gamma(shape, (1.0, 3.0), (60, 2)).T
    ys = rng.uniform(1, 2, 60)
    h_s, h_w = (rule_of_thumb_bandwidth(x, -0.4, 2.0) for x in (ss, ws))
    queries = rng.gamma(shape, (1.0, 3.0), (30, 2)).T
    _check_against_naive(ss, ws, ys, h_s, h_w, *queries)


@given(seed=st.integers(0, 2**32 - 1), axis=st.sampled_from([0, 1]),
       sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=25, deadline=None)
def test_grid_at_exactly_one_bandwidth_from_a_point(seed, axis, sign):
    # dyadic data and bandwidths, so x +- h is exact and that pair weighs 0;
    # one step inside, toward the point, it weighs a little
    rng = np.random.default_rng(seed)
    cloud = rng.integers(0, 64, (2, 40)) / 8
    ys = rng.integers(0, 2, 40)  # 0/1: a missed edge weight can leave a value at 0 or 1
    h = 2.0 ** rng.integers(-3, 2, 2)
    queries = cloud[:, rng.integers(0, 40, 20)]
    queries[axis] += sign * h[axis]
    inside = np.nextafter(queries[axis], queries[axis] - sign)
    edge = [q.copy() for q in queries]
    edge[axis] = inside
    _check_against_naive(*cloud, ys, *h, *np.concatenate([queries, edge], axis=1))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_grid_clamps_every_far_query_at_its_nearest_point(seed):
    rng = np.random.default_rng(seed)
    ss, ws = rng.uniform(0, 10, (2, 50))
    ys = rng.uniform(1, 2, 50)
    queries = rng.uniform(-10, 20, (2, 30))
    queries[rng.integers(0, 2), :] += rng.choice([-40.0, 40.0], 30)
    vals, n_clamped = _check_against_naive(ss, ws, ys, 0.5, 0.5, *queries)
    assert n_clamped == 30
    nearest = _nearest_data_point([(ss, 0.5), (ws, 0.5)], queries)
    direct, _ = nw_surface_many(ss, ws, ys, 0.5, 0.5, EPA, ss[nearest], ws[nearest], CLAMP)
    assert np.array_equal(vals, direct)


def test_grid_one_query_without_candidates():
    # no occupied cell in the s range, then a cell whose points all lie
    # outside the w range: both clamp to the nearest point, (2, 2)
    ss, ws, ys = [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 2.0, 4.0]
    at_nearest, _ = nw_surface_many(ss, ws, ys, 0.5, 0.5, EPA, [2.0], [2.0], ERR)
    for s0, w0 in ((50.0, 50.0), (2.0, 50.0)):
        vals, n_clamped = _check_against_naive(ss, ws, ys, 0.5, 0.5, s0, w0)
        assert n_clamped == 1 and np.array_equal(vals, at_nearest)
        with pytest.raises(OutOfSupport) as exc_info:
            nw_surface_many(ss, ws, ys, 0.5, 0.5, EPA, [s0], [w0], ERR)
        assert exc_info.value.indices.tolist() == [0]
        assert np.array_equal(exc_info.value.values, at_nearest)


def test_grid_with_a_trillion_cells_per_axis():
    # h = 1e-9 on data spread over 10^3 puts 10^12 cells on each axis, past
    # any key that multiplies cell coordinates out; pairs of tied points share
    # a cell, and the midpoints between data points clamp
    rng = np.random.default_rng(8)
    cloud = rng.uniform(0, 1000, (2, 20))
    data = np.repeat(cloud, 2, axis=1)
    ys = rng.uniform(1, 2, 40)
    near = data + rng.uniform(-0.9e-9, 0.9e-9, data.shape)
    between = (cloud[:, 1:] + cloud[:, :-1]) / 2
    _, n_clamped = _check_against_naive(*data, ys, 1e-9, 1e-9,
                                        *np.concatenate([near, between], axis=1))
    assert n_clamped == between.shape[1]


@pytest.mark.parametrize("dim", [1, 2], ids=["curve", "surface"])
@pytest.mark.parametrize("kind", [EPA, GAU], ids=["epanechnikov", "gaussian"])
def test_call_peaks_at_one_block_per_coordinate(dim, kind):
    # every coordinate's kernel weights share one block of _BLOCK_DOUBLES, and
    # the clamp path's distances fit in one block too, so a call's allocations
    # peak below 1.25 blocks whatever the data size, in support or all clamped
    rng = np.random.default_rng(12)
    for n_data in (10**4, 2 * 10**4):
        data = [rng.uniform(0, 10, n_data) for _ in range(dim)]
        ys = rng.normal(0, 1, n_data)
        # in support, then at least 10 bandwidths past the data
        for lo, hi, policy in ((1, 9, OobPolicy.ERROR), (15, 20, OobPolicy.CLAMP_TO_NEAREST)):
            queries = [rng.uniform(lo, hi, 600) for _ in range(dim)]
            cfg = SmoothingConfig(kernel=kind, oob_policy=policy)
            tracemalloc.start()
            try:
                if dim == 1:
                    _, clamped = nw_curve_many(data[0], ys, 0.5, kind, queries[0], cfg)
                else:
                    _, clamped = nw_surface_many(*data, ys, 0.5, 0.5, kind, *queries, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * smoothing._BLOCK_DOUBLES * 8, (n_data, policy)
            assert clamped == (600 if policy is OobPolicy.CLAMP_TO_NEAREST else 0)


def test_grid_call_on_few_data_points_peaks_at_one_block():
    # ten points under a bandwidth wider than their spread, so every pair is
    # a candidate: the cell grid's per-query search arrays, not its pair
    # workspace, would outgrow the block if ten points set the block's rows
    rng = np.random.default_rng(13)
    ss, ws, ys = rng.uniform(0, 1, (3, 10))
    queries = rng.uniform(0, 1, (2, 200_000))
    tracemalloc.start()
    try:
        nw_surface_many(ss, ws, ys, 10.0, 10.0, EPA, *queries, ERR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * smoothing._BLOCK_DOUBLES * 8


_REPEATED_SURFACE_CALLS = """
import resource
import sys
import numpy as np
from surrtest.smoothing import KernelKind, OobPolicy, SmoothingConfig, nw_surface_many
rng = np.random.default_rng(5)
n, kernel = int(sys.argv[1]), KernelKind(sys.argv[2])  # queries per call, kernel
s, w, y, s0, w0 = (rng.uniform(0, 1, k) for k in (800, 800, 800, n, n))
cfg = SmoothingConfig(kernel=kernel, oob_policy=OobPolicy.CLAMP_TO_NEAREST)
def call():
    nw_surface_many(s, w, y, 0.3, 0.3, kernel, s0, w0, cfg)
call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="measures glibc malloc")
def test_repeated_surface_calls_reuse_their_memory():
    # A campaign-sized surface block (600 queries x 800 points, two
    # coordinates) allocated as two arrays was trimmed from the heap on free
    # and faulted in again by every call: about 1900 minor faults per call.
    # A tilde-sized call (20,000 queries) in 4096-query blocks of 52 MB was
    # mapped anew for every block, above glibc's 32 MiB mmap ceiling: about
    # 2700 faults per call.  A fresh interpreter per shape, so no earlier
    # call has set malloc's thresholds.  The Epanechnikov kernel exercises the
    # cell grid's pair workspace, the Gaussian the dense weight block; both
    # keep the bounds the dense block was first held to.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for kind in (EPA, GAU):
        for n_queries, block_bytes in ((600, 600 * 800 * 8),
                                       (20_000, smoothing._BLOCK_DOUBLES * 8)):
            done = subprocess.run(
                [sys.executable, "-c", _REPEATED_SURFACE_CALLS, str(n_queries), kind.value],
                env=env, capture_output=True, text=True, check=True)
            # ten calls, under one block's pages
            assert int(done.stdout) < block_bytes // 4096, (kind, n_queries)


def test_nw_input_validation():
    with pytest.raises(ValueError):
        nw_curve_many([1, 2], [1, 2, 3], 1.0, EPA, [1.5], ERR)
    with pytest.raises(ValueError):
        nw_curve_many([], [], 1.0, EPA, [0.5], ERR)
    with pytest.raises(NonPositiveBandwidth):
        nw_curve_many([1, 2], [1, 2], -0.5, EPA, [1.5], ERR)
    with pytest.raises(ValueError):
        nw_surface_many([1, 2], [1, 2], [1, 2], 1.0, 1.0, EPA, [1.0], [1.0, 2.0], ERR)


@pytest.mark.parametrize("kind", [EPA, GAU], ids=["epanechnikov", "gaussian"])
@pytest.mark.parametrize("policy", list(OobPolicy), ids=[p.value for p in OobPolicy])
def test_nw_rejects_non_finite_inputs(kind, policy):
    # a NaN query used to clamp to data point 0 (or come out NaN), and a NaN
    # data point dropped out of the sums unnoticed
    cfg = SmoothingConfig(kernel=kind, oob_policy=policy)
    with pytest.raises(NonFiniteValue, match="x0s"):
        nw_curve_many([0, 1, 2], [10, 20, 30], 1.0, kind, [math.nan, 1.0], cfg)
    curve = [[0.0, 1.0, 2.0], [10.0, 20.0, 30.0], [0.5, 1.0]]  # xs, ys, x0s
    surface = [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 2.0, 3.0],
               [0.5, 1.0], [0.5, 1.0]]  # ss, ws, ys, s0s, w0s
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(len(curve)):
            args = [list(a) for a in curve]
            args[i][-1] = bad
            with pytest.raises(NonFiniteValue):
                nw_curve_many(args[0], args[1], 1.0, kind, args[2], cfg)
        for i in range(len(surface)):
            args = [list(a) for a in surface]
            args[i][-1] = bad
            with pytest.raises(NonFiniteValue):
                nw_surface_many(*args[:3], 1.0, 1.0, kind, *args[3:], cfg)


# -------------------------------------------------------- out-of-support

def test_error_policy_raises_with_indices():
    with pytest.raises(OutOfSupport) as exc_info:
        nw_curve_many([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 0.5, EPA,
                      [1.0, 50.0, -40.0], ERR)
    idx = exc_info.value.indices
    assert idx is not None
    assert sorted(int(i) for i in idx) == [1, 2]


@pytest.mark.parametrize("dim", [1, 2], ids=["curve", "surface"])
@pytest.mark.parametrize("kind", [EPA, GAU], ids=["epanechnikov", "gaussian"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_error_policy_carries_the_clamped_values(dim, kind, seed):
    # the smoother clamps every low-mass query before it raises, so the error
    # holds the clamp policy's values and count, and no caller smooths again
    rng = np.random.default_rng(seed)
    n_data = int(rng.integers(5, 200))
    data = [rng.uniform(0, 10, n_data) for _ in range(dim)]
    ys = rng.normal(0, 1, n_data)
    queries = [rng.uniform(0, 10, 300) for _ in range(dim)]
    far = rng.random(300) < 0.05
    far[0] = True  # at least one query without kernel mass
    queries[0][far] += rng.choice([-100.0, 100.0], far.sum())

    def smooth(policy):
        cfg = SmoothingConfig(kernel=kind, oob_policy=policy)
        if dim == 1:
            return nw_curve_many(data[0], ys, 0.5, kind, queries[0], cfg)
        return nw_surface_many(*data, ys, 0.5, 0.5, kind, *queries, cfg)

    clamped, n_clamped = smooth(OobPolicy.CLAMP_TO_NEAREST)
    with pytest.raises(OutOfSupport) as exc_info:
        smooth(OobPolicy.ERROR)
    assert np.array_equal(exc_info.value.values, clamped)
    assert exc_info.value.indices.size == n_clamped


@pytest.mark.parametrize("offenders", [[10, 5000, 5001], [5000, 5001]])
def test_error_policy_indices_span_query_blocks(offenders):
    # 6000 queries take two blocks against 512 data points; the indices and
    # the count in the message cover every block, not just the first
    # offending one
    xs = np.linspace(0.0, 2.0, 512)
    rows = _block_rows(1, xs.size)
    assert 10 < rows <= 5000 and 6000 <= 2 * rows  # the block edge lies between 10 and 5000
    x0s = np.linspace(0.0, 2.0, 6000)
    x0s[offenders] = 50.0
    with pytest.raises(OutOfSupport, match=f"^{len(offenders)} query point") as exc_info:
        nw_curve_many(xs, xs + 1.0, 0.5, EPA, x0s, ERR)
    assert [int(i) for i in exc_info.value.indices] == offenders


def test_clamp_policy_spans_query_blocks():
    # 6000 queries take two blocks against 512 data points, with one
    # offender in the first and two in the second
    xs, h = np.linspace(0.0, 2.0, 512), 0.5
    ys = np.random.default_rng(3).normal(0, 1, xs.size)
    rows = _block_rows(1, xs.size)
    assert 10 < rows <= 5000 and 6000 <= 2 * rows  # the block edge lies between 10 and 5000
    clean = np.linspace(0.0, 2.0, 6000)
    x0s = clean.copy()
    x0s[[10, 5000, 5001]] = [50.0, -40.0, 30.0]
    vals, n_clamped = nw_curve_many(xs, ys, h, EPA, x0s, CLAMP)
    assert n_clamped == 3
    assert np.array_equal(vals[[10, 5000, 5001]],
                          nw_curve_many(xs, ys, h, EPA, [2.0, 0.0, 2.0], ERR)[0])
    others = np.ones(6000, dtype=bool)
    others[[10, 5000, 5001]] = False
    ref, _ = nw_curve_many(xs, ys, h, EPA, clean, ERR)
    assert np.array_equal(vals[others], ref[others])


def test_clamp_policy_uses_nearest_point_1d():
    # far right query clamps to x=2 whose tight neighborhood holds only y=9
    vals, n_clamped = nw_curve_many([0.0, 1.0, 2.0], [5.0, 7.0, 9.0], 0.4,
                                    EPA, [50.0], CLAMP)
    assert n_clamped == 1
    assert vals[0] == pytest.approx(9.0, abs=1e-12)


def test_clamp_policy_counts_only_offsupport():
    vals, n_clamped = nw_curve_many([0.0, 1.0, 2.0], [5.0, 7.0, 9.0], 0.6,
                                    EPA, [1.0, -30.0, 2.0, 99.0], CLAMP)
    assert n_clamped == 2
    assert vals[0] == pytest.approx(7.0, abs=1e-12)


def test_clamp_nearest_is_bandwidth_scaled_2d():
    """Anisotropic bandwidths decide which data point is 'nearest'.

    Data: (s,w) = (0,0) y=1 and (6,3) y=2.  Query (2.5, 3) has no s-mass at
    h_s=1.  With h_w=10 the scaled distance favors (0,0) (2.5^2+0.09 < 3.5^2)
    even though plain Euclidean distance favors (6,3).
    """
    vals, n_clamped = nw_surface_many([0.0, 6.0], [0.0, 3.0], [1.0, 2.0],
                                      1.0, 10.0, EPA, [2.5], [3.0], CLAMP)
    assert n_clamped == 1
    assert vals[0] == pytest.approx(1.0, abs=1e-12)


def test_gaussian_kernel_rarely_needs_clamp():
    # unbounded support: faraway-but-reasonable queries keep mass
    cfg = SmoothingConfig(kernel=GAU, oob_policy=OobPolicy.ERROR)
    vals, n_clamped = nw_curve_many([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1.0,
                                    GAU, [4.0], cfg)
    assert n_clamped == 0
    assert 1.0 <= vals[0] <= 3.0
