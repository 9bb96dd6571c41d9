import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacurvelets.molecules import (
    PhasePoint,
    consistency_sum,
    curvelet_parametrization,
    enumerate_phase_points,
    index_distance,
)
from alphacurvelets.tiling import FrameParams

PARAMS = FrameParams(s=1.0, alpha=0.5, grid_n=64)
PARAMS_HALF = FrameParams(s=0.5, alpha=0.5, grid_n=64)


def test_parametrization_base_index():
    p = curvelet_parametrization((0, 0, (0.0, 0.0)), PARAMS)
    assert p.s == 1.0
    assert p.theta == 0.0
    assert p.x == (0.0, 0.0)


def test_parametrization_unrotated_translates():
    for j, k in ((3, (4.0, -2.0)), (5, (1.0, 7.0))):
        p = curvelet_parametrization((j, 0, k), PARAMS)
        assert p.x[0] == pytest.approx(k[0] * 2.0 ** (-j))
        assert p.x[1] == pytest.approx(k[1] * 2.0 ** (-j * 0.5))


def test_parametrization_zero_translate_any_angle():
    for ell in PARAMS.ell_range(4):
        p = curvelet_parametrization((4, ell, (0.0, 0.0)), PARAMS)
        assert p.x == (0.0, 0.0)
        assert 0.0 <= p.theta < math.pi


def test_parametrization_validation():
    with pytest.raises(ValueError):
        curvelet_parametrization((2, 40, (0.0, 0.0)), PARAMS)
    with pytest.raises(ValueError):
        curvelet_parametrization((-1, 0, (0.0, 0.0)), PARAMS)


def test_distance_identity():
    p = PhasePoint(s=4.0, theta=0.4, x=(0.25, -1.0))
    assert index_distance(p, p, 0.5) == 1.0


def test_distance_pure_scale_ratio():
    p = PhasePoint(s=4.0, theta=0.7, x=(0.5, 0.5))
    q = PhasePoint(s=1.0, theta=0.7, x=(0.5, 0.5))
    assert index_distance(p, q, 0.5) == pytest.approx(4.0)
    assert index_distance(q, p, 0.5) == pytest.approx(4.0)


def test_distance_symmetric_when_orientations_match():
    p = PhasePoint(s=2.0, theta=1.1, x=(0.3, 0.2))
    q = PhasePoint(s=8.0, theta=1.1, x=(-0.4, 0.9))
    assert index_distance(p, q, 0.3) == pytest.approx(index_distance(q, p, 0.3), rel=1e-12)


def test_distance_orientation_mod_pi():
    p = PhasePoint(s=2.0, theta=0.1, x=(0.0, 0.0))
    q1 = PhasePoint(s=2.0, theta=0.1 + math.pi, x=(0.2, 0.1))
    q2 = PhasePoint(s=2.0, theta=0.1, x=(0.2, 0.1))
    assert index_distance(p, q1, 0.5) == pytest.approx(index_distance(p, q2, 0.5), rel=1e-12)


def test_distance_grows_with_scale_ratio():
    base = PhasePoint(s=4.0, theta=0.9, x=(0.1, 0.1))
    vals = [
        index_distance(base, PhasePoint(s=s, theta=0.9, x=(0.1, 0.1)), 0.5)
        for s in (4.0, 8.0, 16.0, 64.0)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=64.0),
    st.floats(min_value=0.1, max_value=64.0),
    st.floats(min_value=0.0, max_value=6.2),
    st.floats(min_value=0.0, max_value=6.2),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_distance_at_least_one(s1, s2, t1, t2, x1, x2, alpha):
    p = PhasePoint(s=s1, theta=t1, x=(x1, x2))
    q = PhasePoint(s=s2, theta=t2, x=(-x2, x1))
    ratio = max(s1 / s2, s2 / s1)
    # every additive term is nonnegative, so the distance dominates the
    # bare scale ratio, which itself is at least one
    assert index_distance(p, q, alpha) >= ratio * (1.0 - 1e-12)
    assert index_distance(p, q, alpha) >= 1.0


def test_distance_validation():
    p = PhasePoint(s=1.0, theta=0.0, x=(0.0, 0.0))
    with pytest.raises(ValueError):
        index_distance(p, p, 1.5)
    with pytest.raises(ValueError):
        PhasePoint(s=-1.0, theta=0.0, x=(0.0, 0.0))


def test_enumeration_counts_scale_with_caps():
    s1, t1, x1 = enumerate_phase_points(PARAMS, 4.0, 1.0)
    s2, t2, x2 = enumerate_phase_points(PARAMS, 4.0, 2.0)
    assert len(s2) > len(s1)
    assert np.all(np.hypot(x1[:, 0], x1[:, 1]) <= 1.0 + 1e-12)
    assert np.max(s1) <= 4.0


def test_consistency_self_is_near_symmetric():
    # the directional term of the distance uses the first argument's
    # orientation only, so the two sups differ slightly even for
    # identical parametrizations; they must agree to well under a percent
    res = consistency_sum(PARAMS, PARAMS, 0.5, 3.0, scale_cap=4.0, spatial_cap=1.0)
    assert res.sup_over_a == pytest.approx(res.sup_over_b, rel=5e-3)
    assert res.count_a == res.count_b


def test_consistency_rejects_bad_exponent():
    for k_exp in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="k_exp"):
            consistency_sum(PARAMS, PARAMS_HALF, 0.5, k_exp, scale_cap=2.0, spatial_cap=1.0)


def test_consistency_cross_scale_stabilizes():
    sups = []
    for cap in (1.0, 2.0, 4.0):
        res = consistency_sum(PARAMS, PARAMS_HALF, 0.5, 3.0, scale_cap=4.0, spatial_cap=cap)
        sups.append(res)
    growth_a = sups[-1].sup_over_a / sups[-2].sup_over_a - 1.0
    growth_b = sups[-1].sup_over_b / sups[-2].sup_over_b - 1.0
    assert growth_a < 0.05
    assert growth_b < 0.05


@pytest.mark.parametrize(
    "field, caps",
    [
        ("scale_cap", (math.inf, 1.0)),
        ("scale_cap", (math.nan, 1.0)),
        ("scale_cap", (0.5, 1.0)),
        ("spatial_cap", (2.0, math.nan)),
        ("spatial_cap", (2.0, math.inf)),
        ("spatial_cap", (2.0, -1.0)),
    ],
)
def test_enumeration_and_sums_reject_bad_caps(field, caps):
    with pytest.raises(ValueError, match=field):
        enumerate_phase_points(PARAMS, *caps)
    with pytest.raises(ValueError, match=field):
        consistency_sum(PARAMS, PARAMS_HALF, 0.5, 3.0, *caps)


def test_zero_spatial_cap_keeps_the_origin():
    s, t, x = enumerate_phase_points(PARAMS, 2.0, 0.0)
    assert np.all(x == 0.0)
    assert len(s) == sum(len(PARAMS.ell_range(j)) for j in (0, 1))


def _brute_force_sups(a, b, alpha, k):
    """Row and column sups of ``index_distance**-k`` sums, one pair at a time."""
    pa = [PhasePoint(s=s, theta=t, x=tuple(x)) for s, t, x in zip(*a)]
    pb = [PhasePoint(s=s, theta=t, x=tuple(x)) for s, t, x in zip(*b)]
    w = np.array([[index_distance(p, q, alpha) ** -k for q in pb] for p in pa])
    return w.sum(axis=1).max(), w.sum(axis=0).max()


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0 / 3.0, 1.0])
def test_group_kernel_matches_brute_force_index_distance(alpha):
    from alphacurvelets.molecules import _pairwise_sups, _runs

    grouped = (
        enumerate_phase_points(PARAMS, 4.0, 0.5),
        enumerate_phase_points(PARAMS_HALF, 4.0, 0.5),
    )
    rng = np.random.default_rng(21)
    m, n = 37, 53
    # unsorted, orientations outside [0, pi): every run is a single point
    unsorted = (
        (rng.random(m) * 8 + 0.1, rng.random(m) * 7 - 3, rng.standard_normal((m, 2)) * 3),
        (rng.random(n) * 8 + 0.1, rng.random(n) * 7 - 3, rng.standard_normal((n, 2)) * 3),
    )
    assert len(_runs(*grouped[0][:2])) - 1 < len(grouped[0][0]) / 4
    assert len(_runs(*unsorted[0][:2])) - 1 == m
    for (a, b), k in ((grouped, 3.0), (unsorted, 2.5)):
        want = pytest.approx(_brute_force_sups(a, b, alpha, k), rel=1e-12, abs=0)
        assert _pairwise_sups(*a, *b, alpha, k) == want
        # two rows a block: runs of five rows end in a partial block
        assert _pairwise_sups(*a, *b, alpha, k, block=2 * len(b[0])) == want
        # sorted by orientation, runs of one orientation at two scales meet
        by_angle = np.argsort(a[1], kind="stable")
        assert _pairwise_sups(*(v[by_angle] for v in a), *b, alpha, k) == want


def _omega_reference(sa, ta, xa, sb, tb, xb, alpha):
    """The distance block as one expression per term (a new array for each)."""
    ratio = np.maximum(sa[:, None] / sb[None, :], sb[None, :] / sa[:, None])
    s0 = np.minimum(sa[:, None], sb[None, :])
    dt = np.abs(ta[:, None] - tb[None, :]) % math.pi
    dt = np.minimum(dt, math.pi - dt)
    dx1 = xa[:, None, 0] - xb[None, :, 0]
    dx2 = xa[:, None, 1] - xb[None, :, 1]
    t1 = s0 ** (2.0 * (1.0 - alpha)) * dt**2
    t2 = s0 ** (2.0 * alpha) * (dx1**2 + dx2**2)
    e1 = np.cos(ta)[:, None]
    e2 = -np.sin(ta)[:, None]
    t3 = s0**2 * (e1 * dx1 + e2 * dx2) ** 2 / (1.0 + t1)
    return ratio * (1.0 + t1 + t2 + t3)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0 / 3.0, 1.0])
def test_in_place_distance_kernel_is_the_formula_bit_for_bit(alpha):
    from alphacurvelets.molecules import _omega_block

    rng = np.random.default_rng(21)
    m, n = 37, 53
    a = (rng.random(m) * 8 + 0.1, rng.random(m) * 7 - 3, rng.standard_normal((m, 2)) * 3)
    b = (rng.random(n) * 8 + 0.1, rng.random(n) * 7 - 3, rng.standard_normal((n, 2)) * 3)
    ref = _omega_reference(*a, *b, alpha)
    assert np.array_equal(_omega_block(*a, *b, alpha), ref)
