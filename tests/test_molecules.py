import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacurvelets import molecules
from alphacurvelets.molecules import (
    PhasePoint,
    _InOrder,
    _pairwise_sums,
    _runs,
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


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_phase_point_refuses_a_non_finite_orientation(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        PhasePoint(s=1.0, theta=theta, x=(0.0, 0.0))


@pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
def test_phase_point_refuses_a_non_finite_position(x):
    # so index_distance never returns nan
    with pytest.raises(ValueError, match="position x must be finite"):
        PhasePoint(s=1.0, theta=0.0, x=x)


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


def test_consistency_rejects_alpha_outside_the_unit_interval():
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            consistency_sum(PARAMS, PARAMS_HALF, alpha, 3.0, scale_cap=2.0, spatial_cap=1.0)


def test_consistency_rejects_an_alpha_other_than_the_frames():
    other = FrameParams(s=0.5, alpha=0.25, grid_n=64)
    with pytest.raises(ValueError, match=r"alpha=0\.5 must equal both frames' alpha, got 0\.5 and 0\.25"):
        consistency_sum(PARAMS, other, 0.5, 3.0, scale_cap=2.0, spatial_cap=1.0)
    with pytest.raises(ValueError, match=r"alpha=0\.25 must equal both frames' alpha, got 0\.5 and 0\.5"):
        consistency_sum(PARAMS, PARAMS_HALF, 0.25, 3.0, scale_cap=2.0, spatial_cap=1.0)


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


def test_each_enumerated_block_is_the_parametrization_of_its_lattice_indices():
    # both rotate by the stored orientation ell * phi_j mod pi, so they agree at ell < 0 too
    p = curvelet_parametrization((2, -1, (3.0, -2.0)), PARAMS)
    assert p.x == pytest.approx((-1.2374, 0.1768), abs=1e-4)
    cap = 1.5
    for params in (PARAMS, PARAMS_HALF):
        s, t, x = enumerate_phase_points(params, 4.0, cap)
        at, j = 0, 0
        while 2.0 ** (j * params.s) <= 4.0:
            s2j, s2ja = 2.0 ** (j * params.s), 2.0 ** (j * params.s * params.alpha)
            r1, r2 = math.floor(s2j * cap), math.floor(s2ja * cap)
            ks = [(k1, k2) for k1 in range(-r1, r1 + 1) for k2 in range(-r2, r2 + 1)]
            ks = [k for k in ks if (k[0] / s2j) ** 2 + (k[1] / s2ja) ** 2 <= cap**2]
            for ell in params.ell_range(j):
                for k in ks:
                    p = curvelet_parametrization((j, ell, k), params)
                    assert (s[at], t[at], tuple(x[at])) == (p.s, p.theta, p.x), (j, ell, k)
                    at += 1
            j += 1
        assert at == len(s) and min(params.ell_range(j - 1)) < 0


def test_the_pair_bound_is_the_lattice_sizes_and_refuses_above_the_limit():
    # the packaged caps pass; the bound is the rectangles' sizes, which hold the enumerated points
    sizes = [sum(molecules._lattice_sizes(p, 8.0, 4.0)) for p in (PARAMS, PARAMS_HALF)]
    assert sizes == [8_679, 12_895]
    assert [len(enumerate_phase_points(p, 8.0, 4.0)[0]) for p in (PARAMS, PARAMS_HALF)] == [6_455, 9_847]
    molecules._check_sum_args(PARAMS, PARAMS_HALF, 0.5, 3.0, 8.0, 8.0)  # a bound of 1.7e9
    for caps in ((8.0, 16.0), (64.0, 4.0), (1e300, 1e300)):
        with pytest.raises(ValueError, match=r"pair bound of [\d.e+]+ or more, above PAIR_LIMIT = 2,147,483,648$"):
            consistency_sum(PARAMS, PARAMS_HALF, 0.5, 3.0, *caps)


def test_zero_spatial_cap_keeps_the_origin():
    s, t, x = enumerate_phase_points(PARAMS, 2.0, 0.0)
    assert np.all(x == 0.0)
    assert len(s) == sum(len(PARAMS.ell_range(j)) for j in (0, 1))


def _brute_force_sums(a, b, alpha, k):
    """Row and column sums of ``index_distance**-k``, one pair at a time."""
    pa = [PhasePoint(s=s, theta=t, x=tuple(x)) for s, t, x in zip(*a)]
    pb = [PhasePoint(s=s, theta=t, x=tuple(x)) for s, t, x in zip(*b)]
    w = np.array([[index_distance(p, q, alpha) ** -k for q in pb] for p in pa])
    return w.sum(axis=1), w.sum(axis=0)


def assert_close_sums(got, want):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0 / 3.0, 1.0])
def test_group_kernel_matches_brute_force_index_distance(alpha):
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
        want = _brute_force_sums(a, b, alpha, k)
        assert_close_sums(_pairwise_sums(*a, *b, alpha, k), want)
        # two rows a block: runs of five rows end in a partial block
        assert_close_sums(_pairwise_sums(*a, *b, alpha, k, block=2 * len(b[0])), want)
        # sorted by orientation, runs of one orientation at two scales meet
        by_angle = np.argsort(a[1], kind="stable")
        row, col = _pairwise_sums(*(v[by_angle] for v in a), *b, alpha, k)
        assert_close_sums((row, col), (want[0][by_angle], want[1]))


def _one_thread_sums(sa, ta, xa, sb, tb, xb, alpha, k, block):
    """Oracle: the row and column sums of ``_pairwise_sums`` by one loop on
    one thread, run by run and block by block, adding each block's column
    sum as it goes.
    """
    n = len(sb)
    row = np.empty(len(sa))
    col = np.zeros(n)
    rows = max(1, block // n)
    bounds = _runs(sa, ta)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s, theta = sa[lo], ta[lo]
        ratio = np.maximum(s / sb, sb / s)
        s0 = np.minimum(s, sb)
        dt = np.abs(theta - tb) % math.pi
        dt = np.minimum(dt, math.pi - dt)
        head = 1.0 + s0 ** (2.0 * (1.0 - alpha)) * dt**2
        wr = ratio * s0 ** (2.0 * alpha)
        wq = wr + ratio * s0**2 / head
        w0 = ratio * head
        c, sn = math.cos(theta), math.sin(theta)
        qa = c * xa[lo:hi, 0] - sn * xa[lo:hi, 1]
        ra = sn * xa[lo:hi, 0] + c * xa[lo:hi, 1]
        qb = c * xb[:, 0] - sn * xb[:, 1]
        rb = sn * xb[:, 0] + c * xb[:, 1]
        for r0 in range(0, hi - lo, rows):
            r1 = min(hi - lo, r0 + rows)
            w = (qa[r0:r1, None] - qb) ** 2 * wq
            w += (ra[r0:r1, None] - rb) ** 2 * wr
            w += w0
            w **= -k
            row[lo + r0 : lo + r1] = w.sum(axis=1)
            col += w.sum(axis=0)
    return row, col


def test_consistency_sums_are_the_one_thread_loop_bit_for_bit(each_worker):
    a = enumerate_phase_points(PARAMS, 4.0, 1.0)
    b = enumerate_phase_points(PARAMS_HALF, 4.0, 1.0)
    block = 3 * len(b[0])  # three rows a block
    runs = np.diff(_runs(*a[:2]))
    assert np.sum(-(-runs // 3)) > 40 and np.any(runs % 3)  # many blocks, some runs end in a partial one
    want = _one_thread_sums(*a, *b, 0.5, 3.0, block)
    # the worker takes every block it can, none, and as many as it gets to
    for row, col in each_worker(lambda: _pairwise_sums(*a, *b, 0.5, 3.0, block=block)):
        assert row.tobytes() == want[0].tobytes() and col.tobytes() == want[1].tobytes()
    row, col = _one_thread_sums(*a, *b, 0.5, 3.0, 1 << 17)
    for res in each_worker(lambda: consistency_sum(PARAMS, PARAMS_HALF, 0.5, 3.0, 4.0, 1.0)):
        assert (res.sup_over_a, res.sup_over_b) == (row.max(), col.max())


def test_block_column_sums_join_the_total_in_block_order():
    rng = np.random.default_rng(22)
    vs = [rng.standard_normal(7) * 10.0**e for e in rng.integers(-8, 8, size=40)]
    want = np.zeros(7)
    for v in vs:
        want += v
    total = _InOrder(7)
    for i in rng.permutation(len(vs)):
        total.add(int(i), vs[i])
    assert total.total.tobytes() == want.tobytes()


def test_consistency_sums_hold_with_two_callers_sharing_the_worker():
    a = enumerate_phase_points(PARAMS, 4.0, 1.0)
    b = enumerate_phase_points(PARAMS_HALF, 4.0, 1.0)
    block = 2 * len(b[0])
    want = _one_thread_sums(*a, *b, 0.5, 3.0, block)
    same = [[], [], []]

    def run(k):
        for _ in range(5):
            row, col = _pairwise_sums(*a, *b, 0.5, 3.0, block=block)
            same[k].append(row.tobytes() == want[0].tobytes() and col.tobytes() == want[1].tobytes())

    # three callers and the worker on two cores, switching often
    callers = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert same == [[True] * 5] * 3


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
def test_index_distance_is_the_formula(alpha):
    rng = np.random.default_rng(21)
    m, n = 37, 53
    # orientations reduced mod pi, as PhasePoint stores them
    a = (rng.random(m) * 8 + 0.1, (rng.random(m) * 7 - 3) % math.pi, rng.standard_normal((m, 2)) * 3)
    b = (rng.random(n) * 8 + 0.1, (rng.random(n) * 7 - 3) % math.pi, rng.standard_normal((n, 2)) * 3)
    ref = _omega_reference(*a, *b, alpha)
    pa = [PhasePoint(s=s, theta=t, x=tuple(x)) for s, t, x in zip(*a)]
    pb = [PhasePoint(s=s, theta=t, x=tuple(x)) for s, t, x in zip(*b)]
    got = np.array([[index_distance(p, q, alpha) for q in pb] for p in pa])
    assert np.max(np.abs(got - ref) / ref) <= 1e-15
