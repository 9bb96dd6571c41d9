import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacurvelets.tiling import (
    FrameParams,
    _co_step,
    _scan_supports,
    build_layout,
    layout_to_json,
    smooth_step,
    verify_partition,
    wedge_geometry,
    wedge_value,
)


def test_default_corona_constant_matches_convention():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=64)
    assert p.corona_constant == pytest.approx(0.05305164769729845, abs=1e-15)
    assert p.tau1 == pytest.approx(2.0 ** (1.0 / 3.0))
    assert p.tau2 == pytest.approx(2.0 ** (2.0 / 3.0))


def test_params_validation():
    with pytest.raises(ValueError):
        FrameParams(s=1.0, alpha=1.5, grid_n=64)
    with pytest.raises(ValueError):
        FrameParams(s=0.0, alpha=0.5, grid_n=64)
    with pytest.raises(ValueError):
        FrameParams(s=1.0, alpha=0.5, grid_n=63)
    with pytest.raises(ValueError):
        FrameParams(s=1.0, alpha=0.5, grid_n=8)
    with pytest.raises(ValueError):
        FrameParams(s=1.0, alpha=0.5, grid_n=64, tau1=1.9, tau2=1.2)
    with pytest.raises(ValueError):
        FrameParams(s=1.0, alpha=0.5, grid_n=64, tau1=0.9)
    # explicit scale count above the Nyquist bound is rejected, not clamped
    with pytest.raises(ValueError):
        FrameParams(s=1.0, alpha=0.5, grid_n=64, j_max=40)


def test_tile_counts_and_angles():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=256)
    assert p.tile_angle(4) == pytest.approx(math.pi / 8)
    assert p.tile_count(4) == 8
    assert p.tile_angle(0) == pytest.approx(math.pi)
    assert p.tile_count(0) == 1
    for j in range(0, p.j_max + 1):
        assert p.tile_angle(j) * p.tile_count(j) == pytest.approx(math.pi)
    # floor law for the tile counts
    for j in range(1, 9):
        assert p.tile_count(j) == 2 ** (math.floor(j * 0.5) + 1)
    q = FrameParams(s=1.0, alpha=0.0, grid_n=256)
    assert [q.tile_count(j) for j in (1, 2, 3)] == [4, 8, 16]


def test_smooth_step_boundaries():
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(-3.0) == 0.0
    assert smooth_step(7.0) == 1.0
    v = smooth_step(0.3)
    assert v**2 + smooth_step(0.7) ** 2 == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
def test_smooth_step_identity_property(t):
    a = float(smooth_step(t))
    b = float(smooth_step(1.0 - t))
    assert 0.0 <= a <= 1.0
    assert a * a + b * b == pytest.approx(1.0, abs=5e-15)


def test_smooth_step_monotone():
    t = np.linspace(-0.5, 1.5, 4001)
    v = smooth_step(t)
    assert np.all(np.diff(v) >= 0)
    assert np.all(_co_step(t) == smooth_step(1 - t)) or np.allclose(
        _co_step(t), smooth_step(1 - t), atol=5e-16
    )


@pytest.fixture(scope="module")
def layout128():
    return build_layout(FrameParams(s=1.0, alpha=0.5, grid_n=128))


def test_wedge_value_symmetry(layout128):
    rng = np.random.default_rng(0)
    profile = layout128.profile
    for spec in layout128.wedges[::5]:
        xi = rng.uniform(-30, 30, size=(500, 2))
        a = wedge_value(xi, spec, profile)
        b = wedge_value(-xi, spec, profile)
        assert np.array_equal(a, b) or np.allclose(a, b, atol=1e-15)


def test_wedge_value_zero_outside_bounding_rect(layout128):
    rng = np.random.default_rng(1)
    profile = layout128.profile
    for spec in layout128.wedges:
        if spec.is_closure or spec.index.j == 0:
            continue
        rect = spec.bounding_rect
        c, s = math.cos(rect.angle), math.sin(rect.angle)
        n = 100_000
        u = rng.uniform(-4 * rect.half_length, 4 * rect.half_length, n)
        v = rng.uniform(-4 * rect.half_width, 4 * rect.half_width, n)
        outside = (np.abs(u) > rect.half_length) | (np.abs(v) > rect.half_width)
        xi = np.stack([c * u - s * v, s * u + c * v], axis=-1)[outside]
        vals = wedge_value(xi, spec, profile)
        assert np.all(vals == 0.0)


def test_wedge_value_one_on_core(layout128):
    profile = layout128.profile
    for spec in layout128.wedges:
        if spec.is_closure:
            continue
        j, ell = spec.index.j, spec.index.ell
        lo, hi = spec.radial_core
        if hi <= lo:
            continue
        r = 0.5 * (lo + hi) if j > 0 else 0.5 * hi
        theta = spec.orientation
        xi = np.array([[r * math.cos(theta), r * math.sin(theta)]])
        val = wedge_value(xi, spec, profile)
        assert val[0] == pytest.approx(1.0, abs=1e-14)


def test_wedge_value_at_origin(layout128):
    xi = np.array([0.0, 0.0])
    for spec in layout128.wedges:
        val = wedge_value(xi, spec, layout128.profile)
        expected = 1.0 if spec.index.j == 0 else 0.0
        assert val == expected


def test_partition_default(layout128):
    assert verify_partition(layout128) <= 1e-12


def test_partition_without_closure_leaves_corner_uncovered(layout128):
    assert verify_partition(layout128, include_closure=False) == pytest.approx(1.0)


def test_partition_single_corona():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=64, j_max=0)
    lay = build_layout(p)
    assert len(lay.wedges) == 2  # ball plus closure
    assert verify_partition(lay) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0 / 3.0, 0.5, 0.75])
def test_partition_sweep(alpha):
    p = FrameParams(s=1.0, alpha=alpha, grid_n=256)
    assert verify_partition(build_layout(p)) <= 1e-12


def test_wrap_translates_disjoint(layout128):
    p = layout128.params
    supports = _scan_supports(p, layout128.profile)
    for spec, sup in zip(layout128.wedges, supports):
        P1, P2 = spec.wrap_periods
        keys = (sup.k1 % P1) * P2 + (sup.k2 % P2)
        assert len(np.unique(keys)) == len(keys)
        assert spec.support_cardinality == len(keys)


def test_total_tile_count(layout128):
    p = layout128.params
    expected = sum(p.tile_count(j) for j in range(p.j_max + 1)) + 1
    assert len(layout128.wedges) == expected


def test_layout_json_dump(layout128):
    doc = json.loads(layout_to_json(layout128))
    assert doc["params"]["grid_n"] == 128
    assert len(doc["wedges"]) == len(layout128.wedges)
    first = doc["wedges"][0]
    for key in ("j", "ell", "orientation_radians", "radial_support", "wrap_periods", "support_cardinality"):
        assert key in first
    assert doc["wedges"][-1]["is_closure"] is True


def test_wedge_geometry_rejects_bad_indices():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=128)
    with pytest.raises(ValueError):
        wedge_geometry(p, 2, 99)
    with pytest.raises(ValueError):
        wedge_geometry(p, p.j_max + 5, 0)


def test_nyquist_snapped_tops_out_at_nyquist():
    p = FrameParams.nyquist_snapped(1.0, 0.5, 256)
    top = p.corona_constant * 2.0 ** (p.s * p.j_max) * p.tau2
    assert top == pytest.approx(256 / 4.0)
    assert verify_partition(build_layout(p)) <= 1e-12


def test_isotropic_alpha_is_supported_but_flagged():
    with pytest.warns(UserWarning, match="alpha = 1"):
        p = FrameParams(s=1.0, alpha=1.0, grid_n=128)
    assert all(p.tile_count(j) == 2 for j in range(1, p.j_max + 1))
    assert verify_partition(build_layout(p)) <= 1e-12


def test_negative_alpha_and_fractional_s_build():
    for s, alpha in ((1.0, -0.5), (0.5, 0.5)):
        p = FrameParams(s=s, alpha=alpha, grid_n=128)
        assert verify_partition(build_layout(p)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-64, 63), st.integers(-64, 63)),
        min_size=1,
        max_size=300,
        unique=True,
    )
)
def test_wrap_period_search_on_arbitrary_point_sets(points):
    from alphacurvelets.tiling import _collision_free, _find_wrap_periods, _fold

    k1 = np.array([p[0] for p in points], dtype=np.int64)
    k2 = np.array([p[1] for p in points], dtype=np.int64)
    P1, P2 = _find_wrap_periods(k1, k2, 128)
    assert P1 % 2 == 0 and P2 % 2 == 0
    assert 2 <= P1 <= 128 and 2 <= P2 <= 128
    assert _collision_free(_fold(k1, k2, P1, P2), P1 * P2)


def test_layout_matches_golden_file():
    import os

    p = FrameParams(s=1.0, alpha=0.5, grid_n=64)
    doc = json.loads(layout_to_json(build_layout(p)))
    golden_path = os.path.join(os.path.dirname(__file__), "data", "layout_s1_a05_n64.json")
    golden = json.load(open(golden_path))
    assert doc == golden
