import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphacurvelets import tiling
from alphacurvelets.tiling import (
    FrameParams,
    TileSupport,
    _co_step,
    build_layout,
    layout_to_json,
    smooth_step,
    verify_partition,
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
    with pytest.raises(TypeError):  # the radial knots follow from s
        FrameParams(s=1.0, alpha=0.5, grid_n=64, tau1=1.3)
    # the ladder follows from s, grid_n and snapped
    with pytest.raises(TypeError):
        FrameParams(s=1.0, alpha=0.5, grid_n=64, j_max=3)
    with pytest.raises(TypeError):
        FrameParams(s=1.0, alpha=0.5, grid_n=64, corona_constant=0.1)
    # the first corona, C * 2**s * tau2 = 2**(16/3) / (3*pi) = 4.28, does not fit below grid_n/4 = 4
    with pytest.raises(ValueError, match="too small"):
        FrameParams(s=8.0, alpha=0.5, grid_n=16)


def test_grid_n_must_be_an_integer():
    p = FrameParams(1.0, 0.5, np.int64(64))
    assert type(p.grid_n) is int and p == FrameParams(1.0, 0.5, 64)
    json.dumps(layout_to_json(build_layout(p)))  # a numpy integer would not serialize
    for bad in (64.0, "64"):
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            FrameParams(1.0, 0.5, bad)


def test_scales_must_be_integers():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=256)
    assert p.tile_count(np.int64(4)) == p.tile_count(4)
    assert p.radial_core(np.int64(4)) == p.radial_core(4)
    for geometry in (p.tile_count, p.tile_angle, p.ell_range, p.radial_support, p.radial_core):
        with pytest.raises(ValueError, match="scale j must be an integer, got 1.5"):
            geometry(1.5)
    with pytest.raises(ValueError, match="scale j must be an integer"):
        p.radial(2.0, [0.5])


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


def _scale_by_scale_ladder(p):
    """The default ladder's ``j_max`` by its definition, one scale at a time."""
    j = 0
    while p.corona_constant * 2.0 ** (p.s * (j + 2)) * p.tau2 <= p.grid_n / 4.0:
        j += 1
    return j


# per grid, an s whose closed-form floor the ladder's rounding corrections move, and the floor and j_max
ROUNDED_LADDERS = {16: (1.4281250809618569, 3, 2), 128: (0.2776334369728138, 28, 29)}


@pytest.mark.parametrize("grid", [16, 66, 128, 1024])
def test_the_closed_form_ladder_is_the_scale_by_scale_one(grid):
    for s in np.linspace(0.05, 3.0, 60):
        p = FrameParams(s=float(s), alpha=0.5, grid_n=grid)
        assert p.j_max == _scale_by_scale_ladder(p), s
    if grid in ROUNDED_LADDERS:
        s, floor, j_max = ROUNDED_LADDERS[grid]
        p = FrameParams(s=s, alpha=0.5, grid_n=grid)
        assert math.floor(math.log2(grid / 4.0 / (p.corona_constant * p.tau2)) / s - 1.0) == floor
        assert p.j_max == _scale_by_scale_ladder(p) == j_max


@pytest.mark.parametrize("snapped", [False, True])
@pytest.mark.parametrize("s", [1e300, 1024.0, 1020.0])
def test_an_s_whose_powers_of_two_overflow_is_refused(s, snapped):
    # 2**s overflows from s = 1024, and the snapped ladder's (grid_n/4) * 2**s near s = 1017
    with pytest.raises(ValueError, match=re.escape(f"s must be at most S_LIMIT = 512, got {s}")):
        FrameParams(s, 0.5, 256, snapped=snapped)
    assert FrameParams(tiling.S_LIMIT, 0.5, 256, snapped=True).j_max == 0


@pytest.mark.parametrize(
    "s,alpha,grid,snapped",
    [(1.0, -2.0, 512, False), (1.0, -2.0, 512, True), (1.0, -5.0, 64, False), (1e-5, 0.5, 1024, False)]
    + [(1e-5, 0.5, 1024, True), (1e-300, 0.5, 64, False), (1.0, -1e300, 64, False)],
)
def test_a_frame_above_the_tile_limit_is_refused(s, alpha, grid, snapped):
    frame = re.escape(f"the frame at s={s}, alpha={alpha}, grid_n={grid}")
    with pytest.raises(ValueError, match=rf"^{frame} has at least [\d,]+ tiles, above TILE_LIMIT = 131,072$"):
        FrameParams(s, alpha, grid, snapped=snapped)


def test_the_largest_tested_frame_is_within_the_tile_limit():
    p = FrameParams(s=1.0, alpha=-0.5, grid_n=1024)
    assert 2 + sum(p.tile_count(j) for j in range(1, p.j_max + 1)) == 93_622 <= tiling.TILE_LIMIT


def test_scale_geometry_rejects_negative_scales_only():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=256)
    for geometry in (p.tile_count, p.tile_angle, p.ell_range):
        for j in (-1, -4):
            with pytest.raises(ValueError, match="nonnegative"):
                geometry(j)
    # scales past the grid's closure stay valid: the phase-space
    # parametrization does not depend on the grid
    j = p.j_max + 7
    assert p.tile_count(j) == 2 ** (math.floor(j * 0.5) + 1)
    assert p.tile_angle(j) * p.tile_count(j) == math.pi
    assert len(p.ell_range(j)) == p.tile_count(j)


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


def test_co_step_is_never_negative_below_one():
    # the quintic ramp rounds above 1 just below t = 1; the cosine must not
    # follow it below zero there
    t = 1.0 - np.arange(1, 200) * 2.0**-53
    assert np.all(_co_step(t) >= 0.0)
    assert _co_step(np.nextafter(1.0, 0.0)) == 0.0
    assert np.all(_co_step(np.linspace(0.0, 1.0, 10001)) >= 0.0)


@pytest.mark.parametrize("snapped", [False, True])
@pytest.mark.parametrize("s", [0.53, 0.84, 1.0])
def test_no_window_sample_is_negative(s, snapped):
    # snapped s = 0.53 at grid 128 and 0.84 at grid 64 once gave -1.9e-15
    for grid in (64, 128):
        p = FrameParams.nyquist_snapped(s, 0.5, grid) if snapped else FrameParams(s=s, alpha=0.5, grid_n=grid)
        for sup in build_layout(p).wedges:
            assert sup.window.min(initial=0.0) >= 0.0


@pytest.fixture(scope="module")
def layout128():
    return build_layout(FrameParams(s=1.0, alpha=0.5, grid_n=128))


def test_wedge_value_symmetry(layout128):
    rng = np.random.default_rng(0)
    p = layout128.params
    for w in layout128.wedges[::5]:
        xi = rng.uniform(-30, 30, size=(500, 2))
        a = p.window(w.j, w.ell, xi)
        b = p.window(w.j, w.ell, -xi)
        assert np.array_equal(a, b) or np.allclose(a, b, atol=1e-15)


def test_wedge_value_zero_outside_bounding_rect(layout128):
    # the box 2**(j*s) x 2**(j*s*alpha) of the paper, turned to the tile
    rng = np.random.default_rng(1)
    p = layout128.params
    for w in layout128.wedges:
        if w.j in (0, p.scale_of_closure()):
            continue
        half_length, half_width = 2.0 ** (w.j * p.s - 1.0), 2.0 ** (w.j * p.s * p.alpha - 1.0)
        angle = w.ell * p.tile_angle(w.j)
        c, s = math.cos(angle), math.sin(angle)
        n = 100_000
        u = rng.uniform(-4 * half_length, 4 * half_length, n)
        v = rng.uniform(-4 * half_width, 4 * half_width, n)
        outside = (np.abs(u) > half_length) | (np.abs(v) > half_width)
        xi = np.stack([c * u - s * v, s * u + c * v], axis=-1)[outside]
        vals = p.window(w.j, w.ell, xi)
        assert np.all(vals == 0.0)


def test_wedge_value_one_on_core(layout128):
    p = layout128.params
    for w in layout128.wedges:
        lo, hi = p.radial_core(w.j)
        assert lo < hi
        r = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        theta = w.ell * p.tile_angle(w.j)
        xi = np.array([[r * math.cos(theta), r * math.sin(theta)]])
        val = p.window(w.j, w.ell, xi)
        assert val[0] == pytest.approx(1.0, abs=1e-14)


def test_wedge_value_at_origin(layout128):
    xi = np.zeros((1, 2))
    for w in layout128.wedges:
        val = layout128.params.window(w.j, w.ell, xi)
        expected = 1.0 if w.j == 0 else 0.0
        assert val[0] == expected


def test_partition_default(layout128):
    assert verify_partition(layout128) <= 1e-12


def test_partition_without_closure_leaves_corner_uncovered(layout128):
    n = layout128.params.grid_n
    acc = np.zeros(n * (n // 2 + 1))
    for sup in layout128.wedges[:-1]:  # the closure is the last tile
        acc[sup.grid_flat[: sup.n_spectrum]] += sup.window[: sup.n_spectrum] ** 2
    assert layout128.wedges[-1].j == layout128.params.scale_of_closure()
    assert np.abs(acc - 1.0).max() == pytest.approx(1.0)


def test_partition_single_corona():
    p = FrameParams(s=4.0, alpha=0.5, grid_n=16)
    assert p.j_max == 0
    lay = build_layout(p)
    assert len(lay.wedges) == 2  # ball plus closure
    assert verify_partition(lay) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0 / 3.0, 0.5, 0.75])
def test_partition_sweep(alpha):
    p = FrameParams(s=1.0, alpha=alpha, grid_n=256)
    assert verify_partition(build_layout(p)) <= 1e-12


def test_wrap_translates_disjoint(layout128):
    for sup in layout128.wedges:
        P1, P2 = sup.P1, sup.P2
        k1, k2, _ = sup.support()
        keys = (k1 % P1) * P2 + (k2 % P2)
        assert len(np.unique(keys)) == len(keys)
        assert sup.support_cardinality == len(keys)


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


def test_radial_intervals_reject_scales_out_of_range():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=128)
    for j in (-1, p.j_max + 2):
        with pytest.raises(ValueError, match="outside"):
            p.radial_support(j)
        with pytest.raises(ValueError, match="outside"):
            p.radial_core(j)
        with pytest.raises(ValueError, match="outside"):
            p.radial(j, [0.5])


@pytest.mark.parametrize(
    "params",
    [
        FrameParams(s=1.0, alpha=0.5, grid_n=1024),
        FrameParams(s=0.5, alpha=0.25, grid_n=256),
        FrameParams.nyquist_snapped(1.3, 0.0, 512),
    ],
    ids=["s1-n1024", "s0.5-n256", "snapped-s1.3-n512"],
)
def test_radial_support_is_the_window_support(params):
    radial = params.radial
    for j in range(params.j_max + 2):
        lo, hi = params.radial_support(j)
        top = hi if math.isfinite(hi) else 4.0 * lo
        inside = np.linspace(lo * (1 + 1e-3), top * (1 - 1e-3), 10_001)
        assert np.all(radial(j, inside) > 0), j
        outside = [r for r in (lo * (1 - 1e-3), hi * (1 + 1e-3)) if 0 < r < math.inf]
        assert np.all(radial(j, outside) == 0), j


def test_angular_factor_is_one_off_the_wedges_and_checks_ell():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=128)
    theta = np.linspace(-4.0, 4.0, 17)
    for j in (0, p.scale_of_closure()):
        assert np.array_equal(p.angular(j, 0, theta), np.ones_like(theta))
    L = p.tile_count(3)
    for ell in (L - L // 2, -(L // 2) - 1):
        with pytest.raises(ValueError, match="outside range"):
            p.angular(3, ell, theta)


def test_nyquist_snapped_tops_out_at_nyquist():
    p = FrameParams.nyquist_snapped(1.0, 0.5, 256)
    top = p.corona_constant * 2.0 ** (p.s * p.j_max) * p.tau2
    assert top == pytest.approx(256 / 4.0)
    assert verify_partition(build_layout(p)) <= 1e-12


@pytest.mark.parametrize(
    "args,C,j_max", [((1.0, 0.5, 1024), 0.6299605249474366, 8), ((0.73, 0.25, 512), 0.961483052482653, 9)]
)
def test_snapped_ladder_keeps_its_values(args, C, j_max):
    p = FrameParams.nyquist_snapped(*args)
    assert (p.snapped, p.corona_constant, p.j_max) == (True, C, j_max)
    assert FrameParams(*args, snapped=True) == p


def _radial_per_kind(p, j, r):
    """The radial window as one formula per kind of scale: ball, corona, closure."""
    lt1 = math.log2(p.tau1)
    dlt = math.log2(p.tau2) - lt1
    y = np.full(r.shape, -np.inf)
    y[r > 0] = np.log2(r[r > 0] / p.corona_constant)
    if j == 0:
        return _co_step((y - lt1) / dlt)
    if j == p.j_max + 1:
        out = smooth_step((y - (p.j_max * p.s + lt1)) / dlt)
    else:
        out = smooth_step((y - ((j - 1) * p.s + lt1)) / dlt) * _co_step((y - (j * p.s + lt1)) / dlt)
    out[~np.isfinite(y)] = 0.0
    return out


@pytest.mark.parametrize(
    "params",
    [FrameParams(s=1.0, alpha=0.5, grid_n=256), FrameParams.nyquist_snapped(0.73, 0.25, 512)],
    ids=["default-s1-n256", "snapped-s0.73-n512"],
)
def test_radial_is_the_per_kind_formula_bit_for_bit(params):
    r = np.linspace(0.0, 0.75 * params.grid_n, 20_001)
    for j in (0, 1, params.j_max // 2, params.j_max, params.j_max + 1):
        assert params.radial(j, r).tobytes() == _radial_per_kind(params, j, r).tobytes(), j


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
    from alphacurvelets.tiling import _collision_free

    k1 = np.array([p[0] for p in points], dtype=np.int64)
    k2 = np.array([p[1] for p in points], dtype=np.int64)
    P1, P2 = _searched_box(k1, k2, 128)
    assert P1 % 2 == 0 and P2 % 2 == 0
    assert 2 <= P1 <= 128 and 2 <= P2 <= 128
    assert _collision_free(_fold(k1, k2, P1, P2), P1 * P2)


def _searched_box(k1, k2, grid_n):
    """The box a tile that searches its own candidates takes."""
    return tiling._smaller(*tiling._wrap_families(k1, k2, grid_n))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-64, 63), st.integers(-64, 63)),
        min_size=1,
        max_size=300,
        unique=True,
    )
)
def test_the_transposed_box_comes_from_the_two_family_results(points):
    # so the build may give a transpose partner the first tile's boxes swapped
    k1 = np.array([p[0] for p in points], dtype=np.int64)
    k2 = np.array([p[1] for p in points], dtype=np.int64)
    c1, c2 = tiling._wrap_families(k1, k2, 128)
    assert tiling._wrap_families(k2, k1, 128) == (c2[::-1], c1[::-1])


def test_the_transposed_box_breaks_an_equal_area_tie_the_other_way():
    # tile (9, 14) of this frame has two candidates of equal area and
    # different shape; its transpose partner (9, 2), the first of the pair
    # to fold, takes the other one, and (9, 14) takes its boxes swapped
    p = FrameParams(s=0.8118314520104855, alpha=0.3809938040753181, grid_n=256)
    near_edge = set()
    tiling._scan_supports(p, near_edge)
    assert near_edge.isdisjoint({(9, 2), (9, 14)})  # so the pair shares one search
    tiles = {(sup.j, sup.ell): sup for sup in build_layout(p).wedges}
    assert p.tile_count(9) == 32
    k1, k2, _ = tiles[9, 14].support()
    assert np.array_equal(_support_keys(k2, k1, 256), _support_keys(*tiles[9, 2].support()[:2], 256))
    assert tiling._wrap_families(k1, k2, 256) == ((16, 14), (4, 56))
    assert _searched_box(k1, k2, 256) == (16, 14)
    assert _searched_box(k2, k1, 256) == (56, 4)  # not (14, 16), the first box swapped
    assert [(tiles[9, ell].P1, tiles[9, ell].P2) for ell in (14, 2)] == [(16, 14), (56, 4)]


def test_layout_matches_golden_file():
    import os

    p = FrameParams(s=1.0, alpha=0.5, grid_n=64)
    doc = json.loads(layout_to_json(build_layout(p)))
    golden_path = os.path.join(os.path.dirname(__file__), "data", "layout_s1_a05_n64.json")
    with open(golden_path) as f:
        golden = json.load(f)
    assert doc == golden


@pytest.mark.parametrize("snapped", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.7])
@pytest.mark.parametrize("grid", [64, 128, 256])
def test_every_window_equals_its_mirror_bit_for_bit(grid, alpha, snapped):
    p = FrameParams.nyquist_snapped(1.0, alpha, grid) if snapped else FrameParams(s=1.0, alpha=alpha, grid_n=grid)
    layout = build_layout(p)
    for sup in layout.wedges:
        k1, k2, window = sup.support()
        key = (k1 % grid) * grid + (k2 % grid)
        assert sup.support_cardinality == key.size == np.unique(key).size
        mirror = ((-k1) % grid) * grid + (-k2) % grid
        order = np.argsort(key)
        at = order[np.searchsorted(key, mirror, sorter=order)]
        assert np.array_equal(key[at], mirror)  # the support is symmetric
        assert np.array_equal(window[at], window)  # and so is every window sample


def test_windows_match_the_geometric_formula_on_the_full_support():
    # the mirrors copy values, so check them against a direct evaluation
    p = FrameParams.nyquist_snapped(1.0, 0.5, 128)
    layout = build_layout(p)
    for sup in layout.wedges:
        k1, k2, window = sup.support()
        xi = 0.5 * np.stack([k1, k2], axis=-1).astype(float)
        assert np.max(np.abs(p.window(sup.j, sup.ell, xi) - window), initial=0.0) <= 1e-13


ORACLE_CASES = [(g, a, snapped) for g in (64, 128) for a in (0.0, 0.25, 0.5, 0.9) for snapped in (False, True)]


def _oracle_layout(grid, alpha, snapped):
    p = FrameParams.nyquist_snapped(1.0, alpha, grid) if snapped else FrameParams(s=1.0, alpha=alpha, grid_n=grid)
    return build_layout(p)


@pytest.mark.parametrize("grid,alpha,snapped", ORACLE_CASES)
def test_windows_match_the_brute_force_oracle_over_the_whole_lattice(grid, alpha, snapped):
    # the scan evaluates each window once per reflection orbit on a quadrant;
    # the oracle evaluates every window at every signed lattice point
    layout = _oracle_layout(grid, alpha, snapped)
    k = np.arange(grid) - grid // 2
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    xi = 0.5 * np.stack([K1.ravel(), K2.ravel()], axis=-1).astype(float)
    for sup in layout.wedges:
        oracle = layout.params.window(sup.j, sup.ell, xi)
        k1, k2, window = sup.support()
        held = np.zeros(grid * grid)
        held[(k1 + grid // 2) * grid + (k2 + grid // 2)] = window
        assert np.max(np.abs(held - oracle)) <= 1e-12, (sup.j, sup.ell)
        in_support = np.zeros(grid * grid, dtype=bool)
        in_support[(k1 + grid // 2) * grid + (k2 + grid // 2)] = True
        assert in_support[oracle > 1e-15].all(), (sup.j, sup.ell)


@pytest.mark.parametrize("grid,alpha,snapped", ORACLE_CASES)
def test_reflected_tiles_are_row_flips_equal_to_the_constructor(grid, alpha, snapped):
    layout = _oracle_layout(grid, alpha, snapped)
    tiles = {(sup.j, sup.ell): sup for sup in layout.wedges}
    cols = grid // 2 + 1
    derived = 0
    for (j, ell), sup in tiles.items():
        if ell >= 0 or (j, -ell) not in tiles:
            continue
        derived += 1
        src = tiles[j, -ell]
        row, col = np.divmod(src.grid_flat, cols)
        assert np.array_equal(sup.grid_flat, (grid - row) % grid * cols + col)
        box_cols = src.P2 // 2 + 1
        row, col = np.divmod(src.box_flat, box_cols)
        assert np.array_equal(sup.box_flat, (src.P1 - row) % src.P1 * box_cols + col)
        assert np.array_equal(sup.window, src.window)
        ns = sup.n_spectrum
        built = TileSupport._fold(j, ell, grid, sup.grid_flat[:ns], sup.window[:ns])[0][0]
        for name in TileSupport.__slots__:
            a, b = getattr(built, name), getattr(sup, name)
            assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, (j, ell, name)
    assert derived == sum(L // 2 - 1 for L in map(layout.params.tile_count, range(1, layout.params.j_max + 1)))


def _oracle_scan(params, near_edge):
    """The lattice scan with full-quadrant lookups: every inner point's row
    mirror is made, then those binned in an unscanned tile are dropped."""
    n = params.grid_n
    half = n // 2
    cols = half + 1
    a, b = np.divmod(np.arange(cols * cols), cols)
    r = 0.5 * np.hypot(a, b)
    theta = np.arctan2(b, a)
    flat, row_mirror = a * cols + b, (n - a) * cols + b
    inner = (a > 0) & (a < half)
    same_tile = (b == 0) | (b == half)

    out = []
    for j in range(params.j_max + 2):
        lo, hi = params.radial_support(j)
        inside = r < hi
        if j > 0:
            inside &= r > lo
        pt = np.flatnonzero(inside)
        W = params.radial(j, r[pt])
        L, cbin = 1, np.zeros(pt.size, dtype=np.int64)
        if 0 < j <= params.j_max:
            L = params.tile_count(j)
            m = params.angular_bins(j, theta[pt])
            c_lo, c_hi, edges = tiling._candidate_centres(m, L)
            near_edge.update((j, c) for c in edges)
            second = c_hi != c_lo
            pt = np.concatenate([pt, pt[second]])
            centers = np.concatenate([c_lo, c_hi[second]])
            V = params.angular_from_bins(j, np.concatenate([m, m[second]]), centers)
            keep = V > 0
            pt, W = pt[keep], (np.concatenate([W, W[second]]) * V)[keep]
            cbin = centers[keep].astype(np.int64) % L
        mirrored = inner[pt]
        pm, cm = pt[mirrored], cbin[mirrored]
        tile = np.concatenate([cbin, np.where(same_tile[pm], cm, -cm % L)])
        scanned = tile <= L // 2
        f = np.concatenate([flat[pt], row_mirror[pm]])[scanned]
        W = np.concatenate([W, W[mirrored]])[scanned]
        tile = tile[scanned]
        order = np.argsort(tile, kind="stable")
        bounds = np.searchsorted(tile[order], np.arange(L // 2 + 2))
        for c in range(L // 2 + 1):
            sl = order[bounds[c] : bounds[c + 1]]
            out.append((j, c if 2 * c < L else c - L, f[sl], W[sl]))
    return out


@pytest.mark.parametrize("snapped", [False, True])
@pytest.mark.parametrize("grid", [64, 66, 130])
def test_the_scan_gives_the_entries_of_the_full_quadrant_oracle(grid, snapped):
    for alpha in (-0.5, 0.0, 0.5):
        for s in (0.75, 1.3):
            params = FrameParams(s, alpha, grid, snapped=snapped)
            edges, oracle_edges = set(), set()
            scan, oracle = tiling._scan_supports(params, edges), _oracle_scan(params, oracle_edges)
            assert [e[:2] for e in scan] == [e[:2] for e in oracle] and edges == oracle_edges
            for (j, ell, grid_flat, window), (_, _, oracle_flat, oracle_window) in zip(scan, oracle):
                for got, want in ((grid_flat, oracle_flat), (window, oracle_window)):
                    assert np.array_equal(got, want) and got.dtype == want.dtype, (alpha, s, j, ell)


@pytest.mark.parametrize("s", [0.75, 1.0, 1.3])
def test_nyquist_edge_is_carried_by_the_closure_window(s):
    # on the rows k1 = -n/2 and columns k2 = -n/2 (a lattice point and its
    # mirror there differ by n, not by sign) the closure's radial window
    # carries the whole partition; a snapped top corona can reach the two
    # points (0, -n/2) and (-n/2, 0) exactly, with a window of rounding size
    n = 64
    p = FrameParams.nyquist_snapped(s, 0.5, n)
    layout = build_layout(p)
    closure = p.scale_of_closure()
    half = n // 2
    reached = []
    for sup in layout.wedges:
        k1, k2, window = sup.support()
        edge = (k1 == -half) | (k2 == -half)
        if sup.j == closure:
            r = 0.5 * np.hypot(k1[edge], k2[edge])
            assert edge.sum() == 2 * n - 1
            assert np.array_equal(window[edge], p.radial(closure, r))
        elif edge.any():
            assert set(zip(k1[edge].tolist(), k2[edge].tolist())) <= {(0, -half), (-half, 0)}
            assert np.max(np.abs(window[edge])) <= 1e-14
            reached.append((sup.j, sup.ell))
    if s == 0.75:
        assert reached  # this ladder's top corona rounds up to the edge
    assert verify_partition(layout) <= 1e-12


# the slow oracle of the fold: the wrap search, the collision check and the
# box positions computed from the full support.  The search refolds the full
# support modulo both periods and counts each cell with bincount; the check
# refolds the full support once more.


def _fold(k1, k2, P1, P2):
    """Flat index of each lattice point on the ``P1 x P2`` wrap box."""
    return (k1 % P1) * P2 + (k2 % P2)


def _oracle_collision_free(keys, size):
    return np.bincount(keys, minlength=size).max() <= 1


def _oracle_wrap_periods(k1, k2, grid_n):
    m = len(k1)
    if m == 0:
        return 2, 2
    cands = []
    lo1, lo2 = k1.min(), k2.min()
    span1, span2 = int(k1.max() - lo1) + 1, int(k2.max() - lo2) + 1
    for ka, kb, lo_a, span_a, span_b, swap in (
        (k1, k2, lo1, span1, span2, False),
        (k2, k1, lo2, span2, span1, True),
    ):
        Pa = min(tiling._even_up(span_a), grid_n)
        Pb = max(2, tiling._even_up(np.bincount(ka - lo_a).max()), tiling._even_up(m / Pa))
        rows = ka % Pa
        tries = 0
        while Pb < min(span_b, grid_n) and not _oracle_collision_free(rows * Pb + kb % Pb, Pa * Pb):
            tries += 1
            Pb = Pb + 2 if tries <= 8 else tiling._even_up(Pb * 1.25)
        Pb = min(Pb, grid_n)
        cands.append((Pb, Pa) if swap else (Pa, Pb))
    return min(cands, key=lambda P: P[0] * P[1])


def _oracle_fold(grid_flat, n, wrap, periods=_oracle_wrap_periods):
    """``(P1, P2, grid_flat, box_flat)`` of a tile, or ``None`` on a collision."""
    half = n // 2
    k1, k2, omitted, full1, full2 = tiling._signed_support(grid_flat, n)
    P1 = P2 = n
    if wrap:
        P1, P2 = periods(full1, full2, n)
        if n % P1 and k1.min() == -half:
            P1 = n
        if n % P2 and k2.min() == -half:
            P2 = n
        if not _oracle_collision_free(_fold(full1, full2, P1, P2), P1 * P2):
            return None
    cols = P2 // 2 + 1
    m1, m2 = k1 % P1, k2 % P2
    conj = m2 >= cols
    extra = omitted & ((m2 == 0) | (m2 == cols - 1))
    mirrored = np.concatenate([conj.nonzero()[0], extra.nonzero()[0]])
    direct = (~conj).nonzero()[0]
    mm1, mm2 = -k1[mirrored] % P1, -k2[mirrored] % P2
    order = np.concatenate([direct, mirrored])
    box_flat = np.concatenate([m1[direct] * cols + m2[direct], mm1 * cols + mm2])
    return P1, P2, grid_flat[order], box_flat


@pytest.mark.parametrize("grid,snapped", [(g, snapped) for g in (64, 66, 128, 130) for snapped in (False, True)])
def test_the_fold_gives_the_boxes_of_the_full_support_oracle(grid, snapped):
    closure_tiles = 0
    for a in (-0.5, 0.0, 0.5, 0.9):
        for s in (0.5, 0.75, 1.0, 1.3):
            p = FrameParams.nyquist_snapped(s, a, grid) if snapped else FrameParams(s=s, alpha=a, grid_n=grid)
            for sup in build_layout(p).wedges:
                wrap = sup.j != p.scale_of_closure()
                P1, P2, grid_flat, box_flat = _oracle_fold(sup.grid_flat[: sup.n_spectrum], grid, wrap)
                assert (sup.P1, sup.P2) == (P1, P2), (a, s, sup.j, sup.ell)
                assert np.array_equal(sup.grid_flat, grid_flat), (a, s, sup.j, sup.ell)
                assert np.array_equal(sup.box_flat, box_flat), (a, s, sup.j, sup.ell)
                if not wrap:
                    closure_tiles += 1
                    assert np.array_equal(sup.box_flat, sup.grid_flat)
                    assert sup.n_direct == sup.n_spectrum
    assert closure_tiles == 16


@pytest.mark.parametrize("alpha,snapped", [(0.0, True), (0.5, False), (0.5, True), (0.9, True)])
def test_the_half_box_check_agrees_with_the_full_support_count(alpha, snapped):
    # on boxes that collide and boxes that do not, the fold refuses
    # exactly the boxes on which two points of the full support share a cell
    grid = 64
    p = FrameParams.nyquist_snapped(1.0, alpha, grid) if snapped else FrameParams(s=1.0, alpha=alpha, grid_n=grid)
    rng = np.random.default_rng(31)
    outcomes = set()
    for sup in build_layout(p).wedges:
        if sup.j == p.scale_of_closure() or sup.n_spectrum == 0:  # the search gives an empty tile (2, 2)
            continue
        grid_flat, window = sup.grid_flat[: sup.n_spectrum], sup.window[: sup.n_spectrum]
        for P1, P2 in 2 * rng.integers(1, grid // 2 + 1, size=(6, 2)):
            want = _oracle_fold(grid_flat, grid, True, lambda k1, k2, grid_n: (P1, P2))
            try:
                built = TileSupport._fold(sup.j, sup.ell, grid, grid_flat, window, boxes=((P1, P2), (P1, P2)))[0][0]
            except RuntimeError:
                built = None
            assert (built is None) == (want is None), (sup.j, sup.ell, P1, P2)
            if built is not None:
                assert (built.P1, built.P2) == want[:2] and np.array_equal(built.box_flat, want[3])
            outcomes.add(built is None)
    assert outcomes == {True, False}


# the transpose pairing: tile L/2 - ell takes tile ell's wrap box with its
# axes swapped, unless the scan flags a centre of their orbit near an edge


def _support_keys(k1, k2, grid):
    return np.sort((k1 % grid) * grid + k2 % grid)


def test_hypot_is_symmetric_on_the_quadrant():
    # the radial part of every support is the same on both sides of the transpose
    a, b = np.divmod(np.arange(513 * 513), 513)
    assert np.hypot(a, b).tobytes() == np.hypot(b, a).tobytes()


def test_the_edge_flags_are_the_centres_with_an_edge_near_a_bin():
    L = 64
    rng = np.random.default_rng(5)
    edges = np.arange(-3, L + 2) / 2 + 0.25  # c -+ 3/4 for every centre c
    offsets = np.array([0.0, 1e-12, -1e-12, 3e-6, -3e-6, 2e-5, -2e-5])
    # one bin on one side of each of 40 edges, so each flag has one source
    m = np.concatenate([rng.uniform(0, L / 2, 2000), rng.choice(edges[4:-4], 40) + rng.choice(offsets, 40)])
    c_lo, c_hi, flagged = tiling._candidate_centres(m, L)
    assert np.array_equal(c_lo, np.ceil(m - 0.75)) and np.array_equal(c_hi, np.floor(m + 0.75))
    centres = np.arange(-2, L // 2 + 3)
    gap = np.minimum(np.abs(m[:, None] - (centres - 0.75)), np.abs(m[:, None] - (centres + 0.75)))
    assert flagged == {int(c) % L for c in centres[(gap < tiling.EDGE_TOL).any(axis=0)]}
    assert len(flagged) > 10


def test_supports_off_by_rounding_at_an_edge_take_the_search(monkeypatch):
    # at grid 1024, alpha 0, snapped, the point (507, 7) lies 3e-7 bins inside
    # the angular edge of tile (8, 3), where its window rounds to zero, while
    # its transpose (7, 507) is in tile (8, 253); the two boxes differ, so
    # neither tile may take the other's
    grid = 1024
    searched = []
    search = tiling._wrap_families

    def recorded(k1, k2, grid_n):
        searched.append(_support_keys(k1, k2, grid_n))
        return search(k1, k2, grid_n)

    monkeypatch.setattr(tiling, "_wrap_families", recorded)
    p = FrameParams.nyquist_snapped(1.0, 0.0, grid)
    tiles = {(sup.j, sup.ell): sup for sup in build_layout(p).wedges}
    assert p.tile_count(8) == 512
    k1, k2, _ = tiles[8, 3].support()
    assert not np.array_equal(_support_keys(k2, k1, grid), _support_keys(*tiles[8, 253].support()[:2], grid))
    for ell in (3, 253):
        sup = tiles[8, ell]
        keys = _support_keys(*sup.support()[:2], grid)
        assert any(np.array_equal(keys, s) for s in searched), ell
        P1, P2, grid_flat, box_flat = _oracle_fold(sup.grid_flat[: sup.n_spectrum], grid, True)
        assert (sup.P1, sup.P2) == (P1, P2), ell
        assert np.array_equal(sup.grid_flat, grid_flat) and np.array_equal(sup.box_flat, box_flat), ell


def test_one_search_per_transpose_pair(monkeypatch):
    p = FrameParams(s=1.0, alpha=0.0, grid_n=128)
    near_edge = set()
    tiling._scan_supports(p, near_edge)
    assert not near_edge
    calls = []
    families = tiling._wrap_families

    def counted(k1, k2, grid_n):
        calls.append(k1.size)
        return families(k1, k2, grid_n)

    monkeypatch.setattr(tiling, "_wrap_families", counted)
    build_layout(p)
    # the ball, then per scale the pairs (ell, L/2 - ell) of 0 <= ell < L/4 and the tile L/4
    counts = [p.tile_count(j) for j in range(1, p.j_max + 1)]
    assert counts == [4, 8, 16, 32, 64, 128, 256]
    assert len(calls) == 1 + sum(L // 4 + 1 for L in counts)
