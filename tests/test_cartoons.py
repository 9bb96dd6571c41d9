import importlib
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphacurvelets import cartoons
from alphacurvelets.bessel import disc_spectrum
from alphacurvelets.cartoons import (
    BETA_LIMIT,
    CartoonSpec,
    SmoothFactor,
    _evaluate,
    _smooth,
    render,
)


def grid_positions(n):
    return -1.0 + 2.0 * np.arange(n) / n


def test_disc_mass_approaches_quarter_pi():
    for n in (128, 256):
        img = render(CartoonSpec(kind="disc"), n)
        mass = img.sum() * (2.0 / n) ** 2
        assert abs(mass - math.pi / 4) <= 2.0 / n
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_half_space_axis_aligned():
    n = 128
    img = render(CartoonSpec(kind="half_space", phi=0.0, c=0.0, antialias=1), n)
    x1 = grid_positions(n)
    expected = (x1 >= 0).astype(float)[:, None] * np.ones(n)[None, :]
    interior = np.abs(x1) > 2.0 / n
    assert np.array_equal(img[interior], expected[interior])


def test_half_space_complement_symmetry():
    # (phi, c) and (phi + pi, -c) describe the same edge with swapped
    # sides: away from the boundary row the two renders sum to the smooth
    # factor
    n = 128
    a = render(CartoonSpec(kind="half_space", phi=0.7, c=0.2, antialias=2), n)
    b = render(CartoonSpec(kind="half_space", phi=0.7 + math.pi, c=-0.2, antialias=2), n)
    x1 = grid_positions(n)
    X1, X2 = np.meshgrid(x1, x1, indexing="ij")
    dist = np.abs(X1 * math.cos(0.7) - X2 * math.sin(0.7) - 0.2)
    away = dist > 4.0 / n
    assert np.array_equal((a + b)[away], np.ones(away.sum()))


def test_render_deterministic():
    spec = CartoonSpec(kind="star", rho0=0.55, cos_coeffs=(0.1,), sin_coeffs=(0.0, 0.05))
    a = render(spec, 96)
    b = render(spec, 96)
    assert np.array_equal(a, b)


def test_smooth_factor_support_and_sup():
    for beta in (1, 2, 3):
        g = SmoothFactor(beta, nu=5.0)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(20000, 2))
        vals = g(pts)
        outside = np.any(np.abs(pts) >= 1.0, axis=-1)
        assert np.all(vals[outside] == 0.0)
        assert np.max(np.abs(vals)) <= 5.0
        # flat top attains the amplitude at the centre
        assert g(np.zeros((1, 2)))[0] == pytest.approx(g.flat_value)
        assert g.flat_value > 0


def test_smooth_factor_flat_top_for_all_orders():
    g1 = SmoothFactor(1, nu=3.0)
    g3 = SmoothFactor(3, nu=3.0)
    centre = np.zeros((1, 2))
    assert g1(centre)[0] == pytest.approx(g1.flat_value)
    assert g3(centre)[0] == pytest.approx(g3.flat_value)


def test_beta_limit_is_the_largest_beta_whose_ramp_evaluates_within_1e_10():
    grid = np.linspace(0.0, 1.0, 4097)  # SmoothFactor's grid

    def error(beta):
        """The ramp's largest float error against exact rational evaluation."""
        poly = cartoons._smoothstep_poly(beta)
        worst = Fraction(0)
        for x, got in zip(grid, poly(grid)):
            exact = Fraction(0)
            for c in poly.coef[::-1]:
                exact = exact * Fraction(x) + Fraction(c)
            worst = max(worst, abs(Fraction(got) - exact))
        return worst

    assert error(BETA_LIMIT) <= 1e-10 < error(BETA_LIMIT + 1)
    assert SmoothFactor(BETA_LIMIT, nu=1.0).flat_value > 0
    CartoonSpec(kind="smooth_bump", beta=BETA_LIMIT)
    message = rf"^beta must be at most BETA_LIMIT = {BETA_LIMIT}, got {BETA_LIMIT + 1}$"
    with pytest.raises(ValueError, match=message):
        SmoothFactor(BETA_LIMIT + 1, nu=1.0)
    for kind in ("half_space", "smooth_bump"):
        with pytest.raises(ValueError, match=message):
            CartoonSpec(kind=kind, beta=BETA_LIMIT + 1)


def test_smooth_factor_rejects_bad_beta_and_nu():
    for beta in (0, -1, 1.5):
        with pytest.raises(ValueError, match="beta"):
            SmoothFactor(beta, nu=1.0)
    for nu in (0.0, -2.0):
        with pytest.raises(ValueError, match="nu"):
            SmoothFactor(2, nu=nu)


def test_rendered_bump_second_differences_bounded():
    n = 256
    nu = 4.0
    img = render(CartoonSpec(kind="smooth_bump", beta=2, nu=nu, antialias=1), n)
    assert np.max(np.abs(img)) <= nu
    h = 2.0 / n
    d2x = (img[2:, :] - 2 * img[1:-1, :] + img[:-2, :]) / h**2
    d2y = (img[:, 2:] - 2 * img[:, 1:-1] + img[:, :-2]) / h**2
    bound = nu * 1.05
    assert np.max(np.abs(d2x)) <= bound
    assert np.max(np.abs(d2y)) <= bound


def test_disc_spectrum_grid_convergence():
    # the grid spectrum converges to the sampled analytic spectrum on a
    # fixed low-frequency band as the grid is refined
    errs = []
    for n in (128, 256, 512, 1024):
        img = render(CartoonSpec(kind="disc", antialias=4), n)
        F = np.fft.fft2(img)
        kmax = 32
        k = np.arange(-kmax, kmax + 1)
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        vals = (4.0 / n**2) * (-1.0) ** (K1 + K2) * F[K1 % n, K2 % n]
        exact = disc_spectrum(np.stack([K1 / 2.0, K2 / 2.0], axis=-1))
        errs.append(np.linalg.norm(vals.real - exact) / np.linalg.norm(exact))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_star_validation_and_render():
    with pytest.raises(ValueError, match="positive"):
        CartoonSpec(kind="star", rho0=0.2, cos_coeffs=(0.5,))
    with pytest.raises(ValueError, match="inside"):
        CartoonSpec(kind="star", rho0=0.9, sin_coeffs=(0.0, 0.2))
    spec = CartoonSpec(kind="star", rho0=0.5, cos_coeffs=(0.12,), sin_coeffs=(0.0, 0.06))
    img = render(spec, 128)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert 0.1 < img.mean() < 0.5


def per_sample_render(spec, n):
    """Oracle: ``_evaluate`` at every sample, with the smooth factor evaluated
    per sample, accumulated over the offsets."""
    a = spec.antialias
    h = 2.0 / n
    base = -1.0 + h * np.arange(n)
    offsets = h * (np.arange(a) + 0.5) / a
    g = _smooth(spec)
    acc = np.zeros((n, n))
    for o1 in offsets:
        for o2 in offsets:
            X1, X2 = np.broadcast_arrays((base + o1)[:, None], (base + o2)[None, :])
            acc += _evaluate(spec, X1, X2, None if g is None else g(np.stack([X1, X2], axis=-1)))
    return acc / (a * a)


ORACLE_SPECS = [
    dict(kind="disc"),
    dict(kind="half_space", phi=0.7, c=0.1),
    dict(kind="half_space", phi=2.3, c=-0.2, beta=2, nu=7.0),
    dict(kind="smooth_bump", beta=3, nu=40.0),
    dict(kind="star", rho0=0.45, cos_coeffs=(0.05,), sin_coeffs=(0.0, 0.03)),
]


@pytest.mark.parametrize("kw", ORACLE_SPECS, ids=lambda kw: kw["kind"] + str(kw.get("beta", "")))
@pytest.mark.parametrize("n, antialias", [(37, 1), (37, 2), (37, 3), (64, 8), (300, 8), (400, 8)])
def test_render_matches_per_sample_oracle(kw, n, antialias, each_sharing_worker):
    # n=300 spans two row blocks of 218 rows and n=400 three of 163, the
    # last partial
    spec = CartoonSpec(antialias=antialias, **kw)
    want = per_sample_render(spec, n).tobytes()
    # the worker takes every block it can, none, as many as it gets to, and
    # none when it starts late, its task cancelled
    assert [img.tobytes() == want for img in each_sharing_worker(lambda: render(spec, n))] == [True] * 4


def record_evaluate(monkeypatch):
    """Patch ``_evaluate`` to record each call's ``(spec, x1, x2, smooth)``."""
    calls = []
    evaluate = cartoons._evaluate

    def recording(spec, x1, x2, smooth=None):
        calls.append((spec, x1, x2, smooth))
        return evaluate(spec, x1, x2, smooth)

    monkeypatch.setattr(cartoons, "_evaluate", recording)
    return calls


@pytest.mark.parametrize("kw", ORACLE_SPECS, ids=lambda kw: kw["kind"] + str(kw.get("beta", "")))
def test_render_broadcasts_rows_against_columns(kw, monkeypatch):
    # the smooth factor's pass rests on this: _evaluate never sees a full
    # coordinate array there, so each axis term is computed once per row and
    # once per column.  The edge cells' samples are gathered 1-D arrays (the
    # next test); a kind without a smooth factor makes no broadcast call
    calls = record_evaluate(monkeypatch)
    spec = CartoonSpec(antialias=3, **kw)
    n = 300
    render(spec, n)
    calls = [(x1.shape, x2.shape, None if p is None else p.shape) for _, x1, x2, p in calls if x1.ndim == 2]
    if _smooth(spec) is None:
        assert calls == []
        return
    assert {x2 for _, x2, _ in calls} == {(n,)}
    assert all(len(x1) == 2 and x1[1] == 1 for x1, _, _ in calls)
    assert sum(x1[0] for x1, _, _ in calls) == n * 3 * 3  # each row once per pair of sub-offsets
    assert all(p == (x1[0], n) for x1, _, p in calls)


EDGED_SPECS = [kw for kw in ORACLE_SPECS if kw["kind"] != "smooth_bump"]


@pytest.mark.parametrize("kw", EDGED_SPECS, ids=lambda kw: kw["kind"] + str(kw.get("beta", "")))
def test_render_evaluates_only_the_cells_an_edge_can_cross(kw, monkeypatch):
    calls = record_evaluate(monkeypatch)
    n, a = 300, 3
    spec = CartoonSpec(antialias=a, **kw)
    img = render(spec, n)
    h = 2.0 / n
    gathered = [(x1, x2) for _, x1, x2, _ in calls if x1.ndim == 1]
    assert all(sp is spec for sp, x1, _, _ in calls if x1.ndim == 1)
    rows = np.floor((np.concatenate([x1 for x1, _ in gathered]) + 1.0) / h).astype(int)
    cols = np.floor((np.concatenate([x2 for _, x2 in gathered]) + 1.0) / h).astype(int)
    cells, counts = np.unique(rows * n + cols, return_counts=True)
    # every sample of an edge cell once, and no other sample
    assert len(rows) == a * a * len(cells)
    assert set(counts) == {a * a}
    assert len(cells) < 0.03 * n * n
    # a cell the edge crosses is among them: its samples do not all agree
    if _smooth(spec) is None:
        crossed = (img > 0) & (img < 1)
    else:
        bump = render(CartoonSpec(kind="smooth_bump", beta=spec.beta, nu=spec.nu, antialias=a), n)
        crossed = (img != 0) & (img != bump)
    assert crossed.any()
    assert np.isin(np.flatnonzero(crossed), cells).all()


@st.composite
def edged_specs(draw):
    """A disc, half-space (``beta`` 0-3) or star spec, at antialias 1-8."""
    kind, a = draw(st.sampled_from(["disc", "half_space", "star"])), draw(st.integers(1, 8))
    if kind == "disc":
        return CartoonSpec(kind="disc", antialias=a)
    if kind == "half_space":
        return CartoonSpec(
            kind="half_space",
            phi=draw(st.floats(-4.0, 4.0)),
            c=draw(st.floats(-1.5, 1.5)),
            beta=draw(st.integers(0, 3)),
            nu=draw(st.floats(0.1, 100.0)),
            antialias=a,
        )
    coeffs = st.lists(st.floats(-0.3, 0.3), max_size=6).map(tuple)
    try:
        return CartoonSpec(
            kind="star", rho0=draw(st.floats(0.01, 1.0)), cos_coeffs=draw(coeffs), sin_coeffs=draw(coeffs), antialias=a
        )
    except ValueError:  # rho leaves (0, 1]
        assume(False)


@settings(max_examples=300, deadline=None)
@given(edged_specs(), st.integers(2, 80))
def test_render_matches_the_oracle_on_random_edges(spec, n):
    assert render(spec, n).tobytes() == per_sample_render(spec, n).tobytes()


def sample_x1(n, a, row, offset):
    """The x1 of a sub-sample, computed as ``render`` computes it."""
    h = 2.0 / n
    return float((-1.0 + h * np.arange(n))[row] + (h * (np.arange(a) + 0.5) / a)[offset])


HARD_EDGES = {
    # an edge through sample points of grid 37, antialias 3: x1 = c there, so
    # the test holds with equality (nearly, for phi = pi: sin(pi) = 1.2e-16)
    "sample-points": (37, dict(kind="half_space", phi=0.0, c=sample_x1(37, 3, 10, 1))),
    "sample-points-smooth": (37, dict(kind="half_space", phi=0.0, c=sample_x1(37, 3, 25, 0), beta=2, nu=7.0)),
    "sample-points-flipped": (37, dict(kind="half_space", phi=math.pi, c=-sample_x1(37, 3, 30, 2))),
    # a star whose radius has a steep slope: S = 0.02 * (51 + ... + 60) = 11.1
    "steep-star-37": (37, dict(kind="star", rho0=0.5, cos_coeffs=(0.0,) * 50 + (0.02,) * 10)),
    "steep-star-80": (80, dict(kind="star", rho0=0.5, cos_coeffs=(0.0,) * 50 + (0.02,) * 10)),
    # stars whose edge passes 5e-4 from the origin, at angles pi and pi/2
    "star-by-origin-37": (37, dict(kind="star", rho0=0.3, cos_coeffs=(0.2995,))),
    "star-by-origin-80": (80, dict(kind="star", rho0=0.3, cos_coeffs=(0.2995,))),
    "star-by-origin-2": (80, dict(kind="star", rho0=0.3, cos_coeffs=(0.0, 0.05), sin_coeffs=(-0.2495,))),
}


@pytest.mark.parametrize("n, kw", HARD_EDGES.values(), ids=HARD_EDGES.keys())
def test_render_matches_the_oracle_on_hard_edges(n, kw):
    spec = CartoonSpec(antialias=3, **kw)
    assert render(spec, n).tobytes() == per_sample_render(spec, n).tobytes()


def test_render_memory_stays_within_a_tenth_of_sampling_every_cell(stand_in):
    # tracemalloc peaks, in bytes, of the render that evaluated every sample
    # of every cell, taken the same way (numpy 2.4, grid 512, antialias 8,
    # the calling thread taking every block); the image alone is 2,097,152
    every_cell = {"disc": 2_802_096, "half_space": 3_362_728}
    stand_in("RecordingWorker")
    specs = [
        CartoonSpec(kind="disc", antialias=8),
        # straight-edge-rate's edge
        CartoonSpec(kind="half_space", phi=0.9272952180016122, c=0.13, beta=2, nu=60.0, antialias=8),
    ]
    for spec in specs:
        tracemalloc.start()
        try:
            render(spec, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * every_cell[spec.kind], spec.kind


def test_star_validation_bounds_the_radius_between_check_points():
    # rho(pi) = 0, and pi falls between two of the 4096 check points
    t = np.linspace(0.0, 2.0 * math.pi, 4096)
    assert np.min(0.1 + 0.1 * np.cos(t)) > 0
    with pytest.raises(ValueError, match="positive"):
        CartoonSpec(kind="star", rho0=0.1, cos_coeffs=(0.1,))
    # rho(u) = 1 + 5e-8 at u, the midpoint of the first two check points,
    # and at most 1 on every check point
    u = t[1] / 2
    rho0, b = 0.55 + 5e-8, 0.45
    assert np.max(rho0 + b * np.cos(t - u)) <= 1.0 < rho0 + b
    with pytest.raises(ValueError, match="inside"):
        CartoonSpec(kind="star", rho0=rho0, cos_coeffs=(b * math.cos(u),), sin_coeffs=(b * math.sin(u),))
    # a radius within the bound on either side is taken
    CartoonSpec(kind="star", rho0=0.55 - 1e-3, cos_coeffs=(b * math.cos(u),), sin_coeffs=(b * math.sin(u),))
    CartoonSpec(kind="star", rho0=1.0)


def test_every_pool_star_of_the_benchmark_is_taken(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    for seed in range(1, 51):
        kinds = [spec.kind for spec in workloads.NTermRoundtrip.pool_specs(seed)]  # refused specs would raise
        assert "star" in kinds


def test_render_rejects_non_integral_grid():
    spec = CartoonSpec(kind="disc", antialias=1)
    for bad in (100.5, 64.0, "64", None, 1):
        with pytest.raises(ValueError, match="grid_n"):
            render(spec, bad)
    assert np.array_equal(render(spec, np.int64(64)), render(spec, 64))


def test_spec_rejects_bad_beta_and_nu():
    for beta in (0.5, -2, 2.5, "2", float("nan")):
        with pytest.raises(ValueError, match="beta"):
            CartoonSpec(kind="half_space", beta=beta)
    for kw in (dict(kind="half_space", beta=1), dict(kind="smooth_bump")):
        for nu in (0.0, -1.0):
            with pytest.raises(ValueError, match="nu"):
                CartoonSpec(nu=nu, **kw)
    # nu is unused without a smooth factor
    CartoonSpec(kind="half_space", beta=0, nu=0.0)
    CartoonSpec(kind="disc", nu=-1.0)
    # a smooth bump of beta 0 is rendered as beta 1
    bump = render(CartoonSpec(kind="smooth_bump", beta=0, nu=3.0, antialias=2), 32)
    assert np.array_equal(bump, render(CartoonSpec(kind="smooth_bump", beta=1, nu=3.0, antialias=2), 32))


def test_bad_kind_and_antialias():
    with pytest.raises(ValueError):
        CartoonSpec(kind="squircle")
    with pytest.raises(ValueError):
        CartoonSpec(kind="disc", antialias=0)


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", None, -2, np.int64(0)])
def test_spec_rejects_a_non_integral_or_small_antialias(bad):
    with pytest.raises(ValueError, match="antialias"):
        CartoonSpec(kind="disc", antialias=bad)


def test_spec_takes_numpy_integer_antialias():
    spec = CartoonSpec(kind="disc", antialias=np.int64(3))
    assert type(spec.antialias) is int
    assert spec == CartoonSpec(kind="disc", antialias=3)
    assert np.array_equal(render(spec, 32), render(CartoonSpec(kind="disc", antialias=3), 32))


@pytest.mark.parametrize(
    "kind,field,value",
    [
        ("half_space", "phi", math.nan),
        ("half_space", "c", math.inf),
        ("star", "rho0", math.nan),
        ("star", "cos_coeffs", (math.nan,)),
        ("star", "sin_coeffs", (0.1, -math.inf)),
        ("smooth_bump", "nu", math.inf),
    ],
)
def test_spec_refuses_a_non_finite_field(kind, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CartoonSpec(kind=kind, **{field: value})


def test_a_render_of_more_than_the_sample_limit_is_refused(monkeypatch):
    # the limit is lowered so that neither side of it takes real work
    monkeypatch.setattr(cartoons, "SAMPLE_LIMIT", 256)
    spec = CartoonSpec(kind="disc", antialias=2)
    assert render(spec, 8).shape == (8, 8)  # 8**2 * 2**2 = 256 samples
    with pytest.raises(ValueError, match=r"^a render at grid 10, antialias 2 takes 400 samples, above SAMPLE_LIMIT = 256$"):
        render(spec, 10)
    assert cartoons.check_render(spec, np.int64(8)) == 8
