import math
from fractions import Fraction

import numpy as np
import pytest

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
def test_render_matches_per_sample_oracle(kw, n, antialias, each_worker):
    # at antialias 8, n=300 spans two row blocks of 218 rows and n=400
    # three of 163, the last partial; a star's blocks are 8192 // n rows
    spec = CartoonSpec(antialias=antialias, **kw)
    want = per_sample_render(spec, n).tobytes()
    # the worker takes every block it can, none, and as many as it gets to
    assert [img.tobytes() == want for img in each_worker(lambda: render(spec, n))] == [True] * 3


@pytest.mark.parametrize("kw", ORACLE_SPECS, ids=lambda kw: kw["kind"] + str(kw.get("beta", "")))
def test_render_broadcasts_rows_against_columns(kw, monkeypatch):
    # the speed rests on this: _evaluate never sees a full coordinate array,
    # so each axis term is computed once per row and once per column
    calls = []
    evaluate = cartoons._evaluate

    def recording(spec, x1, x2, smooth=None):
        calls.append((x1.shape, x2.shape, None if smooth is None else smooth.shape))
        return evaluate(spec, x1, x2, smooth)

    monkeypatch.setattr(cartoons, "_evaluate", recording)
    spec = CartoonSpec(antialias=3, **kw)
    n = 300
    render(spec, n)
    assert {x2 for _, x2, _ in calls} == {(n,)}
    assert all(len(x1) == 2 and x1[1] == 1 for x1, _, _ in calls)
    assert sum(x1[0] for x1, _, _ in calls) == n * 3 * 3  # each row once per pair of sub-offsets
    smooth = _smooth(spec) is not None
    assert all(p == ((x1[0], n) if smooth else None) for x1, _, p in calls)


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
