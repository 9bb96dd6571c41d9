import json
import math
import os

import numpy as np
import pytest

from alphacurvelets.bessel import DiscSpectrum
from alphacurvelets.cartoons import (
    CartoonSpec,
    _evaluate,
    cartoon_from_json,
    cartoon_to_json,
    analytic_spectrum,
    render,
    smooth_factor,
    write_pgm,
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
        g = smooth_factor(beta, nu=5.0)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(20000, 2))
        vals = g(pts)
        outside = np.any(np.abs(pts) >= 1.0, axis=-1)
        assert np.all(vals[outside] == 0.0)
        assert np.max(np.abs(vals)) <= 5.0
        # flat top attains the amplitude at the centre
        assert g(np.zeros((1, 2)))[0] == pytest.approx(g.flat_value)
        assert g.flat_value > 0


def test_smooth_factor_flat_top_for_all_orders():
    g1 = smooth_factor(1, nu=3.0)
    g3 = smooth_factor(3, nu=3.0)
    centre = np.zeros((1, 2))
    assert g1(centre)[0] == pytest.approx(g1.flat_value)
    assert g3(centre)[0] == pytest.approx(g3.flat_value)


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


def test_analytic_spectrum_capabilities():
    assert isinstance(analytic_spectrum(CartoonSpec(kind="disc")), DiscSpectrum)
    assert analytic_spectrum(CartoonSpec(kind="half_space", phi=0.1, c=0.0)) is None
    assert analytic_spectrum(CartoonSpec(kind="star", rho0=0.5)) is None


def test_disc_spectrum_grid_convergence():
    # the grid spectrum converges to the sampled analytic spectrum on a
    # fixed low-frequency band as the grid is refined
    spect = DiscSpectrum()
    errs = []
    for n in (128, 256, 512, 1024):
        img = render(CartoonSpec(kind="disc", antialias=4), n)
        F = np.fft.fft2(img)
        kmax = 32
        k = np.arange(-kmax, kmax + 1)
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        vals = (4.0 / n**2) * (-1.0) ** (K1 + K2) * F[K1 % n, K2 % n]
        exact = spect(np.stack([K1 / 2.0, K2 / 2.0], axis=-1))
        errs.append(np.linalg.norm(vals.real - exact) / np.linalg.norm(exact))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_star_validation_and_render():
    with pytest.raises(ValueError):
        CartoonSpec(kind="star", rho0=0.2, cos_coeffs=(0.5,))
    spec = CartoonSpec(kind="star", rho0=0.5, cos_coeffs=(0.12,), sin_coeffs=(0.0, 0.06))
    img = render(spec, 128)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert 0.1 < img.mean() < 0.5


def per_sample_render(spec, n):
    """Oracle: ``_evaluate`` at every sample, accumulated over the offsets."""
    a = spec.antialias
    h = 2.0 / n
    base = -1.0 + h * np.arange(n)
    offsets = h * (np.arange(a) + 0.5) / a
    acc = np.zeros((n, n))
    for o1 in offsets:
        for o2 in offsets:
            X1, X2 = np.broadcast_arrays((base + o1)[:, None], (base + o2)[None, :])
            acc += _evaluate(spec, X1, X2)
    return acc / (a * a)


ORACLE_SPECS = [
    dict(kind="disc"),
    dict(kind="half_space", phi=0.7, c=0.1),
    dict(kind="half_space", phi=2.3, c=-0.2, beta=2, nu=7.0),
    dict(kind="smooth_bump", beta=3, nu=40.0),
    dict(kind="star", rho0=0.45, cos_coeffs=(0.05,), sin_coeffs=(0.0, 0.03)),
]


@pytest.mark.parametrize("kw", ORACLE_SPECS, ids=lambda kw: kw["kind"] + str(kw.get("beta", "")))
@pytest.mark.parametrize("n, antialias", [(37, 1), (37, 2), (37, 3), (64, 8), (300, 8)])
def test_render_matches_per_sample_oracle(kw, n, antialias):
    # n=300 at antialias 8 spans two row blocks of 218 rows
    spec = CartoonSpec(antialias=antialias, **kw)
    assert render(spec, n).tobytes() == per_sample_render(spec, n).tobytes()


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
        with pytest.raises(ValueError, match="beta"):
            cartoon_from_json(json.dumps({"kind": "half_space", "beta": beta}))
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
    assert cartoon_from_json(cartoon_to_json(spec)) == spec


def test_json_round_trip():
    spec = CartoonSpec(kind="half_space", phi=1.25, c=-0.1, beta=2, nu=7.0, antialias=8)
    back = cartoon_from_json(cartoon_to_json(spec))
    assert back == spec


def test_pgm_dump(tmp_path):
    img = render(CartoonSpec(kind="disc"), 32)
    path = write_pgm(img, os.fspath(tmp_path / "disc.pgm"))
    lines = open(path).read().split("\n")
    assert lines[0] == "P2"
    assert lines[1] == "32 32"
    assert lines[2] == "255"
    assert len(lines[3].split()) == 32


def test_star_class_report():
    from alphacurvelets.cartoons import star_class_report

    spec = CartoonSpec(kind="star", rho0=0.5, cos_coeffs=(0.1,), beta=2, nu=10.0)
    rep = star_class_report(spec)
    assert rep["rho0"] == pytest.approx(0.4, abs=1e-3)
    # second derivative of 0.1*cos(t) oscillates by 0.2; budget floor is 1/rho0
    assert rep["implied_nu"] == pytest.approx(max(0.2 / 0.4, 1 / 0.4), rel=1e-2)
    assert rep["member"] is True
    tight = CartoonSpec(kind="star", rho0=0.5, cos_coeffs=(0.1,), beta=2, nu=1.0)
    assert star_class_report(tight)["member"] is False
    with pytest.raises(ValueError):
        star_class_report(CartoonSpec(kind="disc"))
