import math

import mpmath as mp
import numpy as np
import pytest

from alphacurvelets import bessel
from alphacurvelets.tiling import FrameParams

# frozen from the oracle, mpmath's besselj
J1_AT_2PI = -0.21238253007636911


def test_series_oracle_matches_half_order_closed_forms():
    rs = np.linspace(0.05, 50.0, 211)
    worst = 0.0
    for r in rs:
        plus = bessel.bessel_j_series(0.5, float(r))
        minus = bessel.bessel_j_series(-0.5, float(r))
        worst = max(
            worst,
            abs(plus - math.sqrt(2.0 / (math.pi * r)) * math.sin(r)),
            abs(minus - math.sqrt(2.0 / (math.pi * r)) * math.cos(r)),
        )
    assert worst <= 1e-12


def test_special_values():
    assert bessel.bessel_j(0.0, 0.0) == 1.0
    assert bessel.bessel_j(1.0, 0.0) == 0.0
    assert bessel.bessel_j(0.5, 0.0) == 0.0
    assert bessel.bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-13)
    assert bessel.bessel_j_series(0.5, math.pi / 2) == pytest.approx(0.6366197723675814, abs=1e-14)


def test_crossover_agreement_all_orders():
    r = np.array([bessel.CROSSOVER_RADIUS])
    for nu in bessel.SUPPORTED_ORDERS:
        a = bessel._series_smallr(nu, r)[0]
        b = bessel._asymptotic_larger(nu, r)[0]
        assert abs(a - b) <= 1e-12


def test_evaluator_against_oracle():
    rs = np.concatenate([np.linspace(0.02, 14.9, 40), np.linspace(15.0, 120.0, 40)])
    for nu in bessel.SUPPORTED_ORDERS:
        vals = bessel.bessel_j(nu, rs)
        for r, v in zip(rs, vals):
            assert abs(v - bessel.bessel_j_series(nu, float(r))) <= 5e-13


def test_half_order_closed_forms_via_evaluator():
    rs = np.linspace(0.05, 50.0, 400)
    plus = bessel.bessel_j(0.5, rs)
    minus = bessel.bessel_j(-0.5, rs)
    env = np.sqrt(2.0 / (np.pi * rs))
    assert np.max(np.abs(plus - env * np.sin(rs))) <= 1e-12
    assert np.max(np.abs(minus - env * np.cos(rs))) <= 1e-12


def test_derivative_recurrence():
    # d/dr[r J1(r)] = r J0(r), checked by central differences
    rs = np.linspace(0.1, 50.0, 300)
    h = 1e-5
    lhs = ((rs + h) * bessel.bessel_j(1.0, rs + h) - (rs - h) * bessel.bessel_j(1.0, rs - h)) / (2 * h)
    rhs = rs * bessel.bessel_j(0.0, rs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_disc_spectrum_values():
    assert bessel.disc_spectrum(np.array([0.0, 0.0])) == pytest.approx(math.pi / 4)
    expected = J1_AT_2PI / 4.0
    assert bessel.disc_spectrum(np.array([2.0, 0.0])) == pytest.approx(expected, abs=1e-13)
    # radial symmetry: rotations leave the value unchanged
    for ang in (0.3, 1.2, 2.9):
        xi = 2.0 * np.array([math.cos(ang), math.sin(ang)])
        assert bessel.disc_spectrum(xi) == pytest.approx(expected, abs=1e-13)
    r = np.linspace(0.0, 40.0, 2000)
    vals = bessel.disc_spectrum_radial(r)
    assert np.max(np.abs(vals)) <= math.pi / 4 + 1e-12


def test_wedge_energy_slope_parabolic():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=1024)
    scales = range(3, p.j_max + 1)
    energies = [bessel.wedge_energy_quadrature(p, j, "core") for j in scales]
    slope = np.polyfit(list(scales), np.log2(energies), 1)[0]
    assert -1.7 <= slope <= -1.3


def test_wedge_energy_slope_directional():
    p = FrameParams(s=1.0, alpha=0.0, grid_n=1024)
    scales = range(3, p.j_max + 1)
    energies = [bessel.wedge_energy_quadrature(p, j, "core") for j in scales]
    slope = np.polyfit(list(scales), np.log2(energies), 1)[0]
    assert abs(slope - (-2.0)) <= 0.2


def test_wedge_energy_core_below_window():
    # the squared window equals one on the core and is positive around it
    p = FrameParams(s=1.0, alpha=0.5, grid_n=256)
    core = bessel.wedge_energy_quadrature(p, 5, "core")
    window = bessel.wedge_energy_quadrature(p, 5, "window")
    assert 0 < core < window


def test_wedge_energy_rejects_closure_negative_scale_and_unknown_region():
    p = FrameParams(s=1.0, alpha=0.5, grid_n=256)
    with pytest.raises(ValueError, match="closure"):
        bessel.wedge_energy_quadrature(p, p.scale_of_closure())
    with pytest.raises(ValueError, match="outside"):
        bessel.wedge_energy_quadrature(p, -1)
    for region in ("core", "window"):  # no tile energy between two scales
        with pytest.raises(ValueError, match="scale j must be an integer"):
            bessel.wedge_energy_quadrature(p, 1.5, region)
    with pytest.raises(ValueError, match="unknown region"):
        bessel.wedge_energy_quadrature(p, 3, "outer")


def test_quadrature_reports_nonconvergence():
    with pytest.raises(bessel.QuadratureError):
        bessel._integrate(lambda r: np.cos(1e7 * r), 1.0, 2.0, 16, rel_tol=1e-14)


def test_remainder_bound_finite_and_stable():
    sup = bessel.remainder_bound_check(1.0, 100.0)
    sup_fine = bessel.remainder_bound_check(1.0, 100.0, points_per_log=8192)
    assert 0.25 <= sup <= 0.35
    assert abs(sup_fine - sup) / sup <= 0.01


def test_remainder_monotone_under_subinterval():
    assert bessel.remainder_bound_check(50.0, 100.0) <= bessel.remainder_bound_check(1.0, 100.0)


def test_remainder_vanishes_for_minus_half():
    assert bessel.remainder_bound_check(1.0, 100.0, order=-0.5) <= 1e-12


def test_errors():
    with pytest.raises(ValueError):
        bessel.bessel_j(0.25, 1.0)
    with pytest.raises(ValueError):
        bessel.bessel_j(1.0, -1.0)
    with pytest.raises(ValueError):
        bessel.remainder_bound_check(0.5, 10.0)
    with pytest.raises(ValueError, match="nonnegative"):
        bessel.bessel_j_series(1.0, -1.0)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            bessel.bessel_j_series(1.0, r)
    with pytest.raises(ValueError):
        bessel.bessel_j_series(0.25, 1.0)


def test_series_oracle_ignores_the_global_precision(monkeypatch):
    rs = (0.05, 1.0, 2.0 * math.pi, 30.94, 120.0)
    want = [bessel.bessel_j_series(nu, r) for nu in bessel.SUPPORTED_ORDERS for r in rs]
    monkeypatch.setattr(mp.mp, "dps", 5)
    assert [bessel.bessel_j_series(nu, r) for nu in bessel.SUPPORTED_ORDERS for r in rs] == want
    assert bessel.bessel_j_series(1.0, 2.0 * math.pi) == J1_AT_2PI
    assert mp.mp.dps == 5


def test_series_oracle_at_the_origin():
    for order in bessel.SUPPORTED_ORDERS:
        assert bessel.bessel_j_series(order, 0.0) == bessel.bessel_j(order, 0.0)
    assert bessel.bessel_j_series(0.0, 0.0) == 1.0
    assert bessel.bessel_j_series(-0.5, 0.0) == math.inf
