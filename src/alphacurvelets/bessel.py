"""Bessel evaluators and analytic energy oracles for the disc indicator.

``bessel_j`` is the production evaluator for orders ``{-1/2, 0, 1/2, 1}``:
a power series summed in 80-bit extended precision below the crossover
radius and an adaptive large-argument cosine expansion above it, the two
paths agreeing to ~1e-13 absolute at the crossover.  The experiment
``bessel-check`` checks ``bessel_j`` on both paths against the closed
forms of ``J_{+-1/2}``.  ``bessel_j_series`` is the slow scalar oracle:
mpmath's ``besselj``, an implementation independent of the recurrence
``bessel_j`` sums; tests freeze expected values from it.

The spectrum of the indicator of the radius-1/2 disc is
``J_1(pi*|xi|) / (2*|xi|)``; its energy over a tile reduces to a 1-D
radial integral, done here by composite-midpoint quadrature with a
doubling (Richardson) convergence check.
"""

from __future__ import annotations

import math

import numpy as np

from .tiling import FrameParams, as_index

__all__ = [
    "SUPPORTED_ORDERS",
    "CROSSOVER_RADIUS",
    "bessel_j",
    "bessel_j_series",
    "disc_spectrum",
    "disc_spectrum_radial",
    "wedge_energy_quadrature",
    "remainder_bound_check",
    "QuadratureError",
]

SUPPORTED_ORDERS = (-0.5, 0.0, 0.5, 1.0)
CROSSOVER_RADIUS = 15.0

_GAMMA_NU_PLUS_1 = {
    -0.5: math.sqrt(math.pi),
    0.0: 1.0,
    0.5: math.sqrt(math.pi) / 2.0,
    1.0: 1.0,
}

_VALUE_AT_ZERO = {-0.5: math.inf, 0.0: 1.0, 0.5: 0.0, 1.0: 0.0}


class QuadratureError(RuntimeError):
    """Raised when the doubling check does not certify convergence."""


def _check_order(order: float) -> float:
    order = float(order)
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported order {order}; supported: {SUPPORTED_ORDERS}")
    return order


def _series_smallr(nu: float, r: np.ndarray) -> np.ndarray:
    """Power series in extended precision; accurate for r below crossover.

    Terms are generated by the two-term recurrence; the 80-bit mantissa
    absorbs the alternating-series cancellation (max term ~ e^r / r) so
    the float64 result is accurate to ~1e-14 absolute up to r ~ 20.
    """
    r = np.asarray(r, dtype=np.longdouble)
    half = 0.5 * r
    term = half ** np.longdouble(nu) / np.longdouble(_GAMMA_NU_PLUS_1[nu])
    acc = term.copy()
    z = half * half
    for k in range(1, 80):
        term = -term * z / np.longdouble(k * (k + nu))
        acc += term
        if np.max(np.abs(term)) < 1e-19 * max(np.max(np.abs(acc)), 1e-30):
            break
    return acc.astype(np.float64)


def _asymptotic_larger(nu: float, r: np.ndarray) -> np.ndarray:
    """Large-argument cosine expansion with per-element adaptive order.

    ``sqrt(2/(pi r)) (cos(w) P - sin(w) Q)`` with ``w = r - nu pi/2 - pi/4``;
    terms are added per element while they still decrease, which realizes
    the optimal truncation (error ~ e^(-2r)).  For half-integer orders all
    correction terms vanish and the leading term is exact.
    """
    r = np.asarray(r, dtype=float)
    mu = 4.0 * nu * nu
    omega = r - 0.5 * math.pi * nu - 0.25 * math.pi
    P = np.ones_like(r)
    Q = np.zeros_like(r)
    term = np.ones_like(r)
    prev = np.full_like(r, np.inf)
    active = np.ones(r.shape, dtype=bool)
    a = 1.0
    for k in range(1, 60):
        a *= (mu - (2 * k - 1) ** 2) / (8.0 * k)
        if a == 0.0:
            break
        term = term / r  # accumulate r^-k incrementally
        mag = np.abs(a) * term
        active &= mag < prev
        if not np.any(active):
            break
        prev = np.where(active, mag, prev)
        contrib = np.where(active, a * term, 0.0)
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 0:
            P = P + sign * contrib
        else:
            Q = Q + sign * contrib
        if np.max(mag[active]) < 1e-19:
            break
    return np.sqrt(2.0 / (math.pi * r)) * (np.cos(omega) * P - np.sin(omega) * Q)


def bessel_j(order: float, r) -> np.ndarray | float:
    """Bessel function of the first kind for the supported orders.

    Accepts scalars or arrays of nonnegative radii; absolute accuracy is
    ~1e-13 across the positive axis.
    """
    nu = _check_order(order)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("radii must be finite and nonnegative")
    out = np.empty_like(arr)
    zero = arr == 0.0
    small = (~zero) & (arr < CROSSOVER_RADIUS)
    large = arr >= CROSSOVER_RADIUS
    out[zero] = _VALUE_AT_ZERO[nu]
    if np.any(small):
        out[small] = _series_smallr(nu, arr[small])
    if np.any(large):
        out[large] = _asymptotic_larger(nu, arr[large])
    return float(out[0]) if np.isscalar(r) or np.ndim(r) == 0 else out


def bessel_j_series(order: float, r: float) -> float:
    """mpmath's ``besselj`` at 30 digits: the slow scalar oracle.

    The name is kept from when the oracle summed the defining power
    series; tests call it and the benchmark tracer patches it by this
    name.  Only a call imports mpmath, which the package's ``test`` extra
    installs: no run path needs it.  The working precision is pinned
    locally, so a caller's global ``mp.dps`` does not move the value.
    """
    import mpmath as mp

    nu = _check_order(order)
    if not (math.isfinite(r) and r >= 0):
        raise ValueError("radii must be finite and nonnegative")
    with mp.workdps(30):
        return float(mp.besselj(nu, r))


def disc_spectrum_radial(r) -> np.ndarray | float:
    """``J_1(pi r) / (2 r)`` with the removable singularity filled."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.full_like(arr, math.pi / 4.0)
    pos = arr > 0
    out[pos] = bessel_j(1.0, math.pi * arr[pos]) / (2.0 * arr[pos])
    return float(out[0]) if np.ndim(r) == 0 else out


def disc_spectrum(xi) -> np.ndarray | float:
    """Disc spectrum at frequency points ``xi`` of shape (..., 2)."""
    xi = np.asarray(xi, dtype=float)
    r = np.hypot(xi[..., 0], xi[..., 1])
    return disc_spectrum_radial(r)


def _midpoint(f, a: float, b: float, n: int) -> float:
    x = a + (b - a) * (np.arange(n) + 0.5) / n
    return float(np.sum(f(x)) * (b - a) / n)


def _integrate(f, a: float, b: float, n0: int, rel_tol: float = 1e-3) -> float:
    """Composite midpoint on ``a < b`` with a doubling convergence certificate."""
    n = max(int(n0), 16)
    prev = _midpoint(f, a, b, n)
    for _ in range(8):
        n *= 2
        cur = _midpoint(f, a, b, n)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"midpoint rule did not converge to {rel_tol:.0e} relative on "
        f"[{a:.6g}, {b:.6g}] after {n} points"
    )


def wedge_energy_quadrature(params: FrameParams, j: int, region: str = "core") -> float:
    """Disc-spectrum energy over one scale-``j`` tile region, by radial quadrature.

    Every tile of a scale is a rotation of the same tile, so the energy
    depends on ``j`` alone.  ``region`` selects the flat-top core
    (``"core"``, the indicator of the core wedge pair) or the smooth
    squared window itself (``"window"``).  By radial symmetry the angular
    integral is a constant: the angular measure ``phi_j`` of the core
    wedge pair, or ``2*pi / L_j`` exactly for the squared window; the ball
    takes ``2*pi``.  The radial intervals are
    :meth:`FrameParams.radial_core` and :meth:`FrameParams.radial_support`.
    The radial quadrature starts at 16 points per unit radius, at least 64
    (the integrand oscillates with unit period), and doubles until two
    successive sums agree to 1e-3 relative.  The closure band
    ``j_max + 1`` has no analytic energy and is refused, as are scales
    outside ``[0, j_max]``.
    """
    if j == params.scale_of_closure():
        raise ValueError("closure band has no analytic tile energy")
    if region == "core":
        lo, hi = params.radial_core(j)
        measure = 2.0 * math.pi if j == 0 else params.tile_angle(j)

        def integrand(r):
            # midpoints are interior, so r > 0 always; regular at the origin
            return bessel_j(1.0, math.pi * r) ** 2 / (4.0 * r)

    elif region == "window":
        lo, hi = params.radial_support(j)
        measure = 2.0 * math.pi / params.tile_count(j)

        def integrand(r):
            return params.radial(j, r) ** 2 * bessel_j(1.0, math.pi * r) ** 2 / (4.0 * r)

    else:
        raise ValueError(f"unknown region {region!r}")
    return measure * _integrate(integrand, lo, hi, max(64, int(16 * (hi - lo))))


def remainder_bound_check(
    r_min: float,
    r_max: float,
    order: float = 1.0,
    points_per_log: int = 4096,
) -> float:
    """Sup of ``r**1.5 * |J_nu(r) - leading cosine term|`` on a log grid.

    The grid is anchored at integer multiples of ``1/points_per_log`` in
    ``log r``, so grids of nested intervals nest and the sup is monotone
    under interval inclusion.  Finiteness and stability of the returned
    value is the check; it is the empirical constant of the remainder
    decay.  A non-finite ``r_max``, or a ``points_per_log`` that is not a
    positive integer, raises ``ValueError``.
    """
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max!r}")
    if not (1.0 <= r_min < r_max):
        raise ValueError("need 1 <= r_min < r_max")
    if as_index(points_per_log, "points_per_log") <= 0:
        raise ValueError(f"points_per_log must be positive, got {points_per_log!r}")
    nu = _check_order(order)
    step = 1.0 / points_per_log
    m_lo = math.ceil(math.log(r_min) / step)
    m_hi = math.floor(math.log(r_max) / step)
    r = np.exp(step * np.arange(m_lo, m_hi + 1))
    vals = bessel_j(nu, r)
    leading = np.sqrt(2.0 / (math.pi * r)) * np.cos(r - 0.5 * math.pi * nu - 0.25 * math.pi)
    return float(np.max(r**1.5 * np.abs(vals - leading)))
