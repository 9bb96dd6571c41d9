"""Phase-space machinery: index parametrization, distance, consistency.

Tiles carry a natural phase-space address (scale, orientation, position).
The anisotropy-weighted distance between two addresses controls how
strongly atoms of two systems interact; truncated double sums of inverse
powers of that distance diagnose whether two parametrizations are
mutually consistent.  The sums are diagnostic (finite truncations cannot
certify the full suprema) and are reported together with their growth
under truncation doubling.  ``index_distance`` evaluates the distance term
by term; ``consistency_sum`` evaluates it one run of equal (scale,
orientation) at a time, where most of its terms depend on the column alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tiling import FrameParams

__all__ = [
    "PhasePoint",
    "curvelet_parametrization",
    "index_distance",
    "enumerate_phase_points",
    "consistency_sum",
    "ConsistencyResult",
]


@dataclass(frozen=True)
class PhasePoint:
    """Scale, orientation (mod pi), and position of one atom."""

    s: float
    theta: float
    x: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError("scale must be positive")
        object.__setattr__(self, "theta", float(self.theta) % math.pi)


def curvelet_parametrization(
    mu: tuple[int, int, tuple[float, float]], params: FrameParams
) -> PhasePoint:
    """Phase-space address of tile index ``(j, ell, k)``.

    Scale ``2**(j*s)``, orientation ``ell * phi_j`` mod pi, and position
    obtained by undoing the anisotropic dilation and the rotation:
    ``R(-ell*phi_j) @ diag(2**(-j*s), 2**(-j*s*alpha)) @ k``.  The map is
    grid-free; any ``j >= 0`` with a valid angular index is accepted.
    """
    j, ell, k = mu
    if j < 0:
        raise ValueError("scale index must be nonnegative")
    if ell not in params.ell_range(j):
        raise ValueError(f"ell={ell} invalid at scale {j}")
    s2j = 2.0 ** (j * params.s)
    theta = ell * params.tile_angle(j)
    u = (k[0] / s2j, k[1] / 2.0 ** (j * params.s * params.alpha))
    c, sn = math.cos(theta), math.sin(theta)
    x = (c * u[0] + sn * u[1], -sn * u[0] + c * u[1])
    return PhasePoint(s=s2j, theta=theta, x=x)


def _omega_block(sa, ta, xa, sb, tb, xb, alpha):
    """Distance matrix block, vectorized: rows from set A, columns from B.

    ``ratio * (1 + t1 + t2 + t3)`` with the terms below, evaluated in
    place on at most six ``(rows, cols)`` buffers: every entry goes through
    the same operations in the same order as the formula written term by
    term, so the values are those of the direct expression.

    * ``ratio = max(sa/sb, sb/sa)``, ``s0 = min(sa, sb)``
    * ``t1 = s0**(2(1-alpha)) * dt**2``, ``dt`` the orientation gap mod pi
    * ``t2 = s0**(2 alpha) * (dx1**2 + dx2**2)``
    * ``t3 = s0**2 * (e1 dx1 + e2 dx2)**2 / (1 + t1)``, ``e = (cos ta, -sin ta)``
    """
    sa_c, sb_r = sa[:, None], sb[None, :]
    s0 = np.minimum(sa_c, sb_r)
    dt = np.abs(ta[:, None] - tb[None, :])
    np.remainder(dt, math.pi, out=dt)
    den = math.pi - dt
    np.minimum(dt, den, out=dt)
    np.square(dt, out=dt)
    np.power(s0, 2.0 * (1.0 - alpha), out=den)
    den *= dt  # t1
    den += 1.0  # 1 + t1: the denominator of t3 and the head of the sum
    dx1 = np.subtract(xa[:, None, 0], xb[None, :, 0], out=dt)
    dx2 = xa[:, None, 1] - xb[None, :, 1]
    proj = np.cos(ta)[:, None] * dx1
    proj += -np.sin(ta)[:, None] * dx2
    np.square(dx1, out=dx1)
    np.square(dx2, out=dx2)
    dx1 += dx2
    t2 = np.power(s0, 2.0 * alpha, out=dx2)
    t2 *= dx1
    np.square(proj, out=proj)
    t3 = np.square(s0, out=s0)
    t3 *= proj
    t3 /= den
    total = den
    total += t2
    total += t3
    del dx1, dx2, proj, t2, t3, s0  # four buffers freed before ratio takes two
    ratio = sa_c / sb_r
    np.maximum(ratio, sb_r / sa_c, out=ratio)
    ratio *= total
    return ratio


def index_distance(p: PhasePoint, q: PhasePoint, alpha: float) -> float:
    """Anisotropy-weighted phase-space distance, always >= 1.

    ``max(s_p/s_q, s_q/s_p) * (1 + d)`` where ``d`` adds an angular term,
    an isotropic position term, and a directional position term measured
    along ``(cos theta_p, -sin theta_p)``; all with the smaller scale as
    weight and orientations compared modulo pi.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if p.s <= 0 or q.s <= 0:
        raise ValueError("scales must be positive")
    sa = np.array([p.s])
    ta = np.array([p.theta])
    xa = np.array([p.x], dtype=float)
    sb = np.array([q.s])
    tb = np.array([q.theta])
    xb = np.array([q.x], dtype=float)
    return float(_omega_block(sa, ta, xa, sb, tb, xb, alpha)[0, 0])


def _require_finite(name: str, value: float, low: float) -> None:
    if not (math.isfinite(value) and value >= low):
        raise ValueError(f"{name} must be finite and >= {low:g}, got {value!r}")


def enumerate_phase_points(
    params: FrameParams, scale_cap: float, spatial_cap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All tile phase points with scale <= scale_cap and |x| <= spatial_cap.

    Returns parallel arrays (scales, thetas, positions).  Translation
    indices ``k`` run over the anisotropic lattice; since the rotation
    preserves the norm, the spatial cutoff is applied before rotating.
    """
    _require_finite("scale_cap", scale_cap, 1.0)
    _require_finite("spatial_cap", spatial_cap, 0.0)
    ss, ts, xs = [], [], []
    j = 0
    while 2.0 ** (j * params.s) <= scale_cap:
        s2j = 2.0 ** (j * params.s)
        s2ja = 2.0 ** (j * params.s * params.alpha)
        k1 = np.arange(-math.floor(s2j * spatial_cap), math.floor(s2j * spatial_cap) + 1)
        k2 = np.arange(-math.floor(s2ja * spatial_cap), math.floor(s2ja * spatial_cap) + 1)
        K1, K2 = np.meshgrid(k1, k2, indexing="ij")
        U1 = K1.ravel() / s2j
        U2 = K2.ravel() / s2ja
        keep = U1**2 + U2**2 <= spatial_cap**2
        U1, U2 = U1[keep], U2[keep]
        for ell in params.ell_range(j):
            theta = (ell * params.tile_angle(j)) % math.pi
            c, sn = math.cos(theta), math.sin(theta)
            ss.append(np.full(U1.size, s2j))
            ts.append(np.full(U1.size, theta))
            xs.append(np.stack([c * U1 + sn * U2, -sn * U1 + c * U2], axis=-1))
        j += 1
    if not ss:
        raise ValueError("empty truncated index set")
    return np.concatenate(ss), np.concatenate(ts), np.concatenate(xs)


@dataclass
class ConsistencyResult:
    sup_over_a: float
    sup_over_b: float
    count_a: int
    count_b: int
    scale_cap: float
    spatial_cap: float


def _runs(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Bounds of the maximal runs of equal (scale, orientation), any order."""
    change = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
    return np.concatenate(([0], np.flatnonzero(change) + 1, [len(s)]))


def _pairwise_sups(sa, ta, xa, sb, tb, xb, alpha, k, block=1 << 17):
    """Row and column sups of the sums of ``_omega_block(...)**-k``.

    Rows go one run of equal scale ``s`` and orientation ``theta`` at a
    time.  Within a run, ``ratio``, ``s0`` and ``1 + t1`` depend on the
    column alone.  In the frame of ``e = (cos theta, -sin theta)`` the
    position gap splits into ``proj = e . dx`` and ``perp``, with
    ``|dx|**2 = proj**2 + perp**2``, so each entry is

        omega = w0 + wq * proj**2 + wr * perp**2

    with ``w0 = ratio (1 + t1)``, ``wr = ratio s0**(2 alpha)`` and
    ``wq = wr + ratio s0**2 / (1 + t1)``: three passes of length ``len(sb)``
    per run, and per entry two differences, the combination and the power,
    on two row-block buffers of about ``block`` entries each (1 MB).
    """
    n = len(sb)
    row = np.empty(len(sa))
    col = np.zeros(n)
    rows = max(1, block // n)
    buf_w = np.empty(rows * n)
    buf_p = np.empty(rows * n)
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
            w = buf_w[: (r1 - r0) * n].reshape(r1 - r0, n)
            p = buf_p[: (r1 - r0) * n].reshape(r1 - r0, n)
            np.subtract(qa[r0:r1, None], qb, out=w)
            np.square(w, out=w)
            w *= wq
            np.subtract(ra[r0:r1, None], rb, out=p)
            np.square(p, out=p)
            p *= wr
            w += p
            w += w0
            np.power(w, -k, out=w)
            row[lo + r0 : lo + r1] = w.sum(axis=1)
            col += w.sum(axis=0)
    return float(row.max()), float(col.max())


def consistency_sum(
    params_a: FrameParams,
    params_b: FrameParams,
    alpha: float,
    k_exp: float,
    scale_cap: float,
    spatial_cap: float,
) -> ConsistencyResult:
    """Truncated mutual sums of ``distance**-k`` between two systems.

    Returns the sup over the first system of sums across the second and
    vice versa.  ``k_exp`` must be finite and positive, ``scale_cap``
    finite and >= 1, ``spatial_cap`` finite and >= 0.  The phase points
    come in runs of equal (scale, orientation), and the sums are taken one
    run at a time (see ``_pairwise_sups``); they agree with sums of
    ``index_distance`` to rounding.
    """
    if not (math.isfinite(k_exp) and k_exp > 0):
        raise ValueError(f"k_exp must be finite and positive, got {k_exp!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    sa, ta, xa = enumerate_phase_points(params_a, scale_cap, spatial_cap)
    sb, tb, xb = enumerate_phase_points(params_b, scale_cap, spatial_cap)
    sup_a, sup_b = _pairwise_sups(sa, ta, xa, sb, tb, xb, float(alpha), float(k_exp))
    return ConsistencyResult(
        sup_over_a=sup_a,
        sup_over_b=sup_b,
        count_a=len(sa),
        count_b=len(sb),
        scale_cap=scale_cap,
        spatial_cap=spatial_cap,
    )
