"""Phase-space machinery: index parametrization, distance, consistency.

Tiles carry a natural phase-space address (scale, orientation, position).
The anisotropy-weighted distance between two addresses controls how
strongly atoms of two systems interact; truncated double sums of inverse
powers of that distance diagnose whether two parametrizations are
mutually consistent.  The sums are diagnostic (finite truncations cannot
certify the full suprema) and are reported together with their growth
under truncation doubling.  ``index_distance`` evaluates the distance term
by term; ``consistency_sum`` evaluates it one run of equal (scale,
orientation) at a time, where most of its terms depend on the column alone,
in blocks of rows that it shares with the package's worker thread
(:mod:`alphacurvelets._worker`).  Each block writes its own row sums and
the column sums are added in block order, so no sum depends on which
thread took a block.
"""

from __future__ import annotations

import collections
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _worker
from .tiling import FrameParams

__all__ = [
    "PhasePoint",
    "curvelet_parametrization",
    "index_distance",
    "enumerate_phase_points",
    "consistency_sum",
    "ConsistencyResult",
    "PAIR_LIMIT",
]

# A consistency sum costs a few ns a pair: the packaged caps' last sum,
# 6,455 x 9,847 = 63.6M pairs, takes about 0.2 s.  2**31 pairs is some
# seconds; it lets through the packaged caps (a bound of 8,679 x 12,895
# pairs) and spatial cap 8 at the packaged scale cap (a bound of 1.7e9).
PAIR_LIMIT = 2**31


@dataclass(frozen=True)
class PhasePoint:
    """Scale, orientation (mod pi), and position of one atom.

    A scale that is not positive and finite, or a non-finite orientation or
    position, raises ``ValueError``.
    """

    s: float
    theta: float
    x: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError("scale must be positive")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if not all(map(math.isfinite, self.x)):
            raise ValueError(f"position x must be finite, got {self.x!r}")
        object.__setattr__(self, "theta", float(self.theta) % math.pi)


def curvelet_parametrization(
    mu: tuple[int, int, tuple[float, float]], params: FrameParams
) -> PhasePoint:
    """Phase-space address of tile index ``(j, ell, k)``.

    Scale ``2**(j*s)``, orientation ``theta = ell * phi_j`` mod pi, the
    angle the returned point stores, and position obtained by undoing the
    anisotropic dilation and the rotation by that ``theta``:
    ``R(-theta) @ diag(2**(-j*s), 2**(-j*s*alpha)) @ k``, as
    :func:`enumerate_phase_points` places it.  The map is grid-free; any
    ``j >= 0`` with a valid angular index is accepted.
    """
    j, ell, k = mu
    if j < 0:
        raise ValueError("scale index must be nonnegative")
    if ell not in params.ell_range(j):
        raise ValueError(f"ell={ell} invalid at scale {j}")
    s2j = 2.0 ** (j * params.s)
    theta = (ell * params.tile_angle(j)) % math.pi
    u = (k[0] / s2j, k[1] / 2.0 ** (j * params.s * params.alpha))
    c, sn = math.cos(theta), math.sin(theta)
    x = (c * u[0] + sn * u[1], -sn * u[0] + c * u[1])
    return PhasePoint(s=s2j, theta=theta, x=x)


def index_distance(p: PhasePoint, q: PhasePoint, alpha: float) -> float:
    """Anisotropy-weighted phase-space distance, always >= 1.

    ``ratio * (1 + t1 + t2 + t3)``, weighted by the smaller scale
    ``s0 = min(s_p, s_q)``:

    * ``ratio = max(s_p/s_q, s_q/s_p)``
    * ``t1 = s0**(2(1-alpha)) * dt**2``, ``dt`` the orientation gap mod pi
    * ``t2 = s0**(2 alpha) * |dx|**2``, an isotropic position term
    * ``t3 = s0**2 * (e . dx)**2 / (1 + t1)``, the position gap along
      ``e = (cos theta_p, -sin theta_p)``
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    ratio = max(p.s / q.s, q.s / p.s)
    s0 = min(p.s, q.s)
    dt = abs(p.theta - q.theta) % math.pi
    dt = min(dt, math.pi - dt)
    dx1 = p.x[0] - q.x[0]
    dx2 = p.x[1] - q.x[1]
    t1 = s0 ** (2.0 * (1.0 - alpha)) * dt**2
    t2 = s0 ** (2.0 * alpha) * (dx1**2 + dx2**2)
    t3 = s0**2 * (math.cos(p.theta) * dx1 - math.sin(p.theta) * dx2) ** 2 / (1.0 + t1)
    return ratio * (1.0 + t1 + t2 + t3)


def _require_finite(name: str, value: float, low: float) -> None:
    if not (math.isfinite(value) and value >= low):
        raise ValueError(f"{name} must be finite and >= {low:g}, got {value!r}")


def _scales(params: FrameParams, scale_cap: float, spatial_cap: float):
    """``(j, 2**(j s), 2**(j s alpha), m1, m2)`` for each scale ``j`` with
    ``2**(j s) <= scale_cap``: the translation indices within ``spatial_cap``
    lie in ``|k1| <= m1``, ``|k2| <= m2``."""
    j = 0
    while (s2j := 2.0 ** (j * params.s)) <= scale_cap:
        s2ja = 2.0 ** (j * params.s * params.alpha)
        # capped below inf, which floor refuses; a capped extent alone passes the pair limit
        m1, m2 = (math.floor(min(r * spatial_cap, 2.0**62)) for r in (s2j, s2ja))
        yield j, s2j, s2ja, m1, m2
        j += 1


def enumerate_phase_points(
    params: FrameParams, scale_cap: float, spatial_cap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All tile phase points with scale <= scale_cap and |x| <= spatial_cap.

    Returns parallel arrays (scales, thetas, positions).  Translation
    indices ``k`` run over the anisotropic lattice; since the rotation
    preserves the norm, the spatial cutoff is applied before rotating.
    The set is never empty: scale 0 passes ``scale_cap >= 1`` and ``k = 0``
    the spatial cap.
    """
    _require_finite("scale_cap", scale_cap, 1.0)
    _require_finite("spatial_cap", spatial_cap, 0.0)
    ss, ts, xs = [], [], []
    for j, s2j, s2ja, m1, m2 in _scales(params, scale_cap, spatial_cap):
        K1, K2 = np.meshgrid(np.arange(-m1, m1 + 1), np.arange(-m2, m2 + 1), indexing="ij")
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


def _pairwise_sums(sa, ta, xa, sb, tb, xb, alpha, k, block=1 << 17):
    """Row and column sums of ``index_distance(a, b)**-k``, for ``a`` in set
    A (rows) and ``b`` in set B (columns), with the terms ``ratio``,
    ``s0``, ``t1`` named as there.

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

    The row blocks go out in order, run by run, to this thread and the
    package's worker thread, each with buffers of its own.  A block writes
    its own row sums; its column sum joins the total in block order
    (:class:`_InOrder`), so every sum is the same whichever thread took a block.
    """
    n = len(sb)
    rows = max(1, block // n)
    bounds = _runs(sa, ta)
    starts = ((lo, hi, r0) for lo, hi in zip(bounds[:-1], bounds[1:]) for r0 in range(lo, hi, rows))
    blocks = collections.deque(enumerate(starts))
    row = np.empty(len(sa))
    col = _InOrder(n)
    args = (sa, ta, xa, sb, tb, xb, alpha, k, rows, row, col)
    # each thread's buffers are made here, so the worker's heap keeps neither
    with _worker._beside(_sum_blocks, *args, *_buffers(rows, n), _worker._taking(blocks.popleft)):
        _sum_blocks(*args, *_buffers(rows, n), _worker._taking(blocks.popleft))
    return row, col.total


def _buffers(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.empty(rows * n), np.empty(rows * n)


class _InOrder:
    """A running sum of numbered vectors, added in number order as they arrive.

    ``add`` may come from either thread and in any order: a vector waits
    until every lower number has been added, so ``total`` is
    ``((0 + v_0) + v_1) + ...`` whichever thread finished first.
    """

    def __init__(self, n: int):
        self.total = np.zeros(n)
        self._next = 0
        self._pending = {}
        self._lock = threading.Lock()

    def add(self, number: int, v: np.ndarray) -> None:
        with self._lock:
            self._pending[number] = v
            while self._next in self._pending:
                self.total += self._pending.pop(self._next)
                self._next += 1


def _sum_blocks(sa, ta, xa, sb, tb, xb, alpha, k, rows, row, col, buf_w, buf_p, blocks) -> None:
    """Sum the numbered row blocks ``(lo, hi, r0)`` of ``blocks``: rows
    ``r0`` up to ``rows`` of the run ``lo:hi``, staged in ``buf_w`` and ``buf_p``.
    """
    n = len(sb)
    run = None
    for number, (lo, hi, r0) in blocks:
        if run != lo:
            run = lo
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
        r1 = min(hi, r0 + rows)
        w = buf_w[: (r1 - r0) * n].reshape(r1 - r0, n)
        p = buf_p[: (r1 - r0) * n].reshape(r1 - r0, n)
        np.subtract(qa[r0 - lo : r1 - lo, None], qb, out=w)
        np.square(w, out=w)
        w *= wq
        np.subtract(ra[r0 - lo : r1 - lo, None], rb, out=p)
        np.square(p, out=p)
        p *= wr
        w += p
        w += w0
        np.power(w, -k, out=w)
        row[r0:r1] = w.sum(axis=1)
        col.add(number, w.sum(axis=0))


def _lattice_sizes(params: FrameParams, scale_cap: float, spatial_cap: float):
    """Per scale of :func:`enumerate_phase_points`, ``L_j`` times the size of
    the rectangle of translation indices it scans: a bound on its points."""
    for j, _, _, m1, m2 in _scales(params, scale_cap, spatial_cap):
        yield params.tile_count(j) * (2 * m1 + 1) * (2 * m2 + 1)


def _check_sum_args(
    params_a: FrameParams, params_b: FrameParams, alpha: float, k_exp: float, scale_cap: float, spatial_cap: float
) -> None:
    """Raise the ``ValueError`` that :func:`consistency_sum` gives these arguments, if any.

    The pairs are bounded from the lattice sizes, summed scale by scale over
    both frames at once and cut short above :data:`PAIR_LIMIT`, so nothing
    is enumerated.
    """
    if not (math.isfinite(k_exp) and k_exp > 0):
        raise ValueError(f"k_exp must be finite and positive, got {k_exp!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not alpha == params_a.alpha == params_b.alpha:
        raise ValueError(
            f"alpha={alpha!r} must equal both frames' alpha, got {params_a.alpha!r} and {params_b.alpha!r}"
        )
    _require_finite("scale_cap", scale_cap, 1.0)
    _require_finite("spatial_cap", spatial_cap, 0.0)
    count_a = count_b = 0
    sizes = (_lattice_sizes(params, scale_cap, spatial_cap) for params in (params_a, params_b))
    for size_a, size_b in itertools.zip_longest(*sizes, fillvalue=0):
        count_a, count_b = count_a + size_a, count_b + size_b
        if count_a * count_b > PAIR_LIMIT:
            raise ValueError(
                f"the sums at scale_cap={scale_cap:g}, spatial_cap={spatial_cap:g} have a pair bound of "
                f"{count_a * count_b:.2e} or more, above PAIR_LIMIT = {PAIR_LIMIT:,}"
            )


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
    vice versa.  ``k_exp`` must be finite and positive, ``alpha`` equal
    to both frames' alpha, ``scale_cap`` finite and >= 1, ``spatial_cap``
    finite and >= 0, and the pair bound of :func:`_check_sum_args` at most
    :data:`PAIR_LIMIT`.  The phase points come in runs of equal (scale,
    orientation), and the sums are taken one run at a time (see
    ``_pairwise_sums``); they agree with sums of ``index_distance`` to
    rounding.
    """
    _check_sum_args(params_a, params_b, alpha, k_exp, scale_cap, spatial_cap)
    sa, ta, xa = enumerate_phase_points(params_a, scale_cap, spatial_cap)
    sb, tb, xb = enumerate_phase_points(params_b, scale_cap, spatial_cap)
    row, col = _pairwise_sums(sa, ta, xa, sb, tb, xb, float(alpha), float(k_exp))
    return ConsistencyResult(
        sup_over_a=float(row.max()),
        sup_over_b=float(col.max()),
        count_a=len(sa),
        count_b=len(sb),
        scale_cap=scale_cap,
        spatial_cap=spatial_cap,
    )
