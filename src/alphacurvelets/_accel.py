"""Kernel dispatch: numba-compiled hot loops with a pure-numpy fallback.

The pairwise phase-space distance sums are the one genuinely compute-bound
inner loop in the package (everything else is FFT- or gather-dominated).
Set ``ALPHACURVELETS_DISABLE_NUMBA=1`` to force the numpy path; the numpy
path is also selected automatically when numba is unavailable.
"""

from __future__ import annotations

import math
import os

import numpy as np

DISABLE_ENV = "ALPHACURVELETS_DISABLE_NUMBA"


def _numba_requested() -> bool:
    return os.environ.get(DISABLE_ENV, "").strip() not in ("1", "true", "yes")


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


def _pairwise_sups_numpy(sa, ta, xa, sb, tb, xb, alpha, k, block=256):
    """Row/column sups of ``omega**-k`` sums, deterministic block order."""
    m = len(sa)
    row = np.zeros(m)
    col = np.zeros(len(sb))
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        w = _omega_block(sa[lo:hi], ta[lo:hi], xa[lo:hi], sb, tb, xb, alpha)
        np.power(w, -k, out=w)
        row[lo:hi] = w.sum(axis=1)
        col += w.sum(axis=0)
        del w  # not alive while the next block is built
    return float(row.max()), float(col.max())


try:  # pragma: no cover - exercised via the dispatch tests
    if not _numba_requested():
        raise ImportError("numba disabled by environment flag")
    from numba import njit, prange

    @njit(parallel=True, cache=True)
    def _pairwise_sups_numba(sa, ta, xa, sb, tb, xb, alpha, k):
        m = sa.shape[0]
        n = sb.shape[0]
        row = np.zeros(m)
        col = np.zeros(n)
        for i in prange(m):
            ca = math.cos(ta[i])
            sna = -math.sin(ta[i])
            acc = 0.0
            for j in range(n):
                ratio = sa[i] / sb[j] if sa[i] > sb[j] else sb[j] / sa[i]
                s0 = sa[i] if sa[i] < sb[j] else sb[j]
                dt = abs(ta[i] - tb[j]) % math.pi
                if dt > math.pi - dt:
                    dt = math.pi - dt
                dx1 = xa[i, 0] - xb[j, 0]
                dx2 = xa[i, 1] - xb[j, 1]
                t1 = s0 ** (2.0 * (1.0 - alpha)) * dt * dt
                t2 = s0 ** (2.0 * alpha) * (dx1 * dx1 + dx2 * dx2)
                t3 = s0 * s0 * (ca * dx1 + sna * dx2) ** 2 / (1.0 + t1)
                acc += (ratio * (1.0 + t1 + t2 + t3)) ** (-k)
            row[i] = acc
        for j in prange(n):
            acc = 0.0
            for i in range(m):
                ca = math.cos(ta[i])
                sna = -math.sin(ta[i])
                ratio = sa[i] / sb[j] if sa[i] > sb[j] else sb[j] / sa[i]
                s0 = sa[i] if sa[i] < sb[j] else sb[j]
                dt = abs(ta[i] - tb[j]) % math.pi
                if dt > math.pi - dt:
                    dt = math.pi - dt
                dx1 = xa[i, 0] - xb[j, 0]
                dx2 = xa[i, 1] - xb[j, 1]
                t1 = s0 ** (2.0 * (1.0 - alpha)) * dt * dt
                t2 = s0 ** (2.0 * alpha) * (dx1 * dx1 + dx2 * dx2)
                t3 = s0 * s0 * (ca * dx1 + sna * dx2) ** 2 / (1.0 + t1)
                acc += (ratio * (1.0 + t1 + t2 + t3)) ** (-k)
            col[j] = acc
        return row, col

    def pairwise_consistency_sups(sa, ta, xa, sb, tb, xb, alpha, k):
        row, col = _pairwise_sups_numba(sa, ta, xa, sb, tb, xb, float(alpha), float(k))
        return float(row.max()), float(col.max())

    USING_NUMBA = True
except ImportError:
    pairwise_consistency_sups = _pairwise_sups_numpy
    USING_NUMBA = False
