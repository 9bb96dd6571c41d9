"""Rasterizable test signals: disc, half-space edges, smooth bumps, stars.

Pixels are corner-anchored cells of ``[-1, 1]^2`` (``x_p = -1 + 2p/n``)
and every signal is rendered as the cell average over an ``antialias**2``
sub-grid, so rasterization is deterministic and binary signals take
values in ``[0, 1]``.

``_evaluate`` is the per-sample definition of each kind and the oracle
the tests compare ``render`` with.  ``render`` computes the terms of the
separable kinds (disc, half-space, smooth bump) once per row and once
per column of each sub-offset and combines them by broadcasting, which
gives the same image bit for bit; stars are evaluated per sample.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tiling import as_index

__all__ = [
    "CartoonSpec",
    "SmoothFactor",
    "render",
    "write_pgm",
]

_KINDS = ("disc", "half_space", "smooth_bump", "star")


def _smoothstep_poly(order: int) -> np.polynomial.Polynomial:
    """Polynomial smoothstep of the given smoothness order on [0, 1]."""
    coeffs = np.zeros(2 * order + 2)
    for n in range(order + 1):
        coeffs[order + n + 1] = (
            (-1.0) ** n
            * math.comb(order + n, n)
            * math.comb(2 * order + 1, order - n)
        )
    return np.polynomial.Polynomial(coeffs)


class SmoothFactor:
    """Compactly supported tensor bump with controlled derivatives.

    The 1-D profile is flat on ``[-1/2, 1/2]`` and descends to zero at
    ``|t| = 1`` through a polynomial smoothstep of smoothness ``beta``.
    The product is scaled so that every partial derivative of combined
    order up to ``beta`` stays below ``nu`` in absolute value; the
    attained flat-top value is ``flat_value``.
    """

    def __init__(self, beta: int, nu: float):
        if beta < 1 or beta != int(beta):
            raise ValueError("beta must be a positive integer")
        if nu <= 0:
            raise ValueError("nu must be positive")
        self.beta = int(beta)
        self.nu = float(nu)
        self._ramp = _smoothstep_poly(self.beta)
        self._half = 0.5  # flat plateau half-width; ramp occupies [1/2, 1]
        width = 1.0 - self._half
        grid = np.linspace(0.0, 1.0, 4097)
        sups = [1.0]
        poly = self._ramp
        for _ in range(self.beta):
            poly = poly.deriv()
            sups.append(float(np.max(np.abs(poly(grid)))))
        self._deriv_sups = [sups[i] / width**i for i in range(self.beta + 1)]
        norm = sum(
            self._deriv_sups[m1] * self._deriv_sups[m2]
            for m1 in range(self.beta + 1)
            for m2 in range(self.beta + 1)
            if m1 + m2 <= self.beta
        )
        self.flat_value = self.nu / norm

    def profile(self, t: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(t, dtype=float))
        x = np.clip((1.0 - a) / (1.0 - self._half), 0.0, 1.0)
        return self._ramp(x)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.flat_value * self.profile(x[..., 0]) * self.profile(x[..., 1])


@dataclass(frozen=True)
class CartoonSpec:
    """Declarative test-signal description.

    kind ``disc``: indicator of the radius-1/2 disc at the origin.
    kind ``half_space``: ``g(x) * indicator(x1*cos(phi) - x2*sin(phi) >= c)``
    with ``g`` the smooth factor of regularity ``beta`` and budget ``nu``
    (``beta = 0`` means ``g`` is constant 1).
    kind ``smooth_bump``: the smooth factor alone, no edge; ``beta = 0``
    is rendered as ``beta = 1``, since the factor needs ``beta >= 1``.
    kind ``star``: indicator of the star-shaped set with radius function
    ``rho(t) = rho0 + sum_k cos_coeffs[k] cos((k+1) t) + sin_coeffs[k] sin((k+1) t)``.
    """

    kind: str
    phi: float = 0.0
    c: float = 0.0
    beta: int = 0
    nu: float = 1.0
    rho0: float = 0.5
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    antialias: int = 4

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown cartoon kind {self.kind!r}")
        antialias = as_index(self.antialias, "antialias")
        if antialias < 1:
            raise ValueError("antialias factor must be >= 1")
        object.__setattr__(self, "antialias", antialias)
        integral = isinstance(self.beta, numbers.Real) and float(self.beta).is_integer()
        if not integral or self.beta < 0:
            raise ValueError(f"beta must be a non-negative integer, got {self.beta!r}")
        smooth = self.kind == "smooth_bump" or (self.kind == "half_space" and self.beta >= 1)
        if smooth and not self.nu > 0:
            raise ValueError(f"nu must be positive for a smooth factor, got {self.nu!r}")
        if self.kind == "star":
            rho = self.radius_function(np.linspace(0.0, 2.0 * math.pi, 4096))
            if np.min(rho) <= 0:
                raise ValueError("star radius function must be positive everywhere")
            if np.max(rho) > 1.0:
                raise ValueError("star must stay inside [-1, 1]^2")

    def radius_function(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        rho = np.full_like(t, self.rho0)
        for k, a in enumerate(self.cos_coeffs):
            rho += a * np.cos((k + 1) * t)
        for k, b in enumerate(self.sin_coeffs):
            rho += b * np.sin((k + 1) * t)
        return rho


def _evaluate(spec: CartoonSpec, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    if spec.kind == "disc":
        return (x1 * x1 + x2 * x2 <= 0.25).astype(float)
    if spec.kind == "half_space":
        side = (x1 * math.cos(spec.phi) - x2 * math.sin(spec.phi) >= spec.c).astype(float)
        if spec.beta >= 1:
            return side * _smooth(spec)(np.stack([x1, x2], axis=-1))
        return side
    if spec.kind == "smooth_bump":
        return _smooth(spec)(np.stack([x1, x2], axis=-1))
    # star
    t = np.arctan2(x2, x1)
    return (np.hypot(x1, x2) <= spec.radius_function(t)).astype(float)


def _smooth(spec: CartoonSpec) -> SmoothFactor | None:
    """The spec's smooth factor, or ``None`` for a kind without one."""
    if spec.kind == "smooth_bump":
        return SmoothFactor(max(spec.beta, 1), spec.nu)
    if spec.kind == "half_space" and spec.beta >= 1:
        return SmoothFactor(spec.beta, spec.nu)
    return None


def _axis_terms(
    spec: CartoonSpec, g: SmoothFactor | None, x: np.ndarray, axis: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(edge, smooth) terms of a separable kind along one axis.

    ``axis`` 0 gives the row terms at ``x = x1``, 1 the column terms at
    ``x = x2``.  The edge terms meet in the sample's edge test (``disc``:
    ``x1*x1 + x2*x2 <= 1/4``, ``half_space``: ``x1*cos(phi) - x2*sin(phi)
    >= c``); the smooth terms multiply to ``flat * p(x1) * p(x2)``, the
    value of ``g`` at the sample.  Each is the operand ``_evaluate`` forms.
    """
    edge = smooth = None
    if spec.kind == "disc":
        edge = x * x
    elif spec.kind == "half_space":
        edge = x * (math.cos(spec.phi) if axis == 0 else math.sin(spec.phi))
    if g is not None:
        smooth = g.profile(x)
        if axis == 0:
            smooth = g.flat_value * smooth
    return edge, smooth


def _grid_size(grid_n) -> int:
    n = as_index(grid_n, "grid_n")
    if n < 2:
        raise ValueError("grid_n must be >= 2")
    return n


def _accumulate(
    spec: CartoonSpec,
    g: SmoothFactor | None,
    row: tuple,
    cols: list[tuple],
    acc: np.ndarray,
    value: np.ndarray,
    inside: np.ndarray,
) -> None:
    """Add the samples of one row offset at every column offset to ``acc``.

    ``row`` and each of ``cols`` are ``_axis_terms``; ``value`` and
    ``inside`` are scratch buffers of ``acc``'s shape.
    """
    row_edge, row_smooth = row
    for col_edge, col_smooth in cols:
        if spec.kind == "disc":
            np.add(row_edge[:, None], col_edge, out=value)
            np.less_equal(value, 0.25, out=inside)
        elif spec.kind == "half_space":
            np.subtract(row_edge[:, None], col_edge, out=value)
            np.greater_equal(value, spec.c, out=inside)
        if g is None:
            acc += inside
            continue
        np.multiply(row_smooth[:, None], col_smooth, out=value)
        if spec.kind == "half_space":
            value *= inside
        acc += value


def render(spec: CartoonSpec, grid_n: int) -> np.ndarray:
    """Cell-averaged rasterization on the ``grid_n`` x ``grid_n`` grid.

    Every kind but ``star`` is separable: its terms are computed once per
    row and once per column of each sub-offset and meet by broadcasting,
    with the floating-point operations of ``_evaluate`` in the same order,
    so the image equals the per-sample accumulation of ``_evaluate`` bit
    for bit.  ``star`` is evaluated per sample.
    """
    n, a = _grid_size(grid_n), spec.antialias
    h = 2.0 / n
    base = -1.0 + h * np.arange(n)
    out = np.zeros((n, n))
    # row blocks keep the supersampled workspace bounded.  A star's samples
    # make a dozen temporaries per sub-offset; at 8192 samples (64 KiB)
    # they stay below malloc's mmap threshold and are reused, not mapped
    # and page-faulted afresh, whatever large arrays the process freed before
    block = max(1, (1 << 13) // n if spec.kind == "star" else (1 << 22) // (n * a * a))
    offsets = h * (np.arange(a) + 0.5) / a
    if spec.kind != "star":
        g = _smooth(spec)
        cols = [_axis_terms(spec, g, base + o2, 1) for o2 in offsets]
        value = np.empty((min(block, n), n))
        inside = np.empty(value.shape, dtype=bool)
    for r0 in range(0, n, block):
        rows = base[r0 : r0 + block]
        acc = out[r0 : r0 + block]
        k = len(rows)
        for o1 in offsets:
            if spec.kind != "star":
                row = _axis_terms(spec, g, rows + o1, 0)
                _accumulate(spec, g, row, cols, acc, value[:k], inside[:k])
                continue
            for o2 in offsets:
                X1, X2 = np.broadcast_arrays((rows + o1)[:, None], (base + o2)[None, :])
                acc += _evaluate(spec, X1, X2)
        acc /= a * a
    return out


def write_pgm(grid: np.ndarray, path: str) -> str:
    """Plain (ASCII) PGM dump, rescaled to 0..255, for quick inspection."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((grid - lo) * scale).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n")
        for row in pix:
            fh.write(" ".join(str(v) for v in row) + "\n")
    return path
