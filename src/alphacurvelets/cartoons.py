"""Rasterizable test signals: disc, half-space edges, smooth bumps, stars.

Pixels are corner-anchored cells of ``[-1, 1]^2`` (``x_p = -1 + 2p/n``)
and every signal is rendered as the cell average over an ``antialias**2``
sub-grid, so rasterization is deterministic and binary signals take
values in ``[0, 1]``.

``_evaluate`` is the one definition of each kind.  A disc, half-space or
star is constant but for its edge, which crosses O(n) of the n^2 cells:
``render`` bounds each cell's distance to the edge (``_cells``), gives a
cell wholly inside or outside its value without sampling it, and hands
``_evaluate`` the sub-samples of the other cells as gathered 1-D arrays.
A smooth factor is sampled everywhere: ``render`` hands ``_evaluate`` a
block's rows as a ``(k, 1)`` column and the columns as an ``(n,)`` row,
so broadcasting computes each axis term once per row and once per column.
The tests' oracle hands ``_evaluate`` full coordinate arrays, and the two
images agree bit for bit.

``render`` splits the image into blocks of rows and shares them with the
package's worker thread (:mod:`alphacurvelets._worker`): each block
writes only its own rows of the image, so the image does not depend on
which thread rendered a block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _worker
from .tiling import as_index

__all__ = [
    "BETA_LIMIT",
    "CartoonSpec",
    "SAMPLE_LIMIT",
    "SmoothFactor",
    "check_render",
    "render",
]

_KINDS = ("disc", "half_space", "smooth_bump", "star")

# A render samples a smooth factor at all grid_n**2 * antialias**2 points
# and an edge at the antialias**2 points of each cell it can cross, and it
# holds antialias column terms of grid_n floats each (two for a smooth
# kind), so antialias 100000 asks for about 0.8 GB and hours of work.  The
# limit counts every point a render could sample: the largest render
# packaged has 2**26 (grid 1024, antialias 8), and grid 4096 at antialias 8
# has 2**30; 2**32 lets both through with room.
SAMPLE_LIMIT = 2**32

# The ramp polynomial's coefficients alternate in sign and grow with beta,
# so its float evaluation cancels: on SmoothFactor's 4097-point grid it is
# off exact rational evaluation by 1.1e-11 at beta 7, 1.2e-10 at 8, 6.1e-9
# at 10 and more than 1 by 20, where a bump has negative samples.  The
# limit is the largest beta within 1e-10.
BETA_LIMIT = 7


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
        if beta > BETA_LIMIT:
            raise ValueError(f"beta must be at most BETA_LIMIT = {BETA_LIMIT}, got {beta!r}")
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
        if self.beta > BETA_LIMIT:
            raise ValueError(f"beta must be at most BETA_LIMIT = {BETA_LIMIT}, got {self.beta!r}")
        for name in ("phi", "c", "nu", "rho0", "cos_coeffs", "sin_coeffs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        smooth = self.kind == "smooth_bump" or (self.kind == "half_space" and self.beta >= 1)
        if smooth and not self.nu > 0:
            raise ValueError(f"nu must be positive for a smooth factor, got {self.nu!r}")
        if self.kind == "star":
            # between two check points rho moves by at most S times half their spacing
            t = np.linspace(0.0, 2.0 * math.pi, 4096)
            slack = _slope(self) * 0.5 * t[1]
            rho = self.radius_function(t)
            if np.min(rho) <= slack:
                raise ValueError("star radius function must be positive everywhere")
            if np.max(rho) > 1.0 - slack:
                raise ValueError("star must stay inside [-1, 1]^2")

    def radius_function(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        rho = np.full_like(t, self.rho0)
        for k, a in enumerate(self.cos_coeffs):
            rho += a * np.cos((k + 1) * t)
        for k, b in enumerate(self.sin_coeffs):
            rho += b * np.sin((k + 1) * t)
        return rho


def _evaluate(spec: CartoonSpec, x1: np.ndarray, x2: np.ndarray, smooth: np.ndarray | None = None) -> np.ndarray:
    """``spec`` at the samples ``(x1, x2)``, arrays that broadcast together:
    booleans for an indicator kind, else ``smooth``, the smooth factor's
    values there, multiplied in place by a half-space's edge test."""
    if spec.kind == "disc":
        return x1 * x1 + x2 * x2 <= 0.25
    if spec.kind == "half_space":
        side = x1 * math.cos(spec.phi) - x2 * math.sin(spec.phi) >= spec.c
        if smooth is None:
            return side
        smooth *= side
        return smooth
    if spec.kind == "smooth_bump":
        return smooth
    # star
    t = np.arctan2(x2, x1)
    return np.hypot(x1, x2) <= spec.radius_function(t)


def _slope(spec: CartoonSpec) -> float:
    """``S = sum_k (k+1) (|a_k| + |b_k|)``, a bound on the slope of a
    star's radius function: ``|rho(t) - rho(u)| <= S |t - u|``."""
    return sum((k + 1) * abs(c) for coeffs in (spec.cos_coeffs, spec.sin_coeffs) for k, c in enumerate(coeffs))


# Rounding moves a sample's coordinates, hypot, arctan2 and the radius
# function's trig sum by about 1e-15; a cell counts as wholly inside or
# outside only when its bound clears the edge by this much more.
_EDGE_MARGIN = 1e-9


def _cells(spec: CartoonSpec, c1: np.ndarray, c2: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """``(inside, edge)`` over the cells centred at ``(c1, c2)``, arrays
    that broadcast together, whose sub-samples lie within ``radius`` of the
    centre: the cells of an edged kind whose every sample is inside, and
    those the edge may cross.  A cell in neither is wholly outside."""
    # depth: how far inside the edge the centre lies, negative outside; the
    # disc and the half-space make it in place, one array of the block's size
    if spec.kind == "disc":
        depth = np.hypot(c1, c2)
        np.subtract(0.5, depth, out=depth)
        return _split(depth, radius)
    if spec.kind == "half_space":
        depth = c1 * math.cos(spec.phi) - c2 * math.sin(spec.phi)
        depth -= spec.c
        return _split(depth, radius)
    # star: rho lies within spread of rho0, so a cell whose radii all lie
    # below or above that annulus is inside or outside, whatever its angle
    r = np.hypot(c1, c2)
    spread = sum(abs(c) for c in spec.cos_coeffs + spec.sin_coeffs)
    inside = r < spec.rho0 - spread - radius - _EDGE_MARGIN
    edge = r <= spec.rho0 + spread + radius + _EDGE_MARGIN
    edge ^= inside
    # the cells in the annulus: over a cell, rho moves by at most S times the angle it subtends
    near = np.nonzero(edge)
    x1, x2 = (x[near] for x in np.broadcast_arrays(c1, c2))
    r = r[near]
    depth = spec.radius_function(np.arctan2(x2, x1)) - r
    slack = radius + _slope(spec) * np.arcsin(np.minimum(0.5, radius / np.maximum(r, _EDGE_MARGIN)))
    slack[r <= 2.0 * radius] = np.inf  # a cell this near the origin spans too wide an angle
    inside[near], edge[near] = _split(depth, slack)
    return inside, edge


def _split(depth: np.ndarray, slack) -> tuple[np.ndarray, np.ndarray]:
    """``(inside, edge)`` of cells whose centres lie ``depth`` inside the
    edge and whose samples lie within ``slack`` of it, plus the margin."""
    slack += _EDGE_MARGIN
    inside = depth > slack
    edge = depth >= -slack
    edge ^= inside
    return inside, edge


def _smooth(spec: CartoonSpec) -> SmoothFactor | None:
    """The spec's smooth factor, or ``None`` for a kind without one."""
    if spec.kind == "smooth_bump":
        return SmoothFactor(max(spec.beta, 1), spec.nu)
    if spec.kind == "half_space" and spec.beta >= 1:
        return SmoothFactor(spec.beta, spec.nu)
    return None


def check_render(spec: CartoonSpec, grid_n) -> int:
    """``grid_n`` as an ``int``, if :func:`render` takes ``spec`` at it:
    at least 2, with at most :data:`SAMPLE_LIMIT` samples; else ``ValueError``."""
    n = as_index(grid_n, "grid_n")
    if n < 2:
        raise ValueError("grid_n must be >= 2")
    samples = n * n * spec.antialias**2
    if samples > SAMPLE_LIMIT:
        raise ValueError(
            f"a render at grid {n}, antialias {spec.antialias} takes {samples:,} samples, "
            f"above SAMPLE_LIMIT = {SAMPLE_LIMIT:,}"
        )
    return n


def render(spec: CartoonSpec, grid_n: int) -> np.ndarray:
    """Cell-averaged rasterization on the ``grid_n`` x ``grid_n`` grid.

    A kind with an edge samples only the cells the edge can cross
    (:func:`_cells`): a cell wholly inside takes 1, or for a smooth
    half-space the smooth factor's cell average, and a cell wholly outside
    takes 0.  The smooth factor's average, and the smooth bump, take
    every sub-sample: each pair of sub-offsets evaluates a block's rows,
    shape ``(k, 1)``, against all columns, shape ``(n,)``, with the
    factor as the product of its row profile, made once per row offset,
    and column profile, made once per render.  An edge cell goes through
    ``_evaluate`` at each sub-sample in the same ``(o1, o2)`` order; so
    the image equals the per-sample accumulation of ``_evaluate`` bit for
    bit.  The row blocks, all of one size, are shared with the package's
    worker thread (:func:`alphacurvelets._worker._shared`): this thread
    takes them from the back, the worker from the front, never the last,
    and each block writes only its rows.  A render of more than
    :data:`SAMPLE_LIMIT` samples raises ``ValueError``
    (:func:`check_render`) before any work.
    """
    n, a = check_render(spec, grid_n), spec.antialias
    h = 2.0 / n
    base = -1.0 + h * np.arange(n)
    out = np.zeros((n, n))
    # blocks of 65536 cells, so a float array of a block's size is 512 KiB.
    # A quarter of that made every kind slower, up to 2x, at grid 512,
    # antialias 4 and grid 1024, antialias 8; four times that made the
    # temporaries up to 4x larger and every kind slower at grid 512, where
    # such a block is the whole image
    block = max(1, (1 << 16) // n)
    offsets = h * (np.arange(a) + 0.5) / a
    g = _smooth(spec)
    cols = [base + o2 for o2 in offsets]
    profiles = [None if g is None else g.profile(x2) for x2 in cols]
    args = (spec, g, base, offsets, cols, profiles, out, block)
    with _worker._shared(range(0, n, block), _render_rows, *args) as mine:
        _render_rows(*args, mine)
    return out


def _render_rows(spec, g, base, offsets, cols, profiles, out, block, starts) -> None:
    """Write the row blocks of ``out`` that begin at ``starts``."""
    a = spec.antialias
    # the smooth factor alone: a smooth half-space's inside cells take its average
    bump = None if g is None else replace(spec, kind="smooth_bump")
    mid = 0.5 * (offsets[0] + offsets[-1])  # the centre of a cell's sub-samples
    radius = math.sqrt(2.0) * (offsets[-1] - mid)  # their farthest from it
    for r0 in starts:
        acc = out[r0 : r0 + block]
        rows = base[r0 : r0 + block]
        if g is not None:
            for o1 in offsets:
                x1 = (rows + o1)[:, None]
                p1 = g.flat_value * g.profile(x1)
                for x2, p2 in zip(cols, profiles):
                    acc += _evaluate(bump, x1, x2, p1 * p2)
            acc /= a * a
        if spec.kind == "smooth_bump":
            continue
        inside, edge = _cells(spec, (rows + mid)[:, None], base + mid, radius)
        if g is None:
            acc[inside] = 1.0
        else:
            acc[~inside] = 0.0
        i, j = np.nonzero(edge)
        total = np.zeros(len(i))
        for o1 in offsets:
            x1 = rows[i] + o1
            p1 = None if g is None else g.flat_value * g.profile(x1)
            for x2, p2 in zip(cols, profiles):
                total += _evaluate(spec, x1, x2[j], None if g is None else p1 * p2[j])
        acc[i, j] = total / (a * a)
