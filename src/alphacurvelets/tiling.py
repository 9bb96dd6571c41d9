"""Frequency-plane tiling and smooth window construction.

The frequency plane is split into dyadic coronae, each subdivided into
wedge pairs whose angular width follows anisotropic (alpha) scaling:
``2**(j*s)`` long, ``2**(j*s*alpha)`` wide at scale ``j``.  The windows are
polar tensor products of a radial corona profile and an angular profile,
both built from a quintic sine ramp so that the squared windows sum to one
exactly (up to float rounding) on every frequency.  On a finite grid a
single isotropic closure window absorbs everything above the top corona,
which keeps the partition of unity exact and hence makes the digital
transform in :mod:`alphacurvelets.transform` a Parseval frame.
:class:`FrameParams` holds this whole geometry: the scale ladder, tile
counts and angles, radial intervals and the window functions themselves.

The windows are evaluated once per lattice orbit of the mirror ``k -> -k``
and the reflection ``k2 -> -k2``, on the quadrant ``0 <= k1, k2 <= n/2``,
so they are exactly symmetric under both.  The reflection maps tile
``ell`` onto tile ``-ell``, so half the tiles are row flips of the others.

Conventions
-----------
* Image domain is ``[-1, 1]^2`` sampled ``grid_n`` per axis (corner-anchored,
  ``x_p = -1 + 2*p/grid_n``); frequencies live on the half-integer lattice
  ``xi = k/2`` cycles per unit, ``k`` integer with ``|k_i| <= grid_n/2``.
* Scale ``j = 0`` is the low-frequency ball, scales ``1..j_max`` are wedge
  coronae, and the pseudo-scale ``j_max + 1`` denotes the closure band.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrameParams",
    "TilingLayout",
    "TileSupport",
    "smooth_step",
    "build_layout",
    "verify_partition",
    "layout_to_json",
]


def as_index(value, name: str) -> int:
    """``value`` as a Python ``int``, by ``operator.index``.

    Numpy integers pass; ``5.5`` or ``"5"`` raise ``ValueError`` naming ``name``.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _poly_ramp(t: np.ndarray) -> np.ndarray:
    """Monotone quintic ramp ``p`` with p(0)=0, p(1)=1 and p(t)+p(1-t)=1."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smooth_step(t):
    """Smooth monotone step: 0 for ``t <= 0``, 1 for ``t >= 1``.

    Built as ``sin(pi/2 * p(t))`` with a quintic ramp ``p`` symmetric about
    ``t = 1/2``, so that ``smooth_step(t)**2 + smooth_step(1-t)**2 == 1``
    holds to machine precision.  Accepts scalars or arrays.
    """
    return np.sin(0.5 * np.pi * _poly_ramp(np.asarray(t, dtype=float)))


def _co_step(t):
    """Complementary step, equal to ``smooth_step(1 - t)`` exactly.

    Using the cosine form keeps ``smooth_step(t)**2 + _co_step(t)**2 == 1``
    within one ulp because both sides share the identical ramp argument.
    The zero end is masked: ``cos(pi/2)`` rounds to 6e-17, not 0, and the
    windows must vanish exactly outside their supports.  Just below
    ``t = 1`` the ramp rounds above 1 and the cosine to about -2e-15; it
    is clamped at 0, so no window is negative.
    """
    t = np.asarray(t, dtype=float)
    return np.where(t >= 1.0, 0.0, np.maximum(np.cos(0.5 * np.pi * _poly_ramp(t)), 0.0))


@dataclass(frozen=True)
class FrameParams:
    """Geometry of one frame: scale counts, angles, radial intervals and windows.

    Parameters
    ----------
    s : float
        Scale step exponent; corona radii grow like ``2**(j*s)``.
    alpha : float
        Anisotropy in ``(-inf, 1]``: 0 gives purely directional tiles,
        1/2 parabolic scaling, 1 isotropic tiles.
    grid_n : int
        Samples per axis on ``[-1, 1]^2``; must be even and >= 16.
    snapped : bool, default False
        Which corona ladder.  The default ladder has the radius unit
        ``corona_constant = 2**(-s) / (3*pi)``, the largest for which every
        wedge pair fits inside its anisotropic bounding rectangle, and as
        finest scale ``j_max`` the largest ``j`` with
        ``C * 2**(s*(j+1)) * tau2 <= grid_n / 4``, so the top corona stays
        below the grid Nyquist frequency with margin.  The snapped ladder
        (:meth:`nyquist_snapped`) ends the top corona's support exactly at
        ``grid_n / 4``.

    The radial transition knots are fixed by ``s``: ``tau1 = 2**(s/3)`` and
    ``tau2 = 2**(2*s/3)``, evenly log-spaced in ``(1, 2**s)``.  Radial
    windows are functions of ``y = log2(r / C)``: scale ``j`` rises on
    ``[(j-1)*s + log2(tau1), (j-1)*s + log2(tau2)]`` and falls on the same
    interval shifted by ``s``, except that the ball does not rise and the
    closure ``j_max + 1`` does not fall.  Rising and falling edges of
    adjacent scales share bit-identical ramp arguments, and the sine/cosine
    pairing makes the squared sum exactly one.  The angular profile is
    evaluated in bin coordinates (units of the tile angle), which keeps the
    neighbour-pair identity independent of the tile count.
    """

    s: float
    alpha: float
    grid_n: int
    snapped: bool = False
    corona_constant: float = field(init=False)
    j_max: int = field(init=False)

    def __post_init__(self) -> None:
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError(f"s must be positive and finite, got {self.s}")
        if not (math.isfinite(self.alpha) and self.alpha <= 1.0):
            raise ValueError(f"alpha must be finite and <= 1, got {self.alpha}")
        if self.alpha == 1.0:
            warnings.warn(
                "alpha = 1 collapses every corona to two isotropic tiles; "
                "supported, but outside the validated sweep",
                stacklevel=2,
            )
        object.__setattr__(self, "grid_n", as_index(self.grid_n, "grid_n"))
        if self.grid_n < 16 or self.grid_n % 2 != 0:
            raise ValueError(f"grid_n must be even and >= 16, got {self.grid_n}")
        s, top = self.s, self.grid_n / 4.0
        if self.snapped:
            j_max = math.floor(math.log2(top * 2.0**s / self.tau2) / s)
            C = top / (2.0 ** (j_max * s) * self.tau2)
        else:
            C = 2.0 ** (-s) / (3.0 * math.pi)
            if C * 2.0**s * self.tau2 > top:
                raise ValueError(f"grid_n={self.grid_n} too small for even one corona")
            j_max = 0
            while C * 2.0 ** (s * (j_max + 2)) * self.tau2 <= top:
                j_max += 1
        object.__setattr__(self, "corona_constant", C)
        object.__setattr__(self, "j_max", j_max)

    @property
    def tau1(self) -> float:
        """Lower radial knot ``2**(s/3)``: the corona ratio ``2**s`` in log thirds."""
        return 2.0 ** (self.s / 3.0)

    @property
    def tau2(self) -> float:
        """Upper radial knot ``2**(2*s/3)``."""
        return 2.0 ** (2 * self.s / 3.0)

    @staticmethod
    def nyquist_snapped(s: float, alpha: float, grid_n: int) -> "FrameParams":
        """Parameters whose top corona support ends exactly at Nyquist.

        The corona unit is chosen so ``C * 2**(j_max*s) * tau2 == grid_n/4``
        with the base ball covering roughly one lattice ring.  This leaves
        only the corner frequencies to the closure band, which matters for
        approximation-rate experiments: with the default (much smaller)
        corona unit, whole octaves of edge energy land in the single
        isotropic closure tile and flatten every N-term error curve.
        """
        return FrameParams(s, alpha, grid_n, snapped=True)

    def tile_count(self, j: int) -> int:
        """Number of wedge pairs ``L_j`` in the scale-``j`` corona.

        Any scale ``j >= 0`` is valid, also above ``j_max``: the phase-space
        parametrization of :mod:`alphacurvelets.molecules` does not depend
        on the grid.  Negative or non-integer scales raise ``ValueError``.
        """
        if as_index(j, "scale j") < 0:
            raise ValueError("scale must be nonnegative")
        if j == 0:
            return 1
        return 2 ** (math.floor(j * self.s * (1.0 - self.alpha)) + 1)

    def tile_angle(self, j: int) -> float:
        """Angular width ``phi_j = pi / L_j`` of one wedge at scale ``j``.

        Valid for every scale :meth:`tile_count` accepts.
        """
        return math.pi / self.tile_count(j)

    def ell_range(self, j: int) -> range:
        """Angular indices at scale ``j``: ``-floor(L/2) .. ceil(L/2)-1``.

        Valid for every scale :meth:`tile_count` accepts.
        """
        L = self.tile_count(j)
        return range(-(L // 2), L - (L // 2))

    def scale_of_closure(self) -> int:
        return self.j_max + 1

    def _check_scale(self, j: int) -> None:
        if not 0 <= as_index(j, "scale j") <= self.j_max + 1:
            raise ValueError(f"scale {j} outside [0, {self.j_max + 1}]")

    def _interval(self, j: int, rise_knot: float, fall_knot: float) -> tuple[float, float]:
        """``(C * 2**(s*(j-1)) * rise_knot, C * 2**(s*j) * fall_knot)``, from 0
        for the ball and to infinity for the closure."""
        self._check_scale(j)
        C, s = self.corona_constant, self.s
        lo = C * 2.0 ** (s * (j - 1)) * rise_knot if j > 0 else 0.0
        hi = C * 2.0 ** (s * j) * fall_knot if j <= self.j_max else math.inf
        return lo, hi

    def radial_support(self, j: int) -> tuple[float, float]:
        """Radial interval ``(lo, hi)`` outside which the scale-``j`` window is zero."""
        return self._interval(j, self.tau1, self.tau2)

    def radial_core(self, j: int) -> tuple[float, float]:
        """Radial interval ``(lo, hi)`` on which the scale-``j`` radial window is one."""
        return self._interval(j, self.tau2, self.tau1)

    def radial(self, j: int, r) -> np.ndarray:
        """Radial factor ``U_j(r)``; ``j = j_max + 1`` selects the closure."""
        self._check_scale(j)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        y = np.full(r.shape, -np.inf)  # r = 0: smooth_step(-inf) is exactly 0
        pos = r > 0
        y[pos] = np.log2(r[pos] / self.corona_constant)
        lt1 = math.log2(self.tau1)
        dlt = math.log2(self.tau2) - lt1
        rise = smooth_step((y - ((j - 1) * self.s + lt1)) / dlt) if j > 0 else 1.0
        fall = _co_step((y - (j * self.s + lt1)) / dlt) if j <= self.j_max else 1.0
        return rise * fall

    def angular_bins(self, j: int, theta) -> np.ndarray:
        """Angle mapped to tile-index units: ``(theta mod pi) / phi_j``."""
        phi = self.tile_angle(j)
        return (np.asarray(theta, dtype=float) % math.pi) / phi

    def angular_from_bins(self, j: int, m, center) -> np.ndarray:
        """Angular factor of the wedge centred at integer bin ``center``.

        ``m`` is the output of :meth:`angular_bins`.  The pair of opposite
        lobes is folded together by the mod-``L`` reduction, so a single
        expression covers the symmetric wedge pair.
        """
        L = self.tile_count(j)
        # abs before the modulo: reducing a small negative offset mod L would
        # absorb its low bits into the large modulus
        d = np.abs(np.asarray(m, dtype=float) - np.asarray(center)) % L
        d = np.minimum(d, L - d)
        return _co_step(2.0 * d - 0.5)

    def angular(self, j: int, ell: int, theta) -> np.ndarray:
        """Angular factor ``V_{j,ell}`` on directions ``theta`` (radians)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if j == 0 or j == self.j_max + 1:
            return np.ones_like(theta)
        L = self.tile_count(j)
        if ell not in self.ell_range(j):
            raise ValueError(f"ell={ell} outside range for scale {j} (L={L})")
        m = self.angular_bins(j, theta)
        return self.angular_from_bins(j, m, ell % L)

    def window(self, j: int, ell: int, xi) -> np.ndarray:
        """Full window ``W_{j,ell}`` on frequency points ``xi`` (..., 2)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        r = np.hypot(xi[..., 0], xi[..., 1])
        vals = self.radial(j, r)
        if j != 0 and j != self.j_max + 1:
            theta = np.arctan2(xi[..., 1], xi[..., 0])
            vals = vals * self.angular(j, ell, theta)
        return vals

    def as_dict(self) -> dict:
        """The frame's values as the layout and coefficient dumps record them,
        the derived knots ``tau1`` and ``tau2`` included."""
        return {
            "s": self.s,
            "alpha": self.alpha,
            "grid_n": self.grid_n,
            "corona_constant": self.corona_constant,
            "tau1": self.tau1,
            "tau2": self.tau2,
            "j_max": self.j_max,
        }


@dataclass
class TilingLayout:
    """All tiles of one frame: ball, wedges scale-major, closure last.

    ``wedges[i]`` is the :class:`TileSupport` of tile ``i``, one record per
    tile from the layout's one scan of the lattice.  Every tile of a scale
    shares that scale's geometry, which ``params`` gives:
    :meth:`FrameParams.tile_angle`, :meth:`FrameParams.radial_support`,
    :meth:`FrameParams.radial_core` and the windows :meth:`FrameParams.window`
    evaluates.  Frames and :func:`verify_partition`
    use these records rather than scanning again, so treat them as
    read-only.
    """

    params: FrameParams
    wedges: list[TileSupport] = field(default_factory=list, repr=False, compare=False)


class TileSupport:
    """Tile ``(j, ell)`` of a layout: its lattice support on the rfft half
    spectrum, folded on its wrap box.

    Every tile is a pair of opposite lobes, so its support and window are
    symmetric under ``k -> -k``; for a real image only the half spectrum
    ``k2 mod n`` in ``[0, n/2]`` is kept.  ``grid_flat`` indexes that half
    spectrum, ``(k1 mod n) * (n/2 + 1) + (k2 mod n)``, and ``window`` holds
    the window there.  Its first ``n_spectrum`` entries are the support's
    points on the half spectrum, each once.  Tile ``(j, -ell)`` is the
    image of tile ``(j, ell)`` under ``k2 -> -k2``: the same record with
    its rows flipped, which :func:`build_layout` makes from the rows the
    fold of tile ``(j, ell)`` holds.

    The record is built complete from the scan's entries, in one fold: the
    wrap box ``P1 x P2`` is the one :func:`_find_wrap_periods` picks, or
    the whole grid when ``wrap`` is false.  ``box_flat`` is each entry's
    flat index on the half box ``P1 x (P2/2 + 1)``.  Entries from
    ``n_direct`` on are mirrored: the box position is that of ``-k``,
    which takes the conjugate value.  Entries past ``n_spectrum`` serve
    analysis only; they fill box columns 0 and ``P2/2``, where both a
    point's fold and its mirror's lie in the half box, for points whose
    mirror the half spectrum omits.  ``support_cardinality`` is the size
    of the full support.  On the whole grid the half spectrum folds onto
    itself, so the closure's ``box_flat`` is its ``grid_flat``.

    Only a tile reaching the Nyquist edge (the points ``(0, -n/2)`` and
    ``(-n/2, 0)``, which a snapped top corona can touch) may have a period
    widened to ``n``.  Once it is, the fold of ``-k`` is minus the fold of
    ``k``, so each point of the full support has its own fold in the half
    box, or its mirror does, and ``box_flat`` holds exactly those folds:
    two support points share a wrapped box position if and only if two
    entries of ``box_flat`` share a cell.  The collision check is that
    scatter; it raises ``RuntimeError`` on a shared cell.
    """

    __slots__ = (
        "j", "ell", "grid_n", "grid_flat", "window", "n_spectrum", "n_direct", "P1", "P2", "box_flat",
        "support_cardinality",
    )

    def __init__(self, j, ell, grid_n, grid_flat, window, wrap):
        self._fold(j, ell, grid_n, grid_flat, window, wrap)

    def _fold(self, j, ell, grid_n, grid_flat, window, wrap):
        """Fill every slot; returns each entry's signed grid row ``k1`` and its
        box row, which :meth:`_with_reflection` flips, or ``None`` for the closure."""
        n, half = grid_n, grid_n // 2
        self.j, self.ell, self.grid_n = j, ell, grid_n
        self.n_spectrum = grid_flat.size
        if not wrap:
            # the box is the grid: the half spectrum folds onto itself, entry by entry
            col = grid_flat % (half + 1)
            self.support_cardinality = grid_flat.size + int(np.count_nonzero((col != 0) & (col != half)))
            self.grid_flat = self.box_flat = grid_flat
            self.window, self.n_direct = window, grid_flat.size
            self.P1 = self.P2 = n
            return None
        k1, k2, omitted = _signed_indices(grid_flat, n)
        full1, full2 = _with_mirrors(k1, k2, omitted, half)
        P1, P2 = _find_wrap_periods(full1, full2, n)
        # on the Nyquist edge the mirror of k is -k + n, not -k: folding
        # it to the mirrored box position needs a period that divides n
        # there.  Widening that period to n keeps the box collision-free.
        if n % P1 and k1.min() == -half:
            P1 = n
        if n % P2 and k2.min() == -half:
            P2 = n
        self.support_cardinality = full1.size
        del full1, full2
        cols = P2 // 2 + 1
        m1, m2 = k1 % P1, k2 % P2
        conj = m2 >= cols
        extra = omitted & ((m2 == 0) | (m2 == cols - 1))
        order = np.concatenate([(~conj).nonzero()[0], conj.nonzero()[0], extra.nonzero()[0]])
        self.n_direct = n_direct = self.n_spectrum - int(np.count_nonzero(conj))
        # entries from n_direct on take the fold of -k: row -m1 mod P1, and
        # column P2 - m2, except the extra ones, whose columns are their own mirrors
        box_row, box_col = m1[order], m2[order]
        mirrored_row = box_row[n_direct:]
        np.subtract(P1, mirrored_row, out=mirrored_row, where=mirrored_row != 0)
        np.subtract(P2, box_col[n_direct : self.n_spectrum], out=box_col[n_direct : self.n_spectrum])
        box_flat = box_row * cols + box_col
        if not _collision_free(box_flat, P1 * cols):
            raise RuntimeError(f"wrap collision in tile ({j}, {ell})")
        self.grid_flat = grid_flat[order]
        self.window = window[order]
        self.box_flat = box_flat
        self.P1, self.P2 = P1, P2
        return k1[order], box_row

    @classmethod
    def _with_reflection(cls, j, ell, grid_n, grid_flat, window, wrap) -> list[TileSupport]:
        """Tile ``(j, ell)``, and for ``ell > 0`` also tile ``(j, -ell)``.

        With the mirror ``k -> -k``, the reflection ``k2 -> -k2`` maps
        ``(k1, k2)`` onto ``(-k1, k2)``, so each entry keeps its column and
        window and flips its row in the half spectrum and the box, rows the
        fold holds.  The wrap search finds the same box for tiles off the
        row ``k1 = -n/2``, as every tile ``0 < ell < L/2`` is.
        """
        tile = cls.__new__(cls)
        rows = tile._fold(j, ell, grid_n, grid_flat, window, wrap)
        if ell <= 0:
            return [tile]
        k1, box_row = rows
        out = copy.copy(tile)
        out.ell = -ell
        # row k1 mod n goes to -k1 mod n, a move of n sign(k1) - 2 k1 (0 on the row -n/2);
        # box row r goes to -r mod P1, a move of P1 - 2 r unless r is 0
        out.grid_flat = tile.grid_flat + (grid_n * np.sign(k1) - 2 * k1) * (grid_n // 2 + 1)
        out.box_flat = tile.box_flat + (np.where(box_row != 0, tile.P1, 0) - 2 * box_row) * (tile.P2 // 2 + 1)
        return [tile, out]

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full lattice support: signed ``k1``, ``k2`` in ``[-n/2, n/2)`` and
        window samples; the half-spectrum points first, then the mirrors it
        omits."""
        k1, k2, omitted = _signed_indices(self.grid_flat[: self.n_spectrum], self.grid_n)
        w = self.window[: self.n_spectrum]
        return (*_with_mirrors(k1, k2, omitted, self.grid_n // 2), np.concatenate([w, w[omitted]]))


def _signed_indices(grid_flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed ``k1``, ``k2`` in ``[-n/2, n/2)`` of half-spectrum indices, and
    the mask of the points whose mirror the half spectrum omits (columns
    other than 0 and ``n/2``)."""
    half = n // 2
    row, col = np.divmod(grid_flat, half + 1)
    k1 = np.where(row >= half, row - n, row)
    k2 = np.where(col == half, -half, col)
    return k1, k2, (col != 0) & (col != half)


def _with_mirrors(k1, k2, omitted, half):
    """Points plus the mirrors of the ``omitted`` ones, signed in ``[-n/2, n/2)``."""
    m1 = -k1[omitted]
    m1[m1 == half] = -half  # the row k1 = -n/2 is its own mirror modulo n
    return np.concatenate([k1, m1]), np.concatenate([k2, -k2[omitted]])


def _scan_supports(params: FrameParams) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Evaluate every window once per reflection orbit of lattice points.

    Returns ``(j, ell, grid_flat, window)``, the entries :class:`TileSupport`
    folds, for the tiles ``0 <= ell < L/2`` and ``ell = -L/2`` of each
    scale (``ell = 0`` for the ball and the closure), scale-major.  The
    scanned points are the quadrant ``(a, b)``, ``0 <= a, b <= n/2``, with
    radius and angle computed once; a tile ``ell`` binned at ``(a, b)``
    takes that half-spectrum point.  For ``0 < a < n/2`` the row mirror
    ``(-a, b)`` takes the same value: on the columns 0 and ``n/2`` it is
    the mirror of ``(a, -b) = (a, b)`` and goes to tile ``ell``; elsewhere
    it is the mirror of the reflection ``(a, -b)`` and goes to tile
    ``-ell``.  So every window is exactly symmetric under ``k -> -k`` and
    ``k2 -> -k2`` by construction.  Points are binned per scale by radius,
    inside :meth:`FrameParams.radial_support`, and per wedge by angle, so
    each point is touched only by the (at most four) windows nonzero there.
    """
    n = params.grid_n
    half = n // 2
    cols = half + 1
    a, b = np.divmod(np.arange(cols * cols), cols)
    r = 0.5 * np.hypot(a, b)
    theta = np.arctan2(b, a)
    flat, row_mirror = a * cols + b, (n - a) * cols + b
    inner = (a > 0) & (a < half)
    same_tile = (b == 0) | (b == half)

    out: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    for j in range(params.j_max + 2):
        lo, hi = params.radial_support(j)
        inside = r < hi
        if j > 0:  # the ball holds the origin, where r == lo
            inside &= r > lo
        pt = np.flatnonzero(inside)
        W = params.radial(j, r[pt])
        L, cbin = 1, np.zeros(pt.size, dtype=np.int64)
        if 0 < j <= params.j_max:
            L = params.tile_count(j)
            m = params.angular_bins(j, theta[pt])
            c_hi = np.floor(m + 0.75)
            c_lo = np.ceil(m - 0.75)
            second = c_hi != c_lo
            pt = np.concatenate([pt, pt[second]])
            centers = np.concatenate([c_lo, c_hi[second]])
            V = params.angular_from_bins(j, np.concatenate([m, m[second]]), centers)
            keep = V > 0
            pt, W = pt[keep], (np.concatenate([W, W[second]]) * V)[keep]
            cbin = centers[keep].astype(np.int64) % L
        mirrored = inner[pt]
        pm, cm = pt[mirrored], cbin[mirrored]
        tile = np.concatenate([cbin, np.where(same_tile[pm], cm, -cm % L)])
        scanned = tile <= L // 2
        f = np.concatenate([flat[pt], row_mirror[pm]])[scanned]
        W = np.concatenate([W, W[mirrored]])[scanned]
        tile = tile[scanned]
        order = np.argsort(tile, kind="stable")
        bounds = np.searchsorted(tile[order], np.arange(L // 2 + 2))
        for c in range(L // 2 + 1):
            sl = order[bounds[c] : bounds[c + 1]]
            out.append((j, c if 2 * c < L else c - L, f[sl], W[sl]))
    return out


def _collision_free(keys: np.ndarray, size: int) -> bool:
    """Whether the ``keys``, each in ``[0, size)``, are pairwise distinct."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.count_nonzero(seen) == keys.size


def _even_up(x: float) -> int:
    v = int(math.ceil(x))
    return v if v % 2 == 0 else v + 1


def _find_wrap_periods(k1: np.ndarray, k2: np.ndarray, grid_n: int) -> tuple[int, int]:
    """Small even wrap box with pairwise-disjoint modulo translates.

    Two families are scanned: full extent along one axis with the other
    axis wrapped (and vice versa).  Within a family the wrapped period
    starts at the densest-column count and grows (+2 first, then
    geometrically) until the collision scan passes or the period covers
    the axis's extent (capped at the grid).  The second way always passes:
    the full-extent period is at least that axis's span, so both axes then
    reduce one-to-one.  The smaller-area box wins.
    """
    m = len(k1)
    if m == 0:
        return 2, 2
    cands = []
    lo1, lo2 = k1.min(), k2.min()
    span1, span2 = int(k1.max() - lo1) + 1, int(k2.max() - lo2) + 1
    for ka, kb, lo_a, lo_b, span_a, span_b, swap in (
        (k1, k2, lo1, lo2, span1, span2, False),
        (k2, k1, lo2, lo1, span2, span1, True),
    ):
        Pa = min(_even_up(span_a), grid_n)
        # Pa covers the span, so ka - lo_a numbers the rows ka mod Pa one to
        # one; shifting kb shifts its residues, which moves no collision
        rows, kb = ka - lo_a, kb - lo_b
        Pb = max(2, _even_up(np.bincount(rows).max()), _even_up(m / Pa))
        tries = 0
        while Pb < min(span_b, grid_n) and not _collision_free(rows * Pb + kb % Pb, span_a * Pb):
            tries += 1
            Pb = Pb + 2 if tries <= 8 else _even_up(Pb * 1.25)
        Pb = min(Pb, grid_n)
        # in the swapped family the check above is that of the box with its axes exchanged
        cands.append((Pb, Pa) if swap else (Pa, Pb))
    return min(cands, key=lambda P: P[0] * P[1])


def build_layout(params: FrameParams) -> TilingLayout:
    """Construct the full tiling: one folded lattice support per tile.

    The tile list is ordered scale-major (ball first, angular index
    ascending within each scale, closure last); this ordering is the
    stable flat order used for coefficient tie-breaking downstream.
    :class:`TileSupport` folds the scanned tiles ``0 <= ell < L/2`` and
    ``ell = -L/2`` of each scale; each tile ``-L/2 < ell < 0`` is tile
    ``-ell`` with its rows flipped, made in the same call.
    """
    closure = params.scale_of_closure()
    wedges = []
    for j, ell, grid_flat, window in _scan_supports(params):
        wedges += TileSupport._with_reflection(j, ell, params.grid_n, grid_flat, window, wrap=j != closure)
    wedges.sort(key=lambda t: (t.j, t.ell))
    return TilingLayout(params=params, wedges=wedges)


def verify_partition(layout: TilingLayout) -> float:
    """Max deviation of the squared-window sum from 1 over the lattice.

    Accumulates over the supports the layout already holds, so no lattice
    scan runs here.  The windows are exactly symmetric, so the rfft half
    spectrum they hold gives the maximum over the whole lattice.
    """
    params = layout.params
    acc = np.zeros(params.grid_n * (params.grid_n // 2 + 1))
    for sup in layout.wedges:
        ns = sup.n_spectrum
        acc[sup.grid_flat[:ns]] += sup.window[:ns] ** 2
    return float(np.abs(acc - 1.0).max())


def layout_to_json(layout: TilingLayout) -> str:
    """Serialize per-wedge geometry for golden tests and debugging."""
    p = layout.params
    doc = {
        "params": p.as_dict(),
        "wedges": [
            {
                "j": w.j,
                "ell": w.ell,
                "orientation_radians": w.ell * p.tile_angle(w.j),
                "radial_support": list(p.radial_support(w.j)),
                "wrap_periods": [w.P1, w.P2],
                "support_cardinality": w.support_cardinality,
                "is_closure": w.j == p.scale_of_closure(),
            }
            for w in layout.wedges
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=True)
