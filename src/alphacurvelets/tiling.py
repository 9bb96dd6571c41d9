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
The transpose ``(k1, k2) -> (k2, k1)`` maps tile ``ell`` onto tile
``L/2 - ell`` up to rounding at the angular edges.  The windows are not
shared across it, but the wrap search is: it runs one family routine on
``(k1, k2)`` and on ``(k2, k1)``, so the two tiles' candidate boxes are
each other's swapped, and one search serves both tiles of a pair unless
the scan finds a lattice point within ``EDGE_TOL`` of an edge of their
orbit.

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
    "S_LIMIT",
    "TILE_LIMIT",
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


# A build makes one record per tile, at about 16 us even for an empty one
# (599,186 tiles at grid 64, alpha -2, took 9.7 s), and a scale holds
# 2**(floor(j*s*(1-alpha)) + 1) tiles, so a negative alpha or a small s asks
# for millions.  The largest frame tested or packaged has 93,622 tiles
# (grid 1024, alpha -0.5, default ladder); 2**17 lets it through with room.
TILE_LIMIT = 2**17

# The ladder takes powers of two up to about (grid_n/4) * 2**(4s/3), and a
# double overflows past 2**1024: 2**s raises from s = 1024, and the snapped
# ladder's (grid_n/4) * 2**s is inf near s = 1017 at grid 256.  512 keeps every
# such power below (grid_n/4) * 2**683.  No frame loses a wedge scale by it:
# above s = 1.5 log2(grid_n/4), about 20 at grid 2**16, the snapped ladder is
# the ball and the closure and the default ladder refuses.  The largest s
# tested or packaged is 8.
S_LIMIT = 512


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

    A frame of more than :data:`TILE_LIMIT` tiles (ball, wedges and
    closure), or with ``s`` above :data:`S_LIMIT`, raises ``ValueError``
    before any per-scale work.

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
        if self.s > S_LIMIT:  # before any power of two is taken
            raise ValueError(f"s must be at most S_LIMIT = {S_LIMIT}, got {self.s}")
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
            scales = math.log2(top * 2.0**s / self.tau2) / s  # j_max is its floor
        else:
            C = 2.0 ** (-s) / (3.0 * math.pi)
            if C * 2.0**s * self.tau2 > top:
                raise ValueError(f"grid_n={self.grid_n} too small for even one corona")
            scales = math.log2(top / (C * self.tau2)) / s - 1.0  # j_max is its floor, up to rounding
        if scales > TILE_LIMIT:  # each wedge scale holds two tiles or more
            self._refuse(2 * TILE_LIMIT)
        j_max = max(0, math.floor(scales))
        if self.snapped:
            C = top / (2.0 ** (j_max * s) * self.tau2)
        else:
            # the largest j with C * 2**(s*(j+1)) * tau2 <= top, by the test itself
            while j_max > 0 and C * 2.0 ** (s * (j_max + 1)) * self.tau2 > top:
                j_max -= 1
            while C * 2.0 ** (s * (j_max + 2)) * self.tau2 <= top:
                j_max += 1
        tiles = 2  # the ball and the closure, then the wedges from the top scale, the largest, down
        for j in range(j_max, 0, -1):
            tiles += 2 ** (math.floor(min(j * s * (1.0 - self.alpha), 64.0)) + 1)  # tile_count(j)
            if tiles > TILE_LIMIT:
                self._refuse(tiles)
        object.__setattr__(self, "corona_constant", C)
        object.__setattr__(self, "j_max", j_max)

    def _refuse(self, tiles: int) -> None:
        raise ValueError(
            f"the frame at s={self.s}, alpha={self.alpha}, grid_n={self.grid_n} has at least "
            f"{tiles:,} tiles, above TILE_LIMIT = {TILE_LIMIT:,}"
        )

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
    points on the half spectrum, each once.

    :meth:`_fold` builds the records complete from the scan's entries, and
    tile ``(j, -ell)``, the image of tile ``(j, ell)`` under ``k2 -> -k2``,
    as that tile's rows flipped.  The wrap box ``P1 x P2`` is the smaller
    of two candidate boxes, the first on a tie: those :func:`_wrap_families`
    gives, or those the caller passes (:func:`build_layout` gives a
    transpose partner the first tile's swapped, which equal its own).  The
    closure's box is the whole grid (:meth:`_closure`).  ``box_flat`` is
    each entry's flat index on the half box ``P1 x (P2/2 + 1)``.  Entries
    from ``n_direct`` on are mirrored: the box position is that of ``-k``,
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

    @classmethod
    def _closure(cls, j, grid_n, grid_flat, window) -> TileSupport:
        """The closure: its box is the grid, onto which the half spectrum folds entry by entry."""
        half, tile = grid_n // 2, cls.__new__(cls)
        col = grid_flat % (half + 1)
        tile.support_cardinality = grid_flat.size + int(np.count_nonzero((col != 0) & (col != half)))
        tile.j, tile.ell, tile.grid_n, tile.P1, tile.P2 = j, 0, grid_n, grid_n, grid_n
        tile.grid_flat = tile.box_flat = grid_flat
        tile.window, tile.n_spectrum, tile.n_direct = window, grid_flat.size, grid_flat.size
        return tile

    @classmethod
    def _fold(cls, j, ell, grid_n, grid_flat, window, boxes=None) -> tuple[list[TileSupport], tuple]:
        """Tile ``(j, ell)``, and for ``ell > 0`` also tile ``(j, -ell)``, with
        the two candidate boxes of the full support it took the smaller of:
        ``boxes`` if given, else those :func:`_wrap_families` finds.

        With the mirror ``k -> -k``, the reflection ``k2 -> -k2`` maps
        ``(k1, k2)`` onto ``(-k1, k2)``, so tile ``(j, -ell)`` is tile
        ``(j, ell)`` with each entry's column and window kept and its row
        flipped in the half spectrum and the box.  The wrap search finds the
        same box for tiles off the row ``k1 = -n/2``, as every tile
        ``0 < ell < L/2`` is.
        """
        n, half = grid_n, grid_n // 2
        k1, k2, omitted, full1, full2 = _signed_support(grid_flat, n)
        if boxes is None:
            boxes = _wrap_families(full1, full2, n)
        P1, P2 = _smaller(*boxes)
        # on the Nyquist edge the mirror of k is -k + n, not -k: folding
        # it to the mirrored box position needs a period that divides n
        # there.  Widening that period to n keeps the box collision-free.
        if n % P1 and k1.min() == -half:
            P1 = n
        if n % P2 and k2.min() == -half:
            P2 = n
        ns, tile = grid_flat.size, cls.__new__(cls)
        tile.support_cardinality = full1.size
        del full1, full2
        cols = P2 // 2 + 1
        m1, m2 = k1 % P1, k2 % P2
        conj = m2 >= cols
        extra = omitted & ((m2 == 0) | (m2 == cols - 1))
        order = np.concatenate([(~conj).nonzero()[0], conj.nonzero()[0], extra.nonzero()[0]])
        n_direct = ns - int(np.count_nonzero(conj))
        # entries from n_direct on take the fold of -k: row -m1 mod P1, and
        # column P2 - m2, except the extra ones, whose columns are their own mirrors
        box_row, box_col = m1[order], m2[order]
        mirrored_row = box_row[n_direct:]
        np.subtract(P1, mirrored_row, out=mirrored_row, where=mirrored_row != 0)
        np.subtract(P2, box_col[n_direct:ns], out=box_col[n_direct:ns])
        box_flat = box_row * cols + box_col
        if not _collision_free(box_flat, P1 * cols):
            raise RuntimeError(f"wrap collision in tile ({j}, {ell})")
        tile.j, tile.ell, tile.grid_n, tile.P1, tile.P2 = j, ell, grid_n, P1, P2
        tile.n_spectrum, tile.n_direct = ns, n_direct
        tile.grid_flat, tile.window, tile.box_flat = grid_flat[order], window[order], box_flat
        if ell <= 0:
            return [tile], boxes
        k1 = k1[order]
        out = copy.copy(tile)
        out.ell = -ell
        # row k1 mod n goes to -k1 mod n, a move of n sign(k1) - 2 k1 (0 on the row -n/2);
        # box row r goes to -r mod P1, a move of P1 - 2 r unless r is 0
        out.grid_flat = tile.grid_flat + (n * np.sign(k1) - 2 * k1) * (half + 1)
        out.box_flat = box_flat + (np.where(box_row != 0, P1, 0) - 2 * box_row) * cols
        return [tile, out], boxes

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full lattice support: signed ``k1``, ``k2`` in ``[-n/2, n/2)`` and
        window samples; the half-spectrum points first, then the mirrors it
        omits."""
        _, _, omitted, full1, full2 = _signed_support(self.grid_flat[: self.n_spectrum], self.grid_n)
        w = self.window[: self.n_spectrum]
        return full1, full2, np.concatenate([w, w[omitted]])


def _signed_support(grid_flat: np.ndarray, n: int):
    """Decode half-spectrum indices: signed ``k1``, ``k2`` in ``[-n/2, n/2)``,
    the mask of the points whose mirror the half spectrum omits (columns
    other than 0 and ``n/2``), and the full support's ``k1`` and ``k2``: the
    points, then those mirrors."""
    half = n // 2
    row, col = np.divmod(grid_flat, half + 1)
    k1 = np.where(row >= half, row - n, row)
    k2 = np.where(col == half, -half, col)
    omitted = (col != 0) & (col != half)
    m1 = -k1[omitted]
    m1[m1 == half] = -half  # the row k1 = -n/2 is its own mirror modulo n
    return k1, k2, omitted, np.concatenate([k1, m1]), np.concatenate([k2, -k2[omitted]])


# The transpose (k1, k2) -> (k2, k1) maps tile ell onto tile L/2 - ell, but
# arctan2 of a swapped pair is pi/2 minus the other only up to rounding, so
# the two sides' angular bins m differ by up to about 1e-12.  At distance d from
# its centre the angular window is cos(pi/2 p(t)), t = 2d - 1/2, and near
# the edge d = 3/4, with t = 1 - eps, 1 - p(1 - eps) ~ 10 eps^3.  The window
# rounds to zero only where that is a few ulps of 1 (10 eps^3 < 1.25e-15,
# eps < 5e-6), so a point can be in the support on one side and out on the
# other only for 3/4 - d < 2.5e-6, or 1e-12 past the edge; the candidate
# centres floor(m + 3/4) and ceil(m - 3/4) move only within 1e-12 of an
# edge too.  Flagging every edge within EDGE_TOL of a point leaves a margin of 4x.
EDGE_TOL = 1e-5


def _candidate_centres(m: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray, set[int]]:
    """The centres ``ceil(m - 3/4)`` and ``floor(m + 3/4)`` of the (at most
    two) tiles each angular bin of ``m`` may fall in, and the set of centres
    mod ``L`` with an edge ``c -+ 3/4`` within ``EDGE_TOL`` bins of a bin.

    One buffer holds the offsets from both rounded edges in turn: the scan
    sets the build's peak memory.
    """
    off = m + 0.75
    c_hi = np.floor(off)
    off -= c_hi  # past the lower edge of c_hi, in [0, 1); that of c_hi + 1 lies 1 - off ahead
    near = [c_hi[off < EDGE_TOL], c_hi[off > 1.0 - EDGE_TOL] + 1.0]
    np.subtract(m, 0.75, out=off)
    c_lo = np.ceil(off)
    off -= c_lo  # past the upper edge of c_lo, in (-1, 0]; that of c_lo - 1 lies 1 + off behind
    near += [c_lo[off > -EDGE_TOL], c_lo[off < EDGE_TOL - 1.0] - 1.0]
    return c_lo, c_hi, {int(c) % L for c in np.concatenate(near)}


def _scan_supports(params: FrameParams, near_edge: set) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Evaluate every window once per reflection orbit of lattice points.

    Returns ``(j, ell, grid_flat, window)``, the entries :class:`TileSupport`
    folds, for the tiles ``0 <= ell < L/2`` and ``ell = -L/2`` of each
    scale (``ell = 0`` for the ball and the closure), scale-major.  The
    scanned points are the quadrant ``(a, b)``, ``0 <= a, b <= n/2``, with
    radius and angle computed once; a point's quadrant index
    ``a * (n/2 + 1) + b`` is its half-spectrum index, and a tile ``ell``
    binned at ``(a, b)`` takes that point.  For ``0 < a < n/2`` the row
    mirror ``(-a, b)`` takes the same value: on the columns 0 and ``n/2``
    it is the mirror of ``(a, -b) = (a, b)`` and goes to tile ``ell``;
    elsewhere it is the mirror of the reflection ``(a, -b)`` and goes to
    tile ``-ell``, which is scanned only for ``ell`` 0 or ``L/2``.  The
    scan makes just those mirrors, the ones a scanned tile takes.  So
    every window is exactly symmetric under ``k -> -k`` and ``k2 -> -k2``
    by construction.  Points are binned per scale by radius,
    inside :meth:`FrameParams.radial_support`, and per wedge by angle, so
    each point is touched only by the (at most four) windows nonzero there.

    Adds to ``near_edge`` each ``(j, c)``, ``0 <= c < L``, whose angular
    edge ``c -+ 3/4`` lies within ``EDGE_TOL`` bins of a scanned point of
    scale ``j``: only there can a tile's support differ from the transpose
    of its partner's.
    """
    n = params.grid_n
    half = n // 2
    cols = half + 1
    k = np.arange(cols)
    r = 0.5 * np.hypot(k[:, None], k).ravel()
    theta = np.arctan2(k, k[:, None]).ravel()

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
            c_lo, c_hi, edges = _candidate_centres(m, L)
            near_edge.update((j, c) for c in edges)
            second = c_hi != c_lo
            pt = np.concatenate([pt, pt[second]])
            centers = np.concatenate([c_lo, c_hi[second]])
            V = params.angular_from_bins(j, np.concatenate([m, m[second]]), centers)
            keep = V > 0
            pt, W = pt[keep], (np.concatenate([W, W[second]]) * V)[keep]
            cbin = centers[keep].astype(np.int64) % L
        # the row mirror (-a, b) of an inner row 0 < a < n/2 goes to tile c on the
        # columns 0 and n/2 and to tile -c elsewhere, so it is scanned, in tile c,
        # only for c = -c mod L, that is c in {0, L/2}: column 0 (angle 0) lies in
        # tile 0, and column n/2 (radius n/4 and more) in the ball or closure, L = 1
        a = pt // cols
        mirrored = (a > 0) & (a < half) & ((cbin == 0) | (cbin == L // 2))
        f = np.concatenate([pt, pt[mirrored] + (n - 2 * a[mirrored]) * cols])
        W = np.concatenate([W, W[mirrored]])
        tile = np.concatenate([cbin, cbin[mirrored]])
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


def _family(rows: np.ndarray, kb: np.ndarray, grid_n: int) -> tuple[int, int]:
    """One family's box ``(Pa, Pb)`` of zero-based points: ``Pa`` covers the
    extent of ``rows``, which so number the rows ``mod Pa`` one to one, and
    ``Pb``, from the densest-row count, grows (+2 first, then geometrically)
    until the collision scan passes or it covers ``kb``'s extent or the grid.
    """
    span_a, span_b = int(rows.max()) + 1, int(kb.max()) + 1
    Pa = min(_even_up(span_a), grid_n)
    Pb = max(2, _even_up(np.bincount(rows).max()), _even_up(rows.size / Pa))
    tries = 0
    while Pb < min(span_b, grid_n) and not _collision_free(rows * Pb + kb % Pb, span_a * Pb):
        tries += 1
        Pb = Pb + 2 if tries <= 8 else _even_up(Pb * 1.25)
    return Pa, min(Pb, grid_n)


def _wrap_families(k1: np.ndarray, k2: np.ndarray, grid_n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two candidate boxes of the wrap search, each as ``(P1, P2)``:
    :func:`_family` on ``(k1, k2)`` and on ``(k2, k1)``, axes put back.

    Shifting an axis shifts its residues, which moves no collision, so the
    families run on ``k - k.min()``.  The second way always passes: the
    full-extent period is at least that axis's span, so both axes then
    reduce one-to-one.  On the transposed set ``(k2, k1)`` the two calls
    trade places, so its candidates are ``(c2[::-1], c1[::-1])``.
    """
    if k1.size == 0:
        return (2, 2), (2, 2)
    r1, r2 = k1 - k1.min(), k2 - k2.min()
    return _family(r1, r2, grid_n), _family(r2, r1, grid_n)[::-1]


def _smaller(c1: tuple[int, int], c2: tuple[int, int]) -> tuple[int, int]:
    """The box of smaller area, ``c1`` on a tie."""
    return c2 if c2[0] * c2[1] < c1[0] * c1[1] else c1


def build_layout(params: FrameParams) -> TilingLayout:
    """Construct the full tiling: one folded lattice support per tile.

    The tile list is ordered scale-major (ball first, angular index
    ascending within each scale, closure last); this ordering is the
    stable flat order used for coefficient tie-breaking downstream.
    :meth:`TileSupport._fold` folds the scanned tiles ``0 <= ell < L/2`` and
    ``ell = -L/2`` of each scale; each tile ``-L/2 < ell < 0`` is tile
    ``-ell`` with its rows flipped, made in the same call.

    The transpose ``(k1, k2) -> (k2, k1)`` maps tile ``ell`` onto tile
    ``L/2 - ell``, so one wrap search serves both: the first tile of a
    pair to fold keeps the two candidate boxes it found, the partner takes
    them swapped, and each tile's fold takes the smaller.
    A pair whose orbit ``{c, -c, L/2 - c, L/2 + c}`` holds a centre the scan
    flags near an edge searches each tile, as the ball and the tile
    ``L/4``, its own transpose, do.  The scan bins only the quadrant, so it
    flags centres in ``[0, L/2]``, where the orbit is ``c`` and ``L/2 - c``.
    Each tile widens its own box at the Nyquist edge and keeps its
    collision check.
    """
    closure = params.scale_of_closure()
    near_edge: set[tuple[int, int]] = set()
    found: dict[tuple[int, int], tuple] = {}  # the boxes of each pair's first tile, c < partner
    wedges = []
    for j, ell, grid_flat, window in _scan_supports(params, near_edge):
        if j == closure:
            wedges.append(TileSupport._closure(j, params.grid_n, grid_flat, window))
            continue
        L = params.tile_count(j)
        c, partner = ell % L, (L // 2 - ell) % L
        paired = c != partner and near_edge.isdisjoint(((j, c), (j, partner)))
        boxes = None
        if paired and c > partner:
            c1, c2 = found.pop((j, partner))
            boxes = c2[::-1], c1[::-1]
        tiles, boxes = TileSupport._fold(j, ell, params.grid_n, grid_flat, window, boxes)
        if paired and c < partner:
            found[j, c] = boxes
        wedges += tiles
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
