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

Conventions
-----------
* Image domain is ``[-1, 1]^2`` sampled ``grid_n`` per axis (corner-anchored,
  ``x_p = -1 + 2*p/grid_n``); frequencies live on the half-integer lattice
  ``xi = k/2`` cycles per unit, ``k`` integer with ``|k_i| <= grid_n/2``.
* Scale ``j = 0`` is the low-frequency ball, scales ``1..j_max`` are wedge
  coronae, and the pseudo-scale ``j_max + 1`` denotes the closure band.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrameParams",
    "ScaleAngleIndex",
    "BoundingRect",
    "WedgeSpec",
    "WindowProfile",
    "TilingLayout",
    "smooth_step",
    "wedge_geometry",
    "build_layout",
    "wedge_value",
    "verify_partition",
    "layout_to_json",
]


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
    windows must vanish exactly outside their supports.
    """
    t = np.asarray(t, dtype=float)
    return np.where(t >= 1.0, 0.0, np.cos(0.5 * np.pi * _poly_ramp(t)))


@dataclass(frozen=True)
class FrameParams:
    """Configuration of one frame instance.

    Parameters
    ----------
    s : float
        Scale step exponent; corona radii grow like ``2**(j*s)``.
    alpha : float
        Anisotropy in ``(-inf, 1]``: 0 gives purely directional tiles,
        1/2 parabolic scaling, 1 isotropic tiles.
    grid_n : int
        Samples per axis on ``[-1, 1]^2``; must be even and >= 16.
    corona_constant : float, optional
        Radius unit ``C`` of the coronae.  Default ``2**(-s) / (3*pi)``,
        the largest value for which every wedge pair fits inside its
        anisotropic bounding rectangle.
    tau1, tau2 : float, optional
        Radial transition knots, ``1 < tau1 < tau2 < 2**s``.  Defaults are
        evenly log-spaced: ``2**(s/3)`` and ``2**(2*s/3)``.
    j_max : int, optional
        Finest corona scale.  Defaults to the largest ``j`` with
        ``C * 2**(s*(j+1)) * tau2 <= grid_n / 4`` so the top corona stays
        below the grid Nyquist frequency with margin.
    """

    s: float
    alpha: float
    grid_n: int
    corona_constant: float | None = None
    tau1: float | None = None
    tau2: float | None = None
    j_max: int | None = None

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
        if self.grid_n < 16 or self.grid_n % 2 != 0:
            raise ValueError(f"grid_n must be even and >= 16, got {self.grid_n}")
        if self.corona_constant is None:
            object.__setattr__(self, "corona_constant", 2.0 ** (-self.s) / (3.0 * math.pi))
        if self.corona_constant <= 0:
            raise ValueError("corona_constant must be positive")
        if self.tau1 is None:
            object.__setattr__(self, "tau1", 2.0 ** (self.s / 3.0))
        if self.tau2 is None:
            object.__setattr__(self, "tau2", 2.0 ** (2.0 * self.s / 3.0))
        if not (1.0 < self.tau1 < self.tau2 < 2.0 ** self.s):
            raise ValueError(
                f"radial knots must satisfy 1 < tau1 < tau2 < 2**s, "
                f"got tau1={self.tau1}, tau2={self.tau2}, 2**s={2.0 ** self.s}"
            )
        if self.j_max is None:
            object.__setattr__(self, "j_max", self.nyquist_j_max())
        elif self.j_max < 0 or (
            self.corona_constant * 2.0 ** (self.s * self.j_max) * self.tau2
            > self.grid_n / 4.0 * (1.0 + 1e-12)
        ):
            raise ValueError(
                f"j_max={self.j_max} exceeds the Nyquist bound: the top corona "
                f"support must stay within grid_n/4 = {self.grid_n / 4}"
            )

    def nyquist_j_max(self) -> int:
        """Largest scale whose corona fits below Nyquist with margin."""
        j = 0
        while (
            self.corona_constant * 2.0 ** (self.s * (j + 2)) * self.tau2
            <= self.grid_n / 4.0
        ):
            j += 1
        if self.corona_constant * 2.0 ** (self.s * 1) * self.tau2 > self.grid_n / 4.0:
            raise ValueError(f"grid_n={self.grid_n} too small for even one corona")
        return j

    @staticmethod
    def nyquist_snapped(
        s: float, alpha: float, grid_n: int, tau2: float | None = None
    ) -> "FrameParams":
        """Parameters whose top corona support ends exactly at Nyquist.

        The corona unit is chosen so ``C * 2**(j_max*s) * tau2 == grid_n/4``
        with the base ball covering roughly one lattice ring.  This leaves
        only the corner frequencies to the closure band, which matters for
        approximation-rate experiments: with the default (much smaller)
        corona unit, whole octaves of edge energy land in the single
        isotropic closure tile and flatten every N-term error curve.
        """
        t2 = 2.0 ** (2.0 * s / 3.0) if tau2 is None else tau2
        j_max = math.floor(math.log2(grid_n / 4.0 * 2.0**s / t2) / s)
        C = grid_n / 4.0 / (2.0 ** (j_max * s) * t2)
        return FrameParams(
            s=s, alpha=alpha, grid_n=grid_n, corona_constant=C, tau2=tau2, j_max=j_max
        )

    def tile_count(self, j: int) -> int:
        """Number of wedge pairs ``L_j`` in the scale-``j`` corona."""
        if j < 0:
            raise ValueError("scale must be nonnegative")
        if j == 0:
            return 1
        L = 2 ** (math.floor(j * self.s * (1.0 - self.alpha)) + 1)
        if L < 1:
            raise ValueError(f"tile count below 1 at scale {j} (alpha={self.alpha})")
        return L

    def tile_angle(self, j: int) -> float:
        """Angular width ``phi_j`` of one wedge at scale ``j``."""
        if j == 0:
            return math.pi
        return math.pi * 2.0 ** (-math.floor(j * self.s * (1.0 - self.alpha)) - 1)

    def ell_range(self, j: int) -> range:
        """Angular indices at scale ``j``: ``-floor(L/2) .. ceil(L/2)-1``."""
        L = self.tile_count(j)
        return range(-(L // 2), L - (L // 2))

    def scale_of_closure(self) -> int:
        return self.j_max + 1

    def total_wedge_count(self, include_closure: bool = True) -> int:
        n = sum(self.tile_count(j) for j in range(self.j_max + 1))
        return n + 1 if include_closure else n


@dataclass(frozen=True)
class ScaleAngleIndex:
    """Scale-angle pair ``(j, ell)``; closure uses ``j = j_max + 1, ell = 0``."""

    j: int
    ell: int


@dataclass(frozen=True)
class BoundingRect:
    """Rotated rectangle ``[-half_length, half_length] x [-half_width, half_width]``
    in the frame rotated by ``angle``."""

    half_length: float
    half_width: float
    angle: float

    def contains(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        c, s = math.cos(self.angle), math.sin(self.angle)
        u = c * xi[..., 0] + s * xi[..., 1]
        v = -s * xi[..., 0] + c * xi[..., 1]
        return (np.abs(u) <= self.half_length) & (np.abs(v) <= self.half_width)


@dataclass(frozen=True)
class WedgeSpec:
    """Geometry of one tile: supports, core, bounding box, wrap periods."""

    index: ScaleAngleIndex
    orientation: float
    radial_support: tuple[float, float]
    radial_core: tuple[float, float]
    angular_halfwidth_outer: float
    angular_halfwidth_inner: float
    bounding_rect: BoundingRect | None
    is_closure: bool = False
    wrap_periods: tuple[int, int] | None = None
    support_cardinality: int | None = None


class WindowProfile:
    """Evaluable radial/angular window factors for one parameter set.

    Radial windows are functions of ``y = log2(r / C)``: scale ``j`` rises on
    ``[(j-1)*s + log2(tau1), (j-1)*s + log2(tau2)]`` and falls on the same
    interval shifted by ``s``.  Rising and falling edges of adjacent scales
    share bit-identical ramp arguments, and the sine/cosine pairing makes
    the squared sum exactly one.  The angular profile is evaluated in bin
    coordinates (units of the tile angle), which keeps the neighbour-pair
    identity independent of the tile count.
    """

    def __init__(self, params: FrameParams):
        self.params = params
        self._lt1 = math.log2(params.tau1)
        self._lt2 = math.log2(params.tau2)
        self._dlt = self._lt2 - self._lt1

    def _log_radius(self, r: np.ndarray) -> np.ndarray:
        y = np.full(r.shape, -np.inf)
        pos = r > 0
        y[pos] = np.log2(r[pos] / self.params.corona_constant)
        return y

    def radial(self, j: int, r) -> np.ndarray:
        """Radial factor ``U_j(r)``; ``j = j_max + 1`` selects the closure."""
        p = self.params
        r = np.atleast_1d(np.asarray(r, dtype=float))
        y = self._log_radius(r)
        if j == 0:
            return _co_step((y - self._lt1) / self._dlt)
        if j == p.j_max + 1:
            out = smooth_step((y - (p.j_max * p.s + self._lt1)) / self._dlt)
            out[~np.isfinite(y)] = 0.0
            return out
        if not 1 <= j <= p.j_max:
            raise ValueError(f"scale {j} outside [0, {p.j_max + 1}]")
        rise = smooth_step((y - ((j - 1) * p.s + self._lt1)) / self._dlt)
        fall = _co_step((y - (j * p.s + self._lt1)) / self._dlt)
        out = rise * fall
        out[~np.isfinite(y)] = 0.0
        return out

    def angular_bins(self, j: int, theta) -> np.ndarray:
        """Angle mapped to tile-index units: ``(theta mod pi) / phi_j``."""
        phi = self.params.tile_angle(j)
        return (np.asarray(theta, dtype=float) % math.pi) / phi

    def angular_from_bins(self, j: int, m, center) -> np.ndarray:
        """Angular factor of the wedge centred at integer bin ``center``.

        ``m`` is the output of :meth:`angular_bins`.  The pair of opposite
        lobes is folded together by the mod-``L`` reduction, so a single
        expression covers the symmetric wedge pair.
        """
        L = self.params.tile_count(j)
        # abs before the modulo: reducing a small negative offset mod L would
        # absorb its low bits into the large modulus
        d = np.abs(np.asarray(m, dtype=float) - np.asarray(center)) % L
        d = np.minimum(d, L - d)
        return _co_step(2.0 * d - 0.5)

    def angular(self, j: int, ell: int, theta) -> np.ndarray:
        """Angular factor ``V_{j,ell}`` on directions ``theta`` (radians)."""
        p = self.params
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if j == 0 or j == p.j_max + 1:
            return np.ones_like(theta)
        L = p.tile_count(j)
        if ell not in p.ell_range(j):
            raise ValueError(f"ell={ell} outside range for scale {j} (L={L})")
        m = self.angular_bins(j, theta)
        return self.angular_from_bins(j, m, ell % L)

    def window(self, j: int, ell: int, xi) -> np.ndarray:
        """Full window ``W_{j,ell}`` on frequency points ``xi`` (..., 2)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        r = np.hypot(xi[..., 0], xi[..., 1])
        vals = self.radial(j, r)
        p = self.params
        if j != 0 and j != p.j_max + 1:
            theta = np.arctan2(xi[..., 1], xi[..., 0])
            vals = vals * self.angular(j, ell, theta)
        return vals


def wedge_geometry(params: FrameParams, j: int, ell: int) -> WedgeSpec:
    """Grid-free geometry of tile ``(j, ell)`` (wrap data left unset)."""
    C, s, a = params.corona_constant, params.s, params.alpha
    closure = params.scale_of_closure()
    if j == closure:
        lo = C * 2.0 ** (params.j_max * s) * params.tau1
        return WedgeSpec(
            index=ScaleAngleIndex(j, 0),
            orientation=0.0,
            radial_support=(lo, math.inf),
            radial_core=(C * 2.0 ** (params.j_max * s) * params.tau2, math.inf),
            angular_halfwidth_outer=math.pi,
            angular_halfwidth_inner=math.pi,
            bounding_rect=None,
            is_closure=True,
        )
    if not 0 <= j <= params.j_max:
        raise ValueError(f"scale {j} outside [0, {params.j_max}]")
    if ell not in params.ell_range(j):
        raise ValueError(f"ell={ell} invalid at scale {j}")
    phi = params.tile_angle(j)
    if j == 0:
        return WedgeSpec(
            index=ScaleAngleIndex(0, 0),
            orientation=0.0,
            radial_support=(0.0, C * 2.0 ** s),
            radial_core=(0.0, C * params.tau1),
            angular_halfwidth_outer=math.pi,
            angular_halfwidth_inner=math.pi,
            bounding_rect=BoundingRect(0.5, 0.5, 0.0),
        )
    return WedgeSpec(
        index=ScaleAngleIndex(j, ell),
        orientation=ell * phi,
        radial_support=(C * 2.0 ** (s * (j - 1)), C * 2.0 ** (s * (j + 1))),
        radial_core=(C * 2.0 ** (s * (j - 1)) * params.tau2, C * 2.0 ** (s * j) * params.tau1),
        angular_halfwidth_outer=0.75 * phi,
        angular_halfwidth_inner=0.25 * phi,
        bounding_rect=BoundingRect(
            2.0 ** (j * s - 1.0), 2.0 ** (j * s * a - 1.0), ell * phi
        ),
    )


@dataclass
class TilingLayout:
    """All tiles of one frame: ball, wedges scale-major, closure last.

    ``supports[i]`` is the lattice support of ``wedges[i]`` (signed indices,
    flat grid index and window samples) from the layout's one scan of the
    lattice.  Frames and :func:`verify_partition` share these arrays rather
    than scanning again, so treat them as read-only.
    """

    params: FrameParams
    profile: WindowProfile
    wedges: list[WedgeSpec] = field(default_factory=list)
    supports: list[_SupportArrays] = field(default_factory=list, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.wedges)

    def wedge_at(self, j: int, ell: int) -> WedgeSpec:
        for w in self.wedges:
            if w.index.j == j and w.index.ell == ell:
                return w
        raise KeyError(f"no wedge ({j}, {ell}) in layout")

    def scales(self) -> list[int]:
        return list(range(self.params.j_max + 2))

    def to_json(self) -> str:
        return layout_to_json(self)


class _SupportArrays:
    """Per-tile lattice support: signed indices, flat grid index, samples."""

    __slots__ = ("j", "ell", "k1", "k2", "grid_flat", "window")

    def __init__(self, j, ell, k1, k2, grid_flat, window):
        self.j = j
        self.ell = ell
        self.k1 = k1
        self.k2 = k2
        self.grid_flat = grid_flat
        self.window = window


def _scan_supports(params: FrameParams, profile: WindowProfile) -> list[_SupportArrays]:
    """Evaluate every window on its lattice support.

    Points are binned per scale by radius and per wedge by angle, so each
    lattice point is touched only by the (at most four) windows that are
    nonzero there.
    """
    n = params.grid_n
    half = n // 2
    k = np.arange(-half, half, dtype=np.int64)
    K1 = np.repeat(k, n)
    K2 = np.tile(k, n)
    r = 0.5 * np.hypot(K1.astype(float), K2.astype(float))
    flatmap = (K1 % n) * n + (K2 % n)
    C, s = params.corona_constant, params.s
    out: list[_SupportArrays] = []
    for j in range(params.j_max + 2):
        if j == 0:
            sel = np.nonzero(r < C * params.tau2)[0]
        elif j == params.j_max + 1:
            sel = np.nonzero(r > C * 2.0 ** (params.j_max * s) * params.tau1)[0]
        else:
            lo = C * 2.0 ** ((j - 1) * s) * params.tau1
            hi = C * 2.0 ** (j * s) * params.tau2
            sel = np.nonzero((r > lo) & (r < hi))[0]
        U = profile.radial(j, r[sel])
        if j == 0 or j == params.j_max + 1:
            out.append(_SupportArrays(j, 0, K1[sel], K2[sel], flatmap[sel], U))
            continue
        L = params.tile_count(j)
        Lm = L // 2
        theta = np.arctan2(K2[sel].astype(float), K1[sel].astype(float))
        m = profile.angular_bins(j, theta)
        c_hi = np.floor(m + 0.75)
        c_lo = np.ceil(m - 0.75)
        second = c_hi != c_lo
        pt_idx = np.concatenate([sel, sel[second]])
        centers = np.concatenate([c_lo, c_hi[second]])
        mm = np.concatenate([m, m[second]])
        uu = np.concatenate([U, U[second]])
        V = profile.angular_from_bins(j, mm, centers)
        keep = V > 0
        pt_idx, centers, W = pt_idx[keep], centers[keep], (uu * V)[keep]
        cbin = centers.astype(np.int64) % L
        order = np.argsort(cbin, kind="stable")
        pt_idx, cbin, W = pt_idx[order], cbin[order], W[order]
        bounds = np.searchsorted(cbin, np.arange(L + 1))
        for c in range(L):
            ell = c if c < L - Lm else c - L
            sl = slice(bounds[c], bounds[c + 1])
            ii = pt_idx[sl]
            out.append(_SupportArrays(j, ell, K1[ii], K2[ii], flatmap[ii], W[sl]))
    out.sort(key=lambda w: (w.j, w.ell))
    return out


def _fold(k1: np.ndarray, k2: np.ndarray, P1: int, P2: int) -> np.ndarray:
    """Flat index of each lattice point on the ``P1 x P2`` wrap box."""
    return (k1 % P1) * P2 + (k2 % P2)


def _collision_free(keys: np.ndarray, size: int) -> bool:
    return np.bincount(keys, minlength=size).max() <= 1


def _even_up(x: float) -> int:
    v = int(math.ceil(x))
    return v if v % 2 == 0 else v + 1


def _find_wrap_periods(k1: np.ndarray, k2: np.ndarray, grid_n: int) -> tuple[int, int]:
    """Small even wrap box with pairwise-disjoint modulo translates.

    Two families are scanned: full extent along one axis with the other
    axis wrapped (and vice versa).  Within a family the wrapped period
    starts at the densest-column count and grows (+2 first, then
    geometrically) until the collision scan passes; the full bounding box
    is the guaranteed fallback.  The smaller-area passing box wins.
    """
    m = len(k1)
    if m == 0:
        return 2, 2
    best: tuple[int, int] | None = None
    for ka, kb, swap in ((k1, k2, False), (k2, k1, True)):
        span_a = int(ka.max() - ka.min()) + 1
        span_b = int(kb.max() - kb.min()) + 1
        Pa = min(_even_up(span_a), grid_n)
        Pb = max(2, _even_up(np.bincount(ka - ka.min()).max()))
        Pb = max(Pb, _even_up(m / Pa))

        def free(P: int) -> bool:
            return _collision_free(_fold(ka, kb, Pa, P), Pa * P)

        tries = 0
        ok = False
        while Pb < min(span_b, grid_n) and not (ok := free(Pb)):
            tries += 1
            Pb = Pb + 2 if tries <= 8 else _even_up(Pb * 1.25)
        if not ok:
            Pb = min(Pb, grid_n)
            ok = free(Pb)
        if not ok:
            Pb = min(_even_up(span_b), grid_n)
            ok = free(Pb)
        # in the swapped family the check above is that of cand with its axes exchanged
        cand = (Pb, Pa) if swap else (Pa, Pb)
        if ok and (best is None or cand[0] * cand[1] < best[0] * best[1]):
            best = cand
    if best is None:  # full grid always works: modulo map is then injective
        best = (grid_n, grid_n)
    return best


def build_layout(params: FrameParams) -> TilingLayout:
    """Construct the full tiling with wrap periods, support counts and supports.

    The wedge list is ordered scale-major (ball first, angular index
    ascending within each scale, closure last); this ordering is the
    stable flat order used for coefficient tie-breaking downstream.  The
    supports of the one lattice scan stay on the layout, in the same order.
    """
    profile = WindowProfile(params)
    supports = _scan_supports(params, profile)
    wedges = []
    for sup in supports:
        spec = wedge_geometry(params, sup.j, sup.ell)
        if sup.j == params.scale_of_closure():
            periods = (params.grid_n, params.grid_n)
        else:
            periods = _find_wrap_periods(sup.k1, sup.k2, params.grid_n)
        wedges.append(
            WedgeSpec(
                index=spec.index,
                orientation=spec.orientation,
                radial_support=spec.radial_support,
                radial_core=spec.radial_core,
                angular_halfwidth_outer=spec.angular_halfwidth_outer,
                angular_halfwidth_inner=spec.angular_halfwidth_inner,
                bounding_rect=spec.bounding_rect,
                is_closure=spec.is_closure,
                wrap_periods=periods,
                support_cardinality=len(sup.k1),
            )
        )
    expected = params.total_wedge_count()
    if len(wedges) != expected:
        raise RuntimeError(f"layout has {len(wedges)} tiles, expected {expected}")
    return TilingLayout(params=params, profile=profile, wedges=wedges, supports=supports)


def wedge_value(xi, spec: WedgeSpec, profile: WindowProfile) -> np.ndarray:
    """Window value ``W_J(xi)`` for arbitrary frequency points.

    Total function: zero outside the tile, symmetric under ``xi -> -xi``,
    and exactly zero at the origin for every tile except the ball.
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    vals = profile.window(spec.index.j, spec.index.ell, np.atleast_2d(xi))
    return float(vals[0]) if scalar else vals.reshape(xi.shape[:-1])


def verify_partition(layout: TilingLayout, include_closure: bool = True) -> float:
    """Max deviation of the squared-window sum from 1 over the lattice.

    Accumulates over the supports the layout already holds, so no lattice
    scan runs here.
    """
    params = layout.params
    acc = np.zeros(params.grid_n * params.grid_n)
    for sup in layout.supports:
        if not include_closure and sup.j == params.scale_of_closure():
            continue
        acc[sup.grid_flat] += sup.window**2
    return float(np.abs(acc - 1.0).max())


def layout_to_json(layout: TilingLayout) -> str:
    """Serialize per-wedge geometry for golden tests and debugging."""
    doc = {
        "params": {
            "s": layout.params.s,
            "alpha": layout.params.alpha,
            "grid_n": layout.params.grid_n,
            "corona_constant": layout.params.corona_constant,
            "tau1": layout.params.tau1,
            "tau2": layout.params.tau2,
            "j_max": layout.params.j_max,
        },
        "wedges": [
            {
                "j": w.index.j,
                "ell": w.index.ell,
                "orientation_radians": w.orientation,
                "radial_support": list(w.radial_support),
                "wrap_periods": list(w.wrap_periods) if w.wrap_periods else None,
                "support_cardinality": w.support_cardinality,
                "is_closure": w.is_closure,
            }
            for w in layout.wedges
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=True)
