"""N-term thresholding, error curves, rate fits, and decay diagnostics.

The thresholding error is accounted on the coefficient side: for a
Parseval frame the energy of the dropped coefficients upper-bounds the
reconstruction error and decays at the same rate.  ``error_curve``
therefore reports dropped-tail sums by default and can verify selected
points against full synthesis.

Selecting N terms takes one partial selection (``np.partition``) for the
boundary magnitude, not a full sort; ties at the boundary go to the
lowest flat indices, which is exactly the set a stable descending sort
keeps.  Dropped tails are accumulated from the small end: the squared
magnitudes below the largest requested N are summed once, and only the
N largest are sorted and added smallest first, so a tail far below the
signal energy is summed exactly instead of cancelling in
``energy - cumsum``.

``error_curve`` hands the package's worker thread a coefficient-size
array, in which the worker squares the coefficients and then sums their
tails; meanwhile the calling thread makes the first verified selection,
whose one coefficient-size array holds the magnitudes and then becomes
the kept set.  So beside the coefficients a verified point holds at most
the squares and that kept set.  Once the tails are read into floats the
squares are done with, and each verified N is synthesized from its kept
set alone: the next selection overwrites the previous kept set, and the
synthesis error is taken in the synthesized image's own array.

Both arrays are the frame's, one of each per calling thread, and live as
long as the frame and the thread.  The squares go into the frame's work
array, which holds the half spectrum of analysis and synthesis
(:mod:`alphacurvelets.transform`), and each kept set into a kept-set array
that only a verified curve makes.  Each is coefficient-size, 8.1 MB at
grid 512, alpha 1/2 snapped, so a request finds them resident instead of
faulting fresh pages in.  A curve that finds the work array smaller than
the coefficients, as the first curve on a frame and thread does, squares
into an array of its own, frees it before the synthesis and grows the
work array after it; so even that curve holds no more than two
coefficient-size arrays at once.

A caller's coefficients are never written.  When ``error_curve`` makes
the coefficients itself and verifies no point, nothing reads them after
the tails, so it squares them in place: the curve holds one coefficient
array, not the coefficients and a copy of their squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _worker, bessel
from .tiling import FrameParams, as_index
from .transform import (
    CoefficientSet,
    DigitalCurveletFrame,
    _check_image,
    analyze,
    curvelet_atom,
    grid_norms,
    synthesize,
)

__all__ = [
    "ErrorCurve",
    "RateReport",
    "FitWindowError",
    "threshold",
    "error_curve",
    "fit_rate",
    "apriori_decay_check",
    "bound1_tail_estimator",
    "generator_decay_check",
    "geometric_schedule",
    "level_window",
    "atom_l1_decay",
    "fit_scale_slope",
]

PROBE_EXTENT = 0.6  # half-width of the generator probe grid; the support is [-1/2, 1/2]^2
# most points of the probe grid; the packaged step 0.001 gives 1201^2 = 1,442,401 and peaks at 231 MB
PROBE_POINT_LIMIT = 2_000_000
ONSET_RESID_TOL = 0.45  # log2 units: wider than the tile-count stairs, narrower than the head
ONSET_MIN_POINTS = 4
FIT_MIN_POINTS = 5  # fewest curve points fit_rate fits a line through
SCHEDULE_RATIO = math.sqrt(2.0)  # N-term schedules step by half an octave


class FitWindowError(ValueError):
    """A fit window the error curve cannot fill: it holds fewer of the
    curve's points than a fit needs, its ends meet, or the image has no
    energy."""


@dataclass
class ErrorCurve:
    """Squared-error-vs-N curve with run metadata.

    ``err2[i]`` is the squared quadrature-norm error at ``n_terms[i]``;
    strictly increasing ``n_terms``, nonincreasing ``err2``.
    """

    n_terms: list[int]
    err2: list[float]
    metadata: dict = field(default_factory=dict)
    err2_synthesis: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = np.asarray(self.n_terms)
        if len(n) and np.any(np.diff(n) <= 0):
            raise ValueError("n_terms must be strictly increasing")
        e = np.asarray(self.err2)
        if len(e) and np.any(np.diff(e) > 1e-12 * max(e.max(), 1.0)):
            raise ValueError("err2 must be nonincreasing in N")


@dataclass
class RateReport:
    """Fitted log-log slope of an error curve over a window."""

    slope: float
    intercept: float
    window: tuple[int, int]
    residual: float
    n_points: int


def threshold(coeffs: CoefficientSet, n_keep: int, out: np.ndarray | None = None) -> CoefficientSet:
    """Keep exactly the ``n_keep`` largest-magnitude coefficients.

    Ties are broken by the stable flat order (scale-major, then angle,
    then lattice position), so runs are bit-for-bit reproducible.  One
    coefficient-size array holds the magnitudes the selection reads, which
    then become the kept set, zero but where the mask keeps a coefficient
    (a kept ``-0.0`` included).  The call makes that array, or uses
    ``out``: a C-contiguous float64 array of ``coeffs.total_count``
    entries that shares no memory with ``coeffs.values``, which the
    returned set's values then are.  A verified ``error_curve`` passes the
    kept-set array its frame keeps for the calling thread.
    """
    total = coeffs.total_count
    if not 1 <= as_index(n_keep, "n_keep") <= total:
        raise ValueError(f"n_keep must be in [1, {total}], got {n_keep}")
    buf = np.empty_like(coeffs.values) if out is None else _check_out(out, coeffs)
    keep = _largest_mask(coeffs.values, n_keep, buf)
    buf.fill(0.0)
    np.copyto(buf, coeffs.values, where=keep)
    return replace(coeffs, values=buf)


def _check_out(out, coeffs: CoefficientSet) -> np.ndarray:
    """``out``, if the kept set of ``coeffs`` can be made in it; ``ValueError`` naming the fault if not."""
    if not isinstance(out, np.ndarray) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array, got {getattr(out, 'dtype', type(out).__name__)}")
    if out.shape != (coeffs.total_count,):
        raise ValueError(f"out has shape {out.shape}; the kept set needs ({coeffs.total_count},)")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if np.shares_memory(out, coeffs.values):
        # the magnitudes would overwrite the values the selection reads again
        raise ValueError("out shares memory with the coefficients")
    return out


def _largest_mask(values: np.ndarray, n: int, mags: np.ndarray | None = None) -> np.ndarray:
    """Mask of the ``n`` largest magnitudes of ``values`` (``1 <= n <= values.size``).

    The same set as ``np.argsort(-abs(values), kind="stable")[:n]``:
    everything above the boundary magnitude, then the lowest flat indices
    equal to it.  ``mags``, if given, is a scratch array of the size of
    ``values``; it ends holding ``abs(values)``.
    """
    mags = np.abs(values, out=mags)
    mags.partition(mags.size - n)
    v = mags[mags.size - n]
    # a NaN sorts last, so if there is one it is among the n largest, and
    # their min, v without one, is NaN
    if not mags[mags.size - n :].min() >= v:
        raise ValueError("magnitudes must not be NaN")
    np.abs(values, out=mags)  # back in flat order: one array serves both steps
    keep = mags >= v
    if np.count_nonzero(keep) > n:  # a tie at the boundary: its lowest indices go first
        np.greater(mags, v, out=keep)
        keep[np.flatnonzero(mags == v)[: n - np.count_nonzero(keep)]] = True
    return keep


def _smallest_first_tails(values: np.ndarray, n_max: int) -> np.ndarray:
    """``out[N]`` is the sum of all but the ``N`` largest ``values``, ``0 <= N <= n_max``.

    One partial selection splits off the ``n_max`` largest values; the rest
    is summed pairwise and the split-off values are added to it smallest
    first, so no tail is a difference of large sums.  ``out[0]`` is the total.
    The selection, the sort and the sums overwrite ``values``: pass a
    scratch array.  ``out`` is a view of it, but for ``n_max`` equal to
    its size, where no value is left over to hold the total.
    """
    k = values.size - n_max
    if k == 0:
        values, k = np.concatenate(([0.0], values)), 1  # the sum of no values
    elif k < values.size:
        values.partition(k)
    values[k:].sort()
    values[k - 1] = values[:k].sum()
    return np.cumsum(values[k - 1 :], out=values[k - 1 :])[::-1]


def _tails(values: np.ndarray, squares: np.ndarray, n_max: int) -> np.ndarray:
    """:func:`_smallest_first_tails` of the squares of ``values``, squared into ``squares``."""
    return _smallest_first_tails(np.square(values, out=squares), n_max)


def geometric_schedule(start: int, stop: int) -> list[int]:
    """Strictly increasing integer schedule, geometric with ratio ``SCHEDULE_RATIO``."""
    start, stop = as_index(start, "start"), as_index(stop, "stop")
    if start < 1 or stop < start:
        raise ValueError("need 1 <= start <= stop")
    out = []
    x = float(start)
    while x <= stop:
        v = int(round(x))
        if not out or v > out[-1]:
            out.append(v)
        x *= SCHEDULE_RATIO
    if out[-1] != stop:
        out.append(stop)
    return out


def error_curve(
    image: np.ndarray,
    frame: DigitalCurveletFrame,
    n_list: list[int],
    coeffs: CoefficientSet | None = None,
    verify_at: tuple[int, ...] = (),
) -> ErrorCurve:
    """Thresholding error curve from dropped-coefficient tail sums.

    ``verify_at`` lists N values, in ``n_list`` or not, at which the true
    synthesis error ``||f - synth(threshold(analyze(f), N))||^2`` is also
    computed, checked against the dropped tail at that N (it never exceeds
    it) and stored in ``err2_synthesis``.  Every N must be at least 1.

    ``coeffs``, if given, is ``analyze(image, frame)``; it is the caller's
    and is only read.  Without ``coeffs`` the curve analyses ``image``
    itself, and without ``verify_at`` as well it squares that analysis in
    place for the tails.

    Beside the coefficients, the squares of the tails and the first kept
    set are the only coefficient-size arrays alive at once.  Both are the
    frame's for the calling thread and live as long as the frame and the
    thread: the squares are taken, and the tails summed, in its work
    array, where synthesis takes its half spectrum once the tails are read
    into floats, and each kept set overwrites the last in its
    kept-set array.  At grid 512, alpha 1/2 snapped, each is 8.1 MB.  A
    curve that verifies no point makes no kept set, and one that squares
    its own analysis in place leaves the work array as analysis sized it.
    A curve that finds the work array too small squares into a fresh
    array and grows the work array after synthesizing, for the next curve.
    """
    n_list = sorted(set(as_index(n, "n_list entry") for n in n_list))
    verify_at = list(dict.fromkeys(as_index(n, "verify_at entry") for n in verify_at))  # each N once
    checked = sorted(set(n_list) | set(verify_at))
    if checked and checked[0] < 1:
        raise ValueError(f"N must be at least 1, got N={checked[0]}")
    if verify_at:
        image = _check_image(image, frame)
    owned = coeffs is None and not verify_at  # made here and read by nothing after the tails
    if coeffs is None:
        coeffs = analyze(image, frame)
    total = coeffs.total_count
    if checked and checked[-1] > total:
        raise ValueError(f"N={checked[-1]} exceeds coefficient count {total}")
    # the worker squares and sums the tails while this thread makes the first
    # selection; the tails overwrite their squares, and the selections use the
    # magnitudes, because squaring can merge distinct magnitudes into ties
    n_max = checked[-1] if checked else 0
    values = coeffs.values
    if owned:
        squares = values
        del coeffs  # its values become squares
    else:
        # the work array takes the squares once a curve has grown it to fit
        # them (below); one too small for them is dropped, not held beside them
        squares = frame._held("work", total, make=False)
        if squares is None:
            squares = np.empty(total)
    out = frame._held("kept", total) if verify_at else None
    with _worker._beside(_tails, values, squares, n_max) as pending:
        kept = threshold(coeffs, verify_at[0], out=out) if verify_at else None
    tails = pending.result()
    energy, err2 = float(tails[0]), {n: float(tails[n]) for n in checked}
    # the tails are read: synthesis takes the work array they were summed in
    del values, squares, tails, pending
    synthesis = {}
    for n in verify_at:
        # one kept set at a time: the next is selected into the array of this one
        synthesis[n] = _synthesis_error(image, threshold(coeffs, n, out=out) if kept is None else kept, frame)
        kept = None
    if not owned:
        # grown for the next curve once the synthesis is done: a curve that
        # found it too small freed its own squares before the synthesis, so
        # it never holds those squares, the kept set and the grown array at once
        frame._held("work", total)
    curve = ErrorCurve(
        n_terms=n_list,
        err2=[err2[n] for n in n_list],
        metadata={
            "grid_n": frame.params.grid_n,
            "s": frame.params.s,
            "alpha": frame.params.alpha,
            "total_coefficients": total,
            "signal_energy": energy,
        },
    )
    for n, err in synthesis.items():
        tail = err2[n]
        if err > tail * (1.0 + 1e-9) + 1e-18 * energy:
            # synthesis of masked coefficients is a contraction; exceeding
            # the dropped tail would mean the frame lost tightness
            raise AssertionError(
                f"synthesis error {err:.6e} exceeds dropped tail {tail:.6e} at N={n}"
            )
        curve.err2_synthesis[n] = err
    return curve


def _synthesis_error(image: np.ndarray, kept: CoefficientSet, frame: DigitalCurveletFrame) -> float:
    """``grid_norms(image - synthesize(kept, frame))[1]``, bit for bit, taken in
    the synthesized image's own array (``d * d`` is ``|d| * |d|``)."""
    d = synthesize(kept, frame)
    np.subtract(image, d, out=d)
    return float(np.square(d, out=d).sum() * (2.0 / frame.params.grid_n) ** 2)


def fit_rate(curve: ErrorCurve, window: tuple[int, int]) -> RateReport:
    """Least-squares line through ``(log N, log err2)`` over ``window = (lo, hi)``, inclusive.

    A window holding fewer than ``FIT_MIN_POINTS`` (five) of the curve's points raises
    :class:`FitWindowError`.
    """
    n = np.asarray(curve.n_terms, dtype=float)
    e = np.asarray(curve.err2, dtype=float)
    lo, hi = window
    sel = (n >= lo) & (n <= hi)
    if np.count_nonzero(sel) < FIT_MIN_POINTS:
        raise FitWindowError(f"fit window {window} selects fewer than {FIT_MIN_POINTS} points")
    if np.any(e[sel] <= 0):
        raise ValueError("zero squared errors inside the fit window")
    x = np.log(n[sel])
    y = np.log(e[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateReport(
        slope=float(slope),
        intercept=float(intercept),
        window=(int(lo), int(hi)),
        residual=resid,
        n_points=int(np.count_nonzero(sel)),
    )


def level_window(curve: ErrorCurve, rel_hi: float, rel_lo: float) -> tuple[int, int]:
    """Fit window anchored at relative squared-error levels.

    Returns the N range over which ``err2 / signal_energy`` descends from
    ``rel_hi`` to ``rel_lo``.  A finite frame's error curve has a shallow
    head (coarse scales plus the sampling-redundancy plateau) and an
    artificially steep saturation tail (the last coefficients are zeros);
    anchoring the window between fixed error levels selects the power-law
    regime between the two in a grid- and redundancy-independent way.
    A window whose ends meet, or a curve of an image with no energy,
    raises :class:`FitWindowError`; levels not in order, a NaN among
    them, ``ValueError``.
    """
    if not rel_lo < rel_hi:
        raise ValueError(f"need rel_lo < rel_hi, got rel_lo={rel_lo!r}, rel_hi={rel_hi!r}")
    energy = curve.metadata.get("signal_energy")
    if energy is None:
        raise ValueError("curve lacks signal_energy metadata")
    if not energy > 0:
        raise FitWindowError("the image has no energy")
    n = np.asarray(curve.n_terms)
    rel = np.asarray(curve.err2) / energy
    above = n[rel >= rel_hi]
    below = n[rel >= rel_lo]
    lo = int(above[-1]) if len(above) else int(n[0])
    hi = int(below[-1]) if len(below) else int(n[-1])
    if hi <= lo:
        raise FitWindowError(f"degenerate level window [{lo}, {hi}]")
    return lo, hi


def apriori_decay_check(
    coeffs: CoefficientSet,
    params: FrameParams,
    fit_scales: tuple[int, int],
) -> dict:
    """Per-scale max-coefficient table and its log2 regression slope.

    ``coeffs`` is an analysis by the frame of ``params``, whose ``s`` and
    ``alpha`` set the decay.  Reports, per corona scale, the largest
    coefficient magnitude and the implied constant
    ``max / 2**(-j*s*(1+alpha)/2)``; the slope of ``log2 max``
    against ``j`` over the scales ``fit_scales`` (inclusive) is reported
    with its target ``-s*(1+alpha)/2``.
    """
    scales = sorted({j for (j, _, _, _) in coeffs.wedge_table})
    maxima = {j: 0.0 for j in scales}
    for (j, _ell, _p1, _p2), block in zip(coeffs.wedge_table, coeffs.blocks):
        if block.size:
            maxima[j] = max(maxima[j], float(np.abs(block).max()))
    closure_scale = max(scales)
    rows = [(j, maxima[j]) for j in scales if j != closure_scale]
    if all(m == 0.0 for _, m in rows):
        return {"rows": rows, "slope": None, "verdict": "vacuous", "constants": []}
    decay = params.s * (1.0 + params.alpha) / 2.0
    constants = [(j, m / 2.0 ** (-j * decay)) for j, m in rows if m > 0]
    lo, hi = fit_scales
    pts = [(j, m) for j, m in rows if lo <= j <= hi and m > 0]
    if len(pts) < 3:
        raise ValueError(f"fewer than 3 usable scales in {fit_scales}")
    x = np.array([j for j, _ in pts], dtype=float)
    y = np.log2([m for _, m in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    return {
        "rows": rows,
        "slope": slope,
        "fit_scales": (lo, hi),
        "constants": constants,
        "target": -decay,
    }


def bound1_tail_estimator(params: FrameParams) -> ErrorCurve:
    """Certified lower bounds on the disc's N-term error from tile cores.

    For each N from 1 to the tile count the N tiles with the largest
    analytic core energies are granted to the approximant (most favorable
    selection); the summed core energies of every unselected tile
    lower-bound the squared error of ANY N-term approximant built from the
    frame.  Tiles beyond the layout's top scale are not counted, so at N
    equal to the tile count the bound degenerates to zero and that point
    is flagged in ``degenerate_n``.  Only the frame's parameters enter, so
    no frame is built.
    """
    energies = []
    counts = []
    for j in range(params.j_max + 1):
        energies.append(bessel.wedge_energy_quadrature(params, j))
        counts.append(params.tile_count(j))
    per_tile = np.repeat(energies, counts)
    n_tiles = per_tile.size
    tails = _smallest_first_tails(per_tile, n_tiles - 1)
    return ErrorCurve(
        n_terms=list(range(1, n_tiles + 1)),
        err2=[float(t) for t in tails[1:n_tiles]] + [0.0],
        metadata={
            "kind": "tile-core lower bound",
            "s": params.s,
            "alpha": params.alpha,
            "j_max": params.j_max,
            "tile_count": n_tiles,
            "degenerate_n": [n_tiles],
            "scale_energies": energies,
            "scale_tile_counts": counts,
        },
    )


def _check_probe_step(probe_step: float) -> None:
    if not (math.isfinite(probe_step) and probe_step > 0):
        raise ValueError(f"probe_step must be positive and finite, got {probe_step!r}")
    side = 2.0 * PROBE_EXTENT / probe_step + 1.0
    if side * side > PROBE_POINT_LIMIT:
        raise ValueError(
            f"probe_step {probe_step!r} gives a probe grid of {side * side:.3g} points,"
            f" above PROBE_POINT_LIMIT = {PROBE_POINT_LIMIT}"
        )


def generator_decay_check(params: FrameParams, probe_step: float) -> list[dict]:
    """Probe the rescaled scale generators on a dense frequency grid.

    The spectrum of the scale-``j`` generator is the horizontal window
    evaluated at anisotropically rescaled frequencies,
    ``W_{j,0}(2**(j*s) xi_1, 2**(j*s*alpha) xi_2)``.  Checks per scale:
    support inside ``[-1/2, 1/2]^2`` (exact zeros outside), sup equal to
    the window peak, and exact vanishing on the inner rectangle
    ``|xi_1| <= 2**(-2s-5)``, ``|xi_2| <= 2**(j*s*(1-alpha)) * 2**(-2s-5)``
    for ``j >= 1``.  The probe grid has spacing ``probe_step`` on
    ``[-PROBE_EXTENT, PROBE_EXTENT]^2``, a margin around the unit box; a
    ``probe_step`` that is not positive and finite, or whose grid of
    ``(2*PROBE_EXTENT/probe_step + 1)**2`` points exceeds
    ``PROBE_POINT_LIMIT``, raises ``ValueError``.
    """
    _check_probe_step(probe_step)
    ax = np.arange(-PROBE_EXTENT, PROBE_EXTENT + probe_step / 2, probe_step)
    X1, X2 = np.meshgrid(ax, ax, indexing="ij")
    outside = (np.abs(X1) > 0.5) | (np.abs(X2) > 0.5)
    out = []
    inner = 2.0 ** (-2.0 * params.s - 5.0)
    for j in range(params.j_max + 1):
        U1 = 2.0**(j * params.s) * X1
        U2 = 2.0**(j * params.s * params.alpha) * X2
        pts = np.stack([U1.ravel(), U2.ravel()], axis=-1)
        vals = params.window(j, 0, pts).reshape(X1.shape)
        support_ok = bool(np.all(vals[outside] == 0.0))
        sup = float(vals.max())
        if j >= 1:
            wide = inner * 2.0 ** (j * params.s * (1.0 - params.alpha))
            win = (np.abs(X1) <= inner) & (np.abs(X2) <= wide)
            inner_ok = bool(np.all(vals[win] == 0.0))
        else:
            inner_ok = True
        out.append(
            {"j": j, "sup": sup, "support_ok": support_ok, "inner_zero_ok": inner_ok}
        )
    return out


def fit_scale_slope(scales: list[int], values: list[float]) -> dict:
    """Fit ``log2 value`` against scale, auto-detecting the onset scale.

    The onset is the smallest scale from which the least-squares fit over
    the remaining scales, at least ``ONSET_MIN_POINTS`` of them, has max
    absolute residual below ``ONSET_RESID_TOL`` (in log2 units);
    floor-induced stair patterns in the tile counts stay within that band
    while the pre-asymptotic head does not.  When no onset qualifies, the
    fit over the last ``ONSET_MIN_POINTS`` scales is returned.  Fewer than
    ``ONSET_MIN_POINTS`` scales, or a value that is not positive, raise
    ``ValueError``.
    """
    scales = list(scales)
    if len(scales) < ONSET_MIN_POINTS:
        raise ValueError(
            f"{len(scales)} scales given; the slope fit needs at least {ONSET_MIN_POINTS}"
        )
    values = np.asarray(values, dtype=float)
    if not np.all(values > 0):
        raise ValueError(f"values must be positive for the log2 fit, got {values.tolist()}")
    y = np.log2(values)
    starts = [j for j in scales if sum(s >= j for s in scales) >= ONSET_MIN_POINTS]
    last = None
    for j0 in starts:
        sel = [i for i, j in enumerate(scales) if j >= j0]
        x = np.asarray([scales[i] for i in sel], dtype=float)
        yy = y[sel]
        slope, intercept = np.polyfit(x, yy, 1)
        resid = float(np.max(np.abs(yy - (slope * x + intercept))))
        last = {
            "onset": int(j0),
            "slope": float(slope),
            "max_residual": resid,
            "n_points": len(sel),
        }
        if resid <= ONSET_RESID_TOL:
            return last
    return last


def atom_l1_decay(frame: DigitalCurveletFrame, fit_scales: tuple[int, int]) -> dict:
    """Quadrature L1 norms of one horizontal atom per corona scale.

    Returns per-scale L1 and L2 norms of the atom at the center of the
    wrap box, plus the log2 slope of the L1 norms over the scales
    ``fit_scales`` (inclusive), ``None`` if fewer than 3 of them are kept.
    Scales whose tile support is empty on the lattice are skipped.
    """
    p = frame.params
    rows = []
    for j in range(p.j_max + 1):
        i = frame.wedge_index(j, 0)
        c = frame._caches[i]
        if c.n_spectrum == 0:
            continue
        atom = curvelet_atom(frame, (j, 0, (c.P1 // 2, c.P2 // 2)))
        l1, l2sq = grid_norms(atom, p.grid_n)
        rows.append({"j": j, "l1": l1, "l2": math.sqrt(l2sq)})
    lo, hi = fit_scales
    usable = [r for r in rows if lo <= r["j"] <= hi]
    slope = None
    if len(usable) >= 3:
        x = np.array([r["j"] for r in usable], dtype=float)
        y = np.log2([r["l1"] for r in usable])
        slope = float(np.polyfit(x, y, 1)[0])
    return {"rows": rows, "l1_slope": slope}
