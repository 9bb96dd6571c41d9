"""Digital analysis/synthesis operators for the wedge tiling.

The transform windows the image spectrum per tile, folds each windowed
tile onto a small rectangle by reducing lattice indices modulo the tile's
wrap periods (the translates are pairwise disjoint, so folding is a pure
re-indexing), and applies a unitary inverse DFT on that rectangle.  With
the squared windows summing to one, the map is a Parseval isometry in the
grid quadrature norm ``sum(f**2) * (2/grid_n)**2``, and synthesis is its
exact adjoint.

Every window is exactly symmetric under ``k -> -k``, so the folded tile
of a real image is Hermitian and its coefficients are real.  Analysis
therefore takes the real FFT of the image, fills each tile's half box
``P1 x (P2/2 + 1)`` and applies the inverse real FFT; synthesis takes the
real FFT of each block, scatters it into the half spectrum and applies one
inverse real FFT.  Each of these 2-D transforms is numpy's two 1-D passes
(``rfft`` then ``fft``; ``ifft`` then ``irfft``) written with ``out=``
into an array the call already holds: the image's half spectrum, the
tile's half box or coefficient block, the output image.  That gives the
bits of ``rfft2`` and ``irfft2`` without the full-size array they make
between the passes.  :func:`analyze_direct` sums the complex formula over
the full support, as an oracle for both.

The coefficients of one analysis are one flat real array; each tile's
block is a view of it (:class:`CoefficientSet`).

A frame keeps its scratch per calling thread, and the kernels stage in
it instead of allocating scratch on every call: the work array, which
holds the half spectrum, the calling thread's half box and windowed
support, sized for every tile, and the worker's, sized for every tile
but the last.  ``error_curve`` squares the coefficients into the work
array too, so once a curve has run the work array is coefficient-size.
At grid 512, alpha 1/2 snapped, that is an 8.1 MB work array beside
3.6 MB of boxes and supports, plus the 8.1 MB kept-set array that a
verified curve keeps.  Each array is made on first use, regrown only
when a kernel needs more, and lives as long as the frame and the thread.
So a call finds its scratch resident, where scratch allocated afresh
comes from a heap top the allocator trimmed after the last call, to be
faulted in again.  The arrays are separate, not views of one block: a
block the size of their sum (21 MB at grid 1024) is mapped afresh where
smaller arrays reuse the heap a frame build leaves free.  The worker
stages only in views of the caller's arrays.

The transform shares its units with the package's one worker thread
through :func:`alphacurvelets._worker._shared`, for every frame whatever
its size.  Each pass of the image's real FFT in analysis, and of its
inverse in synthesis and :func:`curvelet_atom`, goes in two halves of its
lines (pocketfft transforms each line on its own, so the halves give the
bits of the whole pass).  The tile FFTs of analysis and of synthesis go a
tile at a time; in synthesis the thread that takes a tile tests its block
and skips it if it is zero.  A tile's own FFTs run on the thread that
took it, as the worker never waits for itself.  The caller takes tiles
from the back of the layout, starting with the closure, the largest; the
worker takes them from the front, and never the last tile; each claims
the next as it finishes one, so the split follows how fast each thread
runs.  In synthesis the worker adds the spectra of its tiles into the
half spectrum in tile order while the caller holds those of its own, to
add them, in tile order, once the worker is done.  Every sum is thus
taken in tile order, whichever thread takes a tile, and the bits never
change.  A caller that finds the worker busy, or slow to start, takes
every unit and cancels the worker's task.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _worker
from .tiling import FrameParams, TilingLayout, build_layout, verify_partition

__all__ = [
    "DigitalCurveletFrame",
    "CoefficientSet",
    "analyze",
    "synthesize",
    "analyze_direct",
    "curvelet_atom",
]

DIRECT_GRID_LIMIT = 128
PARTITION_TOL = 1e-12


class DigitalCurveletFrame:
    """A built frame: a layout and the deviation of its partition of unity.

    Use :meth:`build` to construct; instances are immutable in practice
    and safe to share across threads: each calling thread gets arrays of
    its own from :meth:`_held`, which live as long as the frame and the
    thread.  Analysis and synthesis stage in its work array (the half
    spectrum) and its half boxes and supports, and ``error_curve``
    squares into the work array and keeps a verified kept set.  At grid
    512, alpha 1/2 snapped, the work array is 2.1 MB after an analysis and
    8.1 MB, the coefficients' size, after a curve; the boxes and supports
    take 3.6 MB and the kept set 8.1 MB.  ``_caches`` is ``layout.wedges``,
    the layout's one :class:`~alphacurvelets.tiling.TileSupport` record
    per tile, which analysis and synthesis read.
    ``partition_deviation`` is the max deviation of the squared-window sum
    from 1 over the lattice, as :func:`~alphacurvelets.tiling.verify_partition`
    gives it; :meth:`build` refuses frames where it exceeds ``PARTITION_TOL``.
    """

    def __init__(self, layout: TilingLayout, partition_deviation: float):
        self.layout = layout
        self.partition_deviation = partition_deviation
        self.params = layout.params
        self._caches = layout.wedges
        self.sigma = 2.0 / self.params.grid_n**2
        self.total_coefficients = int(sum(c.P1 * c.P2 for c in self._caches))
        self._local = threading.local()

    def _held(self, name: str, size: int, make: bool = True) -> np.ndarray | None:
        """The first ``size`` entries of the calling thread's float64 array ``name``.

        The array is made on the thread's first call and regrown only when
        a call needs more; it lives as long as the frame and the thread.
        What a call stages in it holds until the thread's next call.  With
        ``make`` false, an array shorter than ``size`` is dropped, not
        regrown, and the call returns ``None``.
        """
        held = self._local.__dict__
        if name not in held or held[name].size < size:
            held.pop(name, None)  # the smaller one goes before the larger is made
            if not make:
                return None
            held[name] = np.empty(size)
        return held[name][:size]

    def _work(self, **sizes: int) -> list[np.ndarray]:
        """Complex views of the calling thread's arrays: ``sizes[name]`` entries of each ``name``, in order."""
        return [self._held(name, 2 * size).view(complex) for name, size in sizes.items()]

    @classmethod
    def build(cls, params: FrameParams) -> "DigitalCurveletFrame":
        layout = build_layout(params)
        dev = verify_partition(layout)
        if dev > PARTITION_TOL:
            raise RuntimeError(f"window partition deviates by {dev:.3e}")
        return cls(layout, dev)

    def wedge_index(self, j: int, ell: int) -> int:
        for i, c in enumerate(self._caches):
            if (c.j, c.ell) == (j, ell):
                return i
        raise KeyError(f"no tile ({j}, {ell})")

    def wedge_table(self) -> list[tuple[int, int, int, int]]:
        return [(c.j, c.ell, c.P1, c.P2) for c in self._caches]


@dataclass
class CoefficientSet:
    """Coefficients of one analysis as one flat real array.

    ``values`` is in the stable scale-major order that thresholding breaks
    ties by: tile after tile in layout order, each ``P1 x P2`` box in C
    order.  Tile ``i`` is ``values[offsets[i]:offsets[i + 1]]``, and
    ``blocks[i]`` is a ``P1 x P2`` view of it.  A nonzero imaginary part is
    refused, naming its tile.  The set holds no frame parameters: a
    consumer that needs them, such as
    :func:`~alphacurvelets.approximation.apriori_decay_check`, takes the
    frame's :class:`~alphacurvelets.tiling.FrameParams` as an argument.
    """

    wedge_table: list[tuple[int, int, int, int]]
    values: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)
    blocks: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = [P1 * P2 for (_j, _ell, P1, P2) in self.wedge_table]
        self.offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        shape = np.shape(self.values)
        if shape != (self.offsets[-1],):
            raise ValueError(f"{shape} values do not match {self.offsets[-1]} coefficients")
        if np.iscomplexobj(self.values) and np.any(np.imag(self.values)):
            i = self._tile_of(np.flatnonzero(np.imag(self.values))[0])
            j, ell, _P1, _P2 = self.wedge_table[i]
            raise ValueError(f"block of tile ({j}, {ell}) is complex; coefficients are real")
        self.values = np.ascontiguousarray(np.real(self.values), dtype=np.float64)
        bounds = zip(self.offsets[:-1], self.offsets[1:], self.wedge_table)
        self.blocks = [self.values[lo:hi].reshape(P1, P2) for lo, hi, (_j, _ell, P1, P2) in bounds]

    def _tile_of(self, flat: np.ndarray) -> np.ndarray:
        """Tile of each flat position."""
        return np.searchsorted(self.offsets, flat, side="right") - 1

    @property
    def total_count(self) -> int:
        return int(self.values.size)

    @property
    def total_energy(self) -> float:
        return float(np.einsum("i,i->", self.values, self.values))

    def flat_magnitudes(self) -> np.ndarray:
        """``|c|`` of every coefficient in flat order."""
        return np.abs(self.values)


def _check_image(image: np.ndarray, frame: DigitalCurveletFrame) -> np.ndarray:
    image = np.asarray(image)
    if np.iscomplexobj(image):
        raise ValueError("image is complex; the transform takes real images")
    image = np.asarray(image, dtype=float)
    n = frame.params.grid_n
    if image.shape != (n, n):
        raise ValueError(f"image shape {image.shape} does not match grid {(n, n)}")
    if not np.all(np.isfinite(image)):
        raise ValueError("image contains non-finite samples")
    return image


def analyze(image: np.ndarray, frame: DigitalCurveletFrame) -> CoefficientSet:
    """Forward transform; Parseval in the grid quadrature norm.

    The coefficients are written tile by tile into the views of one flat
    array, by this thread and the worker.  The half spectrum and both
    threads' staging are the frame's arrays for this thread.
    """
    image = _check_image(image, frame)
    n = frame.params.grid_n
    caches = frame._caches
    # the worker never takes the last tile, so its staging need not fit it
    F, box, vals, their_box, their_vals = frame._work(
        work=n * (n // 2 + 1),
        box=_half_box(caches),
        support=_support(caches),
        their_box=_half_box(caches[:-1]),
        their_support=_support(caches[:-1]),
    )
    _shared_rfft2(image, F.reshape(n, n // 2 + 1))
    coeffs = CoefficientSet(frame.wedge_table(), np.empty(frame.total_coefficients))
    tiles, args = range(len(caches)), (F, frame, coeffs.blocks)
    with _worker._shared(tiles, _analyze_tiles, *args, their_box, their_vals) as mine:
        _analyze_tiles(*args, box, vals, mine)
    return coeffs


def _rfft2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.rfft2(x)``, bit for bit, written into ``out``: the 2-D
    wrapper's two 1-D passes, without the full-size array it makes between them."""
    np.fft.rfft(x, axis=1, out=out)
    return np.fft.fft(out, axis=0, out=out)


def _irfft2(H: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.irfft2(H, s=out.shape)``, bit for bit, written into ``out``;
    ``H`` is overwritten.  ``irfft2`` itself ignores an ``out`` argument."""
    np.fft.ifft(H, axis=0, out=H)
    return np.fft.irfft(H, n=out.shape[1], axis=1, out=out)


def _shared_rfft2(x: np.ndarray, out: np.ndarray) -> None:
    """:func:`_rfft2`, each pass split into two halves of its lines that
    the worker shares.  pocketfft transforms each line on its own, so
    the halves give the bits of the whole pass.  A tile's FFTs call
    :func:`_rfft2` itself, on the thread that took the tile."""
    _worker._in_halves(len(x), _rfft_rows, x, out)
    _worker._in_halves(out.shape[1], _fft_columns, out)


def _shared_irfft2(H: np.ndarray, out: np.ndarray) -> None:
    """:func:`_irfft2`, each pass split as in :func:`_shared_rfft2`."""
    _worker._in_halves(H.shape[1], _ifft_columns, H)
    _worker._in_halves(len(out), _irfft_rows, H, out)


def _rfft_rows(x, out, rows: slice) -> None:
    np.fft.rfft(x[rows], axis=1, out=out[rows])


def _fft_columns(out, columns: slice) -> None:
    np.fft.fft(out[:, columns], axis=0, out=out[:, columns])


def _ifft_columns(H, columns: slice) -> None:
    np.fft.ifft(H[:, columns], axis=0, out=H[:, columns])


def _irfft_rows(H, out, rows: slice) -> None:
    np.fft.irfft(H[rows], n=out.shape[1], axis=1, out=out[rows])


def _half_box(caches) -> int:
    """Entries of a half box ``P1 x (P2/2 + 1)`` that fits each of the tiles ``caches``."""
    return max((c.P1 * (c.P2 // 2 + 1) for c in caches), default=0)


def _support(caches) -> int:
    """Entries of a windowed support that fits each of the tiles ``caches``."""
    return max((c.grid_flat.size for c in caches), default=0)


def _analyze_tiles(F, frame, blocks, box, vals, tiles) -> None:
    """Write the blocks of ``tiles`` from the half spectrum ``F``, staging in ``box`` and ``vals``."""
    for i in tiles:
        c = frame._caches[i]
        H = box[: c.P1 * (c.P2 // 2 + 1)]
        H.fill(0)
        v = vals[: c.grid_flat.size]
        np.take(F, c.grid_flat, out=v)
        v *= c.window
        np.conjugate(v[c.n_direct :], out=v[c.n_direct :])
        H[c.box_flat] = v
        _irfft2(H.reshape(c.P1, c.P2 // 2 + 1), blocks[i])
        blocks[i] *= frame.sigma * math.sqrt(c.P1 * c.P2)


def synthesize(coeffs: CoefficientSet, frame: DigitalCurveletFrame) -> np.ndarray:
    """Adjoint of :func:`analyze`; inverts it exactly on its range.

    The half spectrum and both threads' half boxes are the frame's
    arrays for this thread.
    """
    if coeffs.wedge_table != frame.wedge_table():
        raise ValueError("coefficient blocks do not match the frame's tile boxes")
    n = frame.params.grid_n
    caches, blocks = frame._caches, coeffs.blocks
    # the worker never takes the last tile, so its box need not fit it
    Facc, box, their_box = frame._work(
        work=n * (n // 2 + 1), box=_half_box(caches), their_box=_half_box(caches[:-1])
    )
    Facc.fill(0)
    tiles = range(len(caches))
    with _worker._shared(tiles, _add_spectra, Facc, frame, blocks, their_box) as mine:
        held = [(i, _spectrum(caches[i], blocks[i], box)) for i in mine if np.any(blocks[i])]
    # the worker has added every tile before these: each sum rounds as in tile order
    for i, v in reversed(held):
        Facc[frame._caches[i].grid_flat[: v.size]] += v
    return _image(Facc, n)


def _image(Facc: np.ndarray, n: int) -> np.ndarray:
    """The ``n x n`` image of the half spectrum ``Facc``, which is overwritten."""
    out = np.empty((n, n))
    _shared_irfft2(Facc.reshape(n, n // 2 + 1), out)
    out *= n * n / 2.0
    return out


def _spectrum(c, block: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Windowed half-spectrum values of one tile's block, at ``c.grid_flat[:c.n_spectrum]``;
    the block's transform is staged in ``box``."""
    ns = c.n_spectrum
    H = box[: c.P1 * (c.P2 // 2 + 1)].reshape(c.P1, c.P2 // 2 + 1)
    v = _rfft2(block, H).ravel()[c.box_flat[:ns]]
    v /= math.sqrt(c.P1 * c.P2)
    np.conjugate(v[c.n_direct :], out=v[c.n_direct :])
    v *= c.window[:ns]
    return v


def _add_spectra(Facc, frame, blocks, box, tiles) -> None:
    """Add the spectra of the live blocks of ``tiles`` into ``Facc``, in the order given, staging in ``box``."""
    for i in tiles:
        if not np.any(blocks[i]):
            continue
        c = frame._caches[i]
        # the half-spectrum indices of one tile are unique, so += is collision-free
        Facc[c.grid_flat[: c.n_spectrum]] += _spectrum(c, blocks[i], box)


def analyze_direct(image: np.ndarray, frame: DigitalCurveletFrame, tile: int) -> np.ndarray:
    """Slow oracle for the tile at layout index ``tile``: direct summation,
    no folding fast path.  :meth:`DigitalCurveletFrame.wedge_index` gives
    the index of tile ``(j, ell)``.

    Computes ``sigma/sqrt(P1*P2) * sum_k F[k] W[k] exp(2i*pi*(m1*k1/P1 +
    m2*k2/P2))`` over the full tile support with unreduced signed indices
    and the complex ``fft2`` spectrum.  The result is complex; for a real
    image its imaginary part is rounding and its real part is the block
    :func:`analyze` returns.  Refuses grids above ``DIRECT_GRID_LIMIT`` to
    guard against accidental quartic-cost runs.
    """
    n = frame.params.grid_n
    if n > DIRECT_GRID_LIMIT:
        raise ValueError(
            f"direct summation restricted to grids <= {DIRECT_GRID_LIMIT}, got {n}"
        )
    image = _check_image(image, frame)
    c = frame._caches[operator.index(tile)]
    k1, k2, window = c.support()
    F = np.fft.fft2(image).ravel()
    vals = F[(k1 % n) * n + (k2 % n)] * window
    m1 = np.arange(c.P1)
    m2 = np.arange(c.P2)
    e1 = np.exp(2j * np.pi * np.outer(m1, k1) / c.P1)
    e2 = np.exp(2j * np.pi * np.outer(m2, k2) / c.P2)
    out = (e1 * vals) @ e2.T
    return frame.sigma / math.sqrt(c.P1 * c.P2) * out


def curvelet_atom(
    frame: DigitalCurveletFrame, mu: tuple[int, int, tuple[int, int]]
) -> np.ndarray:
    """Spatial atom of one coefficient: synthesis of a unit impulse.

    ``mu = (j, ell, (m1, m2))`` with ``(m1, m2)`` a position on the tile's
    wrap box.  The atom is real and its spectrum is supported exactly on
    the tile's lattice support.  Only the tile's own block is staged, and
    its spectrum is added into a zero half spectrum as :func:`synthesize`
    adds it, so the atom is that of the impulse set bit for bit.
    """
    j, ell, m = mu
    c = frame._caches[frame.wedge_index(j, ell)]
    block = np.zeros((c.P1, c.P2))
    block[int(m[0]) % c.P1, int(m[1]) % c.P2] = 1.0
    n = frame.params.grid_n
    Facc, box = frame._work(work=n * (n // 2 + 1), box=_half_box([c]))
    Facc.fill(0)
    Facc[c.grid_flat[: c.n_spectrum]] += _spectrum(c, block, box)
    return _image(Facc, n)


def grid_norms(image: np.ndarray, grid_n: int) -> tuple[float, float]:
    """Quadrature (L1, L2-squared) norms with cell area ``(2/grid_n)**2``.

    One image-size temporary: ``|f|`` is summed, then squared in place and
    summed again.
    """
    cell = (2.0 / grid_n) ** 2
    a = np.abs(image)
    l1 = float(a.sum() * cell)
    return l1, float(np.square(a, out=a).sum() * cell)

