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

The tile FFTs run on the calling thread and the package's one worker
thread (:mod:`alphacurvelets._worker`), both fed by one routine,
``_shared``.  The caller takes tiles from the back of the layout,
starting with the closure, the largest; the worker takes them from the
front; each claims the next as it finishes one, so the split follows how
fast each thread runs.  A frame with fewer than
``THREAD_MIN_COEFFICIENTS`` coefficients, or fewer than
``THREAD_MIN_MEAN_BOX`` per tile, leaves all its tiles to the caller.
In synthesis the worker adds the spectra of its tiles into the half
spectrum in tile order while the caller holds those of its own, to add
them, in tile order, once the worker is done.  Every sum is thus taken
in tile order, whichever thread takes a tile, and the bits never change.
"""

from __future__ import annotations

import collections
import contextlib
import math
import operator
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


# a frame runs on the calling thread alone below either size: there the
# per-tile Python work, which holds the interpreter lock, outweighs the
# FFTs, and a second thread adds hand-offs but no speed
THREAD_MIN_COEFFICIENTS = 2**17
THREAD_MIN_MEAN_BOX = 2**11


def _worth_two_threads(caches) -> bool:
    """Whether tiles with these boxes are worth sharing with the worker thread."""
    cost = sum(c.P1 * c.P2 for c in caches)
    return cost >= max(THREAD_MIN_COEFFICIENTS, THREAD_MIN_MEAN_BOX * len(caches))


@contextlib.contextmanager
def _shared(frame, tiles, fn, *args):
    """Yield the frame's ``tiles`` the calling thread takes, last first.

    If the tiles are worth two threads, ``fn(*args, theirs)`` runs on the
    worker meanwhile, and leaving the body waits for it.  ``theirs`` takes
    tiles from the front but never the last: zip asks ``range`` first, so
    the worker pops all tiles but one at most.
    """
    shared = collections.deque(tiles)
    two = _worth_two_threads([frame._caches[i] for i in tiles])
    theirs = (i for _, i in zip(range(len(shared) - 1), _worker._taking(shared.popleft)))
    with _worker._beside(fn, *args, theirs) if two else contextlib.nullcontext():
        yield _worker._taking(shared.pop)


class DigitalCurveletFrame:
    """A built frame: a layout and the deviation of its partition of unity.

    Use :meth:`build` to construct; instances are immutable in practice
    and safe to share across threads.  ``_caches`` is ``layout.wedges``,
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
    array, by this thread and the worker.
    """
    image = _check_image(image, frame)
    n = frame.params.grid_n
    F = _rfft2(image, np.empty((n, n // 2 + 1), dtype=complex)).ravel()
    coeffs = CoefficientSet(frame.wedge_table(), np.empty(frame.total_coefficients))
    tiles, args = range(len(frame._caches)), (F, frame, coeffs.blocks)
    # made here, so the worker's heap keeps neither pair; the worker never takes the last tile
    with _shared(frame, tiles, _analyze_tiles, *args, *_scratch(frame._caches[:-1])) as mine:
        _analyze_tiles(*args, *_scratch(frame._caches), mine)
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


def _box(caches) -> np.ndarray:
    """A half box ``P1 x (P2/2 + 1)`` sized for the largest of the tiles ``caches``."""
    return np.empty(max((c.P1 * (c.P2 // 2 + 1) for c in caches), default=0), dtype=complex)


def _scratch(caches) -> tuple[np.ndarray, np.ndarray]:
    """Half box and windowed-support arrays sized for the largest of the tiles ``caches``."""
    return _box(caches), np.empty(max(c.grid_flat.size for c in caches), dtype=complex)


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
    """Adjoint of :func:`analyze`; inverts it exactly on its range."""
    if coeffs.wedge_table != frame.wedge_table():
        raise ValueError("coefficient blocks do not match the frame's tile boxes")
    n = frame.params.grid_n
    Facc = np.zeros(n * (n // 2 + 1), dtype=complex)
    live = [i for i, block in enumerate(coeffs.blocks) if np.any(block)]
    caches = [frame._caches[i] for i in live]
    # made here, so the worker's heap keeps no box; the worker never takes the last tile
    with _shared(frame, live, _add_spectra, Facc, frame, coeffs.blocks, _box(caches[:-1])) as mine:
        box = _box(caches)
        held = [(i, _spectrum(frame._caches[i], coeffs.blocks[i], box)) for i in mine]
    # the worker has added every tile before these: each sum rounds as in tile order
    for i, v in reversed(held):
        Facc[frame._caches[i].grid_flat[: v.size]] += v
    out = _irfft2(Facc.reshape(n, n // 2 + 1), np.empty((n, n)))
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
    """Add the spectra of the blocks of ``tiles`` into ``Facc``, in the order given, staging in ``box``."""
    for i in tiles:
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
    the tile's lattice support.
    """
    j, ell, m = mu
    i = frame.wedge_index(j, ell)
    c = frame._caches[i]
    m1, m2 = int(m[0]) % c.P1, int(m[1]) % c.P2
    coeffs = CoefficientSet(frame.wedge_table(), np.zeros(frame.total_coefficients))
    coeffs.blocks[i][m1, m2] = 1.0
    return synthesize(coeffs, frame)


def grid_norms(image: np.ndarray, grid_n: int) -> tuple[float, float]:
    """Quadrature (L1, L2-squared) norms with cell area ``(2/grid_n)**2``."""
    cell = (2.0 / grid_n) ** 2
    a = np.abs(image)
    return float(a.sum() * cell), float((a**2).sum() * cell)

