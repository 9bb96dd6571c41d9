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
therefore takes one ``rfft2`` of the image, fills each tile's half box
``P1 x (P2/2 + 1)`` and applies ``irfft2``; synthesis takes the ``rfft2``
of each block, scatters it into the half spectrum and applies one
``irfft2``.  :func:`analyze_direct` sums the complex formula over the full
support, as an oracle for both.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .tiling import FrameParams, TileSupport, TilingLayout, build_layout, verify_partition

__all__ = [
    "DigitalCurveletFrame",
    "CoefficientSet",
    "analyze",
    "synthesize",
    "analyze_direct",
    "curvelet_atom",
    "dump_coefficients",
]

DIRECT_GRID_LIMIT = 128
PARTITION_TOL = 1e-12


class DigitalCurveletFrame:
    """A built frame: layout plus its folded per-tile supports.

    Use :meth:`build` to construct; instances are immutable in practice
    and safe to share across threads.  ``_caches`` is the layout's list of
    :class:`~alphacurvelets.tiling.TileSupport` records.
    ``partition_deviation`` is the max deviation of the squared-window sum
    from 1 over the lattice, as :func:`~alphacurvelets.tiling.verify_partition`
    gives it; :meth:`build` refuses frames where it exceeds ``PARTITION_TOL``.
    """

    def __init__(
        self, layout: TilingLayout, caches: list[TileSupport], partition_deviation: float
    ):
        self.layout = layout
        self.partition_deviation = partition_deviation
        self.params = layout.params
        self.profile = layout.profile
        self._caches = caches
        self.sigma = 2.0 / self.params.grid_n**2
        self.block_sizes = [c.P1 * c.P2 for c in caches]
        self.total_coefficients = int(sum(self.block_sizes))

    @classmethod
    def build(cls, params: FrameParams) -> "DigitalCurveletFrame":
        layout = build_layout(params)
        dev = verify_partition(layout)
        if dev > PARTITION_TOL:
            raise RuntimeError(f"window partition deviates by {dev:.3e}")
        return cls(layout, layout.supports, dev)

    def wedge_index(self, j: int, ell: int) -> int:
        for i, c in enumerate(self._caches):
            if (c.j, c.ell) == (j, ell):
                return i
        raise KeyError(f"no tile ({j}, {ell})")

    def wedge_table(self) -> list[tuple[int, int, int, int]]:
        return [(c.j, c.ell, c.P1, c.P2) for c in self._caches]


@dataclass
class CoefficientSet:
    """Coefficient blocks of one analysis, in stable scale-major order.

    ``blocks[i]`` is the real ``P1 x P2`` array of tile ``i``; the flat
    ordering used for thresholding ties is blocks concatenated in layout
    order, each in C order.
    """

    wedge_table: list[tuple[int, int, int, int]]
    blocks: list[np.ndarray]
    grid_n: int
    s: float = 1.0
    alpha: float = 0.5

    @property
    def total_count(self) -> int:
        return int(sum(b.size for b in self.blocks))

    @property
    def total_energy(self) -> float:
        return float(sum(np.sum(np.abs(b) ** 2) for b in self.blocks))

    def flat_magnitudes(self) -> np.ndarray:
        """``|c|`` of every coefficient in flat order, written block by block
        into one array (no per-block temporaries)."""
        out = np.empty(self.total_count)
        lo = 0
        for b in self.blocks:
            np.abs(b.ravel(), out=out[lo : lo + b.size])
            lo += b.size
        return out

    def block_offsets(self) -> np.ndarray:
        sizes = [b.size for b in self.blocks]
        return np.concatenate([[0], np.cumsum(sizes)])

    def flat_index(self, j: int, ell: int, m: tuple[int, int]) -> int:
        """Flat position of coefficient ``(j, ell, m)`` in the stable order."""
        offs = self.block_offsets()
        for i, (jj, ee, P1, P2) in enumerate(self.wedge_table):
            if (jj, ee) == (j, ell):
                m1, m2 = int(m[0]), int(m[1])
                if not (0 <= m1 < P1 and 0 <= m2 < P2):
                    raise ValueError(f"box index {m} outside {P1}x{P2}")
                return int(offs[i]) + m1 * P2 + m2
        raise KeyError(f"no tile ({j}, {ell})")

    def index_of_flat(self, flat: int) -> tuple[int, int, tuple[int, int]]:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= flat < self.total_count:
            raise ValueError(f"flat index {flat} outside [0, {self.total_count})")
        offs = self.block_offsets()
        i = int(np.searchsorted(offs, flat, side="right") - 1)
        j, ell, _P1, P2 = self.wedge_table[i]
        m1, m2 = divmod(int(flat - offs[i]), P2)
        return j, ell, (m1, m2)

    def copy_with_flat_mask(self, keep: np.ndarray) -> "CoefficientSet":
        offs = self.block_offsets()
        blocks = []
        for i, b in enumerate(self.blocks):
            m = keep[offs[i] : offs[i + 1]].reshape(b.shape)
            blocks.append(np.where(m, b, 0.0))
        return CoefficientSet(self.wedge_table, blocks, self.grid_n, self.s, self.alpha)


def _check_image(image: np.ndarray, frame: DigitalCurveletFrame) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    n = frame.params.grid_n
    if image.shape != (n, n):
        raise ValueError(f"image shape {image.shape} does not match grid {(n, n)}")
    if not np.all(np.isfinite(image)):
        raise ValueError("image contains non-finite samples")
    return image


def analyze(image: np.ndarray, frame: DigitalCurveletFrame) -> CoefficientSet:
    """Forward transform; Parseval in the grid quadrature norm.

    The windowed support and the half box of each tile are staged in two
    scratch arrays sized for the largest tile, so the only arrays a call
    allocates per tile are the coefficient blocks it returns.
    """
    image = _check_image(image, frame)
    F = np.fft.rfft2(image).ravel()
    box = np.empty(max(c.P1 * (c.P2 // 2 + 1) for c in frame._caches), dtype=complex)
    vals = np.empty(max(c.grid_flat.size for c in frame._caches), dtype=complex)
    blocks = []
    for c in frame._caches:
        H = box[: c.P1 * (c.P2 // 2 + 1)]
        H.fill(0)
        v = vals[: c.grid_flat.size]
        np.take(F, c.grid_flat, out=v)
        v *= c.window
        np.conjugate(v[c.n_direct :], out=v[c.n_direct :])
        H[c.box_flat] = v
        block = np.fft.irfft2(H.reshape(c.P1, c.P2 // 2 + 1), s=(c.P1, c.P2))
        block *= frame.sigma * math.sqrt(c.P1 * c.P2)
        blocks.append(block)
    return CoefficientSet(
        frame.wedge_table(), blocks, frame.params.grid_n, frame.params.s, frame.params.alpha
    )


def synthesize(coeffs: CoefficientSet, frame: DigitalCurveletFrame) -> np.ndarray:
    """Adjoint of :func:`analyze`; inverts it exactly on its range.

    Blocks must be real: a complex block raises a ``ValueError`` naming
    its tile rather than losing its imaginary part.
    """
    if len(coeffs.blocks) != len(frame._caches):
        raise ValueError("coefficient set does not match frame tile count")
    n = frame.params.grid_n
    Facc = np.zeros(n * (n // 2 + 1), dtype=complex)
    for c, block in zip(frame._caches, coeffs.blocks):
        if block.shape != (c.P1, c.P2):
            raise ValueError(
                f"block shape {block.shape} does not match tile box {(c.P1, c.P2)}"
            )
        if np.iscomplexobj(block):
            raise ValueError(f"block of tile ({c.j}, {c.ell}) is complex; coefficients are real")
        if not np.any(block):
            continue
        ns = c.n_spectrum
        v = np.fft.rfft2(block).ravel()[c.box_flat[:ns]]
        v /= math.sqrt(c.P1 * c.P2)
        np.conjugate(v[c.n_direct :], out=v[c.n_direct :])
        v *= c.window[:ns]
        # the half-spectrum indices of one tile are unique, so += is collision-free
        Facc[c.grid_flat[:ns]] += v
    return (n * n / 2.0) * np.fft.irfft2(Facc.reshape(n, n // 2 + 1), s=(n, n))


def analyze_direct(
    image: np.ndarray, frame: DigitalCurveletFrame, wedge: tuple[int, int] | int
) -> np.ndarray:
    """Slow oracle for one tile: direct summation, no folding fast path.

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
    i = wedge if isinstance(wedge, int) else frame.wedge_index(*wedge)
    c = frame._caches[i]
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
    coeffs = CoefficientSet(
        frame.wedge_table(),
        [np.zeros((w.P1, w.P2)) for w in frame._caches],
        frame.params.grid_n,
        frame.params.s,
        frame.params.alpha,
    )
    coeffs.blocks[i][m1, m2] = 1.0
    return synthesize(coeffs, frame)


def grid_norms(image: np.ndarray, grid_n: int) -> tuple[float, float]:
    """Quadrature (L1, L2-squared) norms with cell area ``(2/grid_n)**2``."""
    cell = (2.0 / grid_n) ** 2
    a = np.abs(image)
    return float(a.sum() * cell), float((a**2).sum() * cell)


def dump_coefficients(
    coeffs: CoefficientSet,
    frame: DigitalCurveletFrame,
    stem: str,
    top_k: int | None = None,
) -> tuple[str, str]:
    """Portable dump: ``<stem>.json`` header plus ``<stem>.csv`` body.

    CSV columns are ``j, ell, m1, m2, re``; with ``top_k`` only the K
    largest-magnitude coefficients are written, by descending magnitude
    (stable order on ties), or all of them when K exceeds the count.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    p = frame.params
    header = {
        "params": {
            "s": p.s,
            "alpha": p.alpha,
            "grid_n": p.grid_n,
            "corona_constant": p.corona_constant,
            "tau1": p.tau1,
            "tau2": p.tau2,
            "j_max": p.j_max,
        },
        "wedge_table": [list(t) for t in coeffs.wedge_table],
        "total_coefficients": coeffs.total_count,
        "rows": "j,ell,m1,m2,re",
    }
    json_path, csv_path = stem + ".json", stem + ".csv"
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2)
    rows = []
    if top_k is None:
        for (j, ell, P1, P2), b in zip(coeffs.wedge_table, coeffs.blocks):
            for m1 in range(P1):
                for m2 in range(P2):
                    rows.append((j, ell, m1, m2, b[m1, m2]))
    else:
        from .approximation import _largest_mask  # approximation imports this module

        mags = coeffs.flat_magnitudes()
        top = np.flatnonzero(_largest_mask(mags, min(int(top_k), mags.size)))
        order = top[np.lexsort((top, -mags[top]))]
        offs = coeffs.block_offsets()
        for flat in order:
            i = int(np.searchsorted(offs, flat, side="right") - 1)
            j, ell, P1, P2 = coeffs.wedge_table[i]
            local = int(flat - offs[i])
            m1, m2 = divmod(local, P2)
            rows.append((j, ell, m1, m2, coeffs.blocks[i][m1, m2]))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "ell", "m1", "m2", "re"])
        writer.writerows(rows)
    return json_path, csv_path
