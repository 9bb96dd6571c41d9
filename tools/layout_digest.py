"""Print one SHA-256 digest per set of tiling layouts.

Run it at two commits and compare the lines to show that a change to the
tiling leaves every layout bit-identical.  Each digest covers, tile by tile
in layout order, ``P1``, ``P2``, ``n_spectrum``, ``n_direct``,
``support_cardinality`` and the bytes and dtype of ``grid_flat``,
``box_flat`` and ``window``.  The sets:

* ``frame-sweep``: the frames of the first 180 seed-1 requests of the
  benchmark's ``frame-sweep`` workload, read from ``perfbench/workloads.py``;
* ``grids``: grids 64, 66, 128 and 130 at s 0.5, 0.75, 1 and 1.3, and grid
  1024 at s 1, each at alpha -0.5, 0, 0.25, 0.5 and 0.9 on both ladders
  (170 frames).

Usage, from the repository root: ``python tools/layout_digest.py``
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from alphacurvelets.tiling import FrameParams, build_layout  # noqa: E402

ALPHAS = (-0.5, 0.0, 0.25, 0.5, 0.9)


def frame_sweep_frames(seed: int = 1, count: int = 180) -> list[FrameParams]:
    import workloads

    return [workloads.FrameSweep.request_inputs(seed, i)[0] for i in range(count)]


def grid_frames() -> list[FrameParams]:
    cases = [(grid, s) for grid in (64, 66, 128, 130) for s in (0.5, 0.75, 1.0, 1.3)] + [(1024, 1.0)]
    return [
        FrameParams(s, alpha, grid, snapped=snapped)
        for grid, s in cases
        for alpha in ALPHAS
        for snapped in (False, True)
    ]


def digest(frames: list[FrameParams]) -> str:
    h = hashlib.sha256()
    for params in frames:
        for sup in build_layout(params).wedges:
            counts = (sup.P1, sup.P2, sup.n_spectrum, sup.n_direct, sup.support_cardinality)
            h.update(np.array(counts, dtype=np.int64).tobytes())
            for arr in (sup.grid_flat, sup.box_flat, sup.window):
                h.update(arr.dtype.str.encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def main() -> None:
    for name, frames in (("frame-sweep", frame_sweep_frames()), ("grids", grid_frames())):
        print(f"{name} ({len(frames)} layouts): {digest(frames)}")


if __name__ == "__main__":
    main()
