"""Print one SHA-256 digest per set of layouts, renders and error curves.

Run it at two commits and compare the lines to show that a change leaves
every layout, render and curve bit-identical.  Each line reads
``<set> (<count> <items>): <sha256>``, in this order:

* layouts: each digest covers, tile by tile in layout order, ``P1``,
  ``P2``, ``n_spectrum``, ``n_direct``, ``support_cardinality`` and the
  dtype and bytes of ``grid_flat``, ``box_flat`` and ``window``;

  * ``frame-sweep``: the frames of the first 180 seed-1 requests of the
    benchmark's ``frame-sweep`` workload, read from ``perfbench/workloads.py``;
  * ``grids``: grids 64, 66, 128 and 130 at s 0.5, 0.75, 1 and 1.3, and grid
    1024 at s 1, each at alpha -0.5, 0, 0.25, 0.5 and 0.9 on both ladders
    (170 frames);

* renders: each digest covers, render by render, the grid size and the
  dtype and bytes of the image;

  * ``experiments``: the disc of ``disc-rate`` and the edge and bump of
    ``straight-edge-rate`` at their packaged configs (grid 1024, antialias 8);
  * ``nterm-roundtrip``: the image pools of seeds 1, 2 and 3 of the
    benchmark's ``nterm-roundtrip`` workload at its grid, read from
    ``perfbench/workloads.py``;
  * ``oracle``: every spec and grid of ``test_render_matches_per_sample_oracle``
    in ``tests/test_cartoons.py``;

* ``curves``: the four cartoon kinds at fixed parameters and grid 256,
  each analysed by two frames (alpha 1/2 Nyquist-snapped, alpha 1/4 on the
  default ladder) and taken over ``geometric_schedule(32, total // 4)``
  with three verified N: the schedule's first, middle and last.  The digest
  covers, curve by curve, the schedule, ``err2``, the metadata, and at each
  verified N the synthesis error and the values of ``threshold(coeffs, N)``.

Usage, from the repository root: ``python tools/digest.py``
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]

import test_cartoons  # noqa: E402
import workloads  # noqa: E402
from alphacurvelets import cli  # noqa: E402
from alphacurvelets.approximation import error_curve, geometric_schedule, threshold  # noqa: E402
from alphacurvelets.cartoons import CartoonSpec, render  # noqa: E402
from alphacurvelets.tiling import FrameParams, build_layout  # noqa: E402
from alphacurvelets.transform import DigitalCurveletFrame, analyze  # noqa: E402

ALPHAS = (-0.5, 0.0, 0.25, 0.5, 0.9)
CURVE_GRID = 256
CURVE_SPECS = (
    CartoonSpec(kind="disc"),
    CartoonSpec(kind="half_space", phi=0.7, c=0.1, beta=2, nu=20.0),
    CartoonSpec(kind="star", rho0=0.42, cos_coeffs=(0.04, -0.02, 0.01), sin_coeffs=(-0.03, 0.02, 0.015)),
    CartoonSpec(kind="smooth_bump", beta=3, nu=10.0),
)
CURVE_FRAMES = (FrameParams(1.0, 0.5, CURVE_GRID, snapped=True), FrameParams(1.0, 0.25, CURVE_GRID))


def frame_sweep_frames(seed: int = 1, count: int = 180) -> list[FrameParams]:
    return [workloads.FrameSweep.request_inputs(seed, i)[0] for i in range(count)]


def grid_frames() -> list[FrameParams]:
    cases = [(grid, s) for grid in (64, 66, 128, 130) for s in (0.5, 0.75, 1.0, 1.3)] + [(1024, 1.0)]
    return [
        FrameParams(s, alpha, grid, snapped=snapped)
        for grid, s in cases
        for alpha in ALPHAS
        for snapped in (False, True)
    ]


def experiment_renders() -> list[tuple[CartoonSpec, int]]:
    disc = cli.resolve_config("disc-rate", None, {})
    edge = cli.resolve_config("straight-edge-rate", None, {})
    smooth = dict(beta=edge["beta"], nu=float(edge["nu"]), antialias=edge["antialias"])
    return [
        (CartoonSpec(kind="disc", antialias=disc["antialias"]), disc["grid"]),
        (CartoonSpec(kind="half_space", phi=float(edge["edge_phi"]), c=float(edge["edge_c"]), **smooth), edge["grid"]),
        (CartoonSpec(kind="smooth_bump", **smooth), edge["grid"]),
    ]


def pool_renders() -> list[tuple[CartoonSpec, int]]:
    pool = workloads.NTermRoundtrip
    return [(spec, pool.grid) for seed in (1, 2, 3) for spec in pool.pool_specs(seed)]


def oracle_renders() -> list[tuple[CartoonSpec, int]]:
    marks = test_cartoons.test_render_matches_per_sample_oracle.pytestmark
    grids = next(mark.args[1] for mark in marks if mark.args[0] == "n, antialias")
    return [(CartoonSpec(antialias=a, **kw), n) for kw in test_cartoons.ORACLE_SPECS for n, a in grids]


def curve_inputs() -> list[tuple[DigitalCurveletFrame, np.ndarray]]:
    """Each curve's frame and image: each frame is built once and each image rendered once."""
    images = [render(spec, CURVE_GRID) for spec in CURVE_SPECS]
    frames = [DigitalCurveletFrame.build(params) for params in CURVE_FRAMES]
    return [(frame, img) for frame in frames for img in images]


def update_array(h, arr: np.ndarray) -> None:
    h.update(arr.dtype.str.encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def update_layout(h, params: FrameParams) -> None:
    for sup in build_layout(params).wedges:
        counts = (sup.P1, sup.P2, sup.n_spectrum, sup.n_direct, sup.support_cardinality)
        h.update(np.array(counts, dtype=np.int64).tobytes())
        for arr in (sup.grid_flat, sup.box_flat, sup.window):
            update_array(h, arr)


def update_render(h, render_input: tuple[CartoonSpec, int]) -> None:
    spec, n = render_input
    h.update(np.int64(n).tobytes())
    update_array(h, render(spec, n))


def update_curve(h, curve_input: tuple[DigitalCurveletFrame, np.ndarray]) -> None:
    frame, img = curve_input
    coeffs = analyze(img, frame)
    ns = geometric_schedule(32, coeffs.total_count // 4)
    verify = (ns[0], ns[len(ns) // 2], ns[-1])
    curve = error_curve(img, frame, ns, coeffs=coeffs, verify_at=verify)
    h.update(np.array(curve.n_terms, dtype=np.int64).tobytes())
    h.update(np.array(curve.err2, dtype=np.float64).tobytes())
    h.update(repr(sorted(curve.metadata.items())).encode())
    for n in verify:
        h.update(np.array([n], dtype=np.int64).tobytes())
        h.update(np.array([curve.err2_synthesis[n]], dtype=np.float64).tobytes())
        h.update(threshold(coeffs, n).values.tobytes())


# (set, what it counts, its inputs, what hashes one input), in print order
SETS = (
    ("frame-sweep", "layouts", frame_sweep_frames, update_layout),
    ("grids", "layouts", grid_frames, update_layout),
    ("experiments", "renders", experiment_renders, update_render),
    ("nterm-roundtrip", "renders", pool_renders, update_render),
    ("oracle", "renders", oracle_renders, update_render),
    ("curves", "curves", curve_inputs, update_curve),
)


def digest(update, inputs: list) -> str:
    h = hashlib.sha256()
    for item in inputs:
        update(h, item)
    return h.hexdigest()


def main() -> None:
    for name, items, make_inputs, update in SETS:
        inputs = make_inputs()
        print(f"{name} ({len(inputs)} {items}): {digest(update, inputs)}", flush=True)


if __name__ == "__main__":
    main()
