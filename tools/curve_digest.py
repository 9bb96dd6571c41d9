"""Print one SHA-256 digest of a fixed set of N-term error curves.

Run it at two commits and compare the lines to show that a change to
thresholding, the error curve or synthesis leaves every curve bit-identical.
Each of the four cartoon kinds, at fixed parameters and grid 256, is
analysed by two frames (alpha 1/2 Nyquist-snapped and alpha 1/4 on the
default ladder), and its curve is taken over ``geometric_schedule(32,
total // 4)`` with three verified N: the schedule's first, middle and last.
The digest covers, curve by curve, the schedule, ``err2``, the metadata,
and at each verified N the synthesis error and the values of
``threshold(coeffs, N)``.

Usage, from the repository root: ``python tools/curve_digest.py``
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from alphacurvelets.approximation import error_curve, geometric_schedule, threshold  # noqa: E402
from alphacurvelets.cartoons import CartoonSpec, render  # noqa: E402
from alphacurvelets.tiling import FrameParams  # noqa: E402
from alphacurvelets.transform import DigitalCurveletFrame, analyze  # noqa: E402

GRID = 256
SPECS = (
    CartoonSpec(kind="disc"),
    CartoonSpec(kind="half_space", phi=0.7, c=0.1, beta=2, nu=20.0),
    CartoonSpec(kind="star", rho0=0.42, cos_coeffs=(0.04, -0.02, 0.01), sin_coeffs=(-0.03, 0.02, 0.015)),
    CartoonSpec(kind="smooth_bump", beta=3, nu=10.0),
)
FRAMES = (FrameParams(1.0, 0.5, GRID, snapped=True), FrameParams(1.0, 0.25, GRID))


def digest() -> tuple[int, str]:
    """The number of curves and their digest."""
    h = hashlib.sha256()
    images = [render(spec, GRID) for spec in SPECS]
    count = 0
    for params in FRAMES:
        frame = DigitalCurveletFrame.build(params)
        for img in images:
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
            count += 1
    return count, h.hexdigest()


def main() -> int:
    count, hexdigest = digest()
    print(f"curves ({count} curves): {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
