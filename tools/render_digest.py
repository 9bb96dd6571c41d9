"""Print one SHA-256 digest per set of cartoon renders.

Run it at two commits and compare the lines to show that a change to
:mod:`alphacurvelets.cartoons` leaves every render bit-identical.  Each
digest covers, render by render, the grid size and the dtype and bytes of
the image.  The sets:

* ``experiments``: the disc of ``disc-rate`` and the edge and bump of
  ``straight-edge-rate`` at their packaged configs (grid 1024, antialias 8);
* ``nterm-roundtrip``: the image pools of seeds 1, 2 and 3 of the
  benchmark's ``nterm-roundtrip`` workload at its grid, read from
  ``perfbench/workloads.py``;
* ``oracle``: every spec and grid of ``test_render_matches_per_sample_oracle``
  in ``tests/test_cartoons.py``.

Usage, from the repository root: ``python tools/render_digest.py``
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]

from alphacurvelets import cli  # noqa: E402
from alphacurvelets.cartoons import CartoonSpec, render  # noqa: E402


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
    from workloads import NTermRoundtrip

    return [(spec, NTermRoundtrip.grid) for seed in (1, 2, 3) for spec in NTermRoundtrip.pool_specs(seed)]


def oracle_renders() -> list[tuple[CartoonSpec, int]]:
    import test_cartoons

    marks = test_cartoons.test_render_matches_per_sample_oracle.pytestmark
    grids = next(mark.args[1] for mark in marks if mark.args[0] == "n, antialias")
    return [(CartoonSpec(antialias=a, **kw), n) for kw in test_cartoons.ORACLE_SPECS for n, a in grids]


def digest(renders: list[tuple[CartoonSpec, int]]) -> str:
    h = hashlib.sha256()
    for spec, n in renders:
        img = render(spec, n)
        h.update(np.int64(n).tobytes())
        h.update(img.dtype.str.encode())
        h.update(img.tobytes())
    return h.hexdigest()


def main() -> None:
    for name, renders in (
        ("experiments", experiment_renders()),
        ("nterm-roundtrip", pool_renders()),
        ("oracle", oracle_renders()),
    ):
        print(f"{name} ({len(renders)} renders): {digest(renders)}")


if __name__ == "__main__":
    main()
