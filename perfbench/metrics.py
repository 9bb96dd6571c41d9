"""What each metric means: names per workload, and what each layer metric moves.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; this module adds what that file has no field for.  The
end-to-end metrics are shared by all workloads, so each workload prints
them under its own name as well (``ALIASES``).  ``MOVES`` records, before
any optimisation is measured, which end-to-end metric on which workload
each per-layer metric should move.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# the reproduce workload's batch; straight-edge-rate is where cartoons does
# most of the work and molecule-distance where molecules does
REPRODUCE_EXPERIMENTS = (
    "disc-rate",
    "straight-edge-rate",
    "wedge-energy",
    "disc-lower-bound",
    "bessel-check",
    "molecule-distance",
)

ALIASES = {
    "nterm-roundtrip": {
        "ops_per_s": "roundtrip_per_s",
        "op_p50_ms": "roundtrip_p50_ms",
        "op_p90_ms": "roundtrip_p90_ms",
    },
    "frame-sweep": {
        "ops_per_s": "frames_per_s",
        "op_p50_ms": "build_p50_ms",
        "op_p90_ms": "build_p90_ms",
    },
    "reproduce": {
        "ops_per_s": "verdicts_per_s",
        "op_p50_ms": "reproduce_p50_ms",
        "op_p90_ms": "reproduce_p90_ms",
    },
}

_TILING = "frames_per_s and build_p50_ms on frame-sweep, setup_s on nterm-roundtrip, reproduce_s; not roundtrip_*"
_TRANSFORM = "roundtrip_* on nterm-roundtrip, peak_rss_mb; a small share of frame-sweep"
_APPROX = "roundtrip_* on nterm-roundtrip and reproduce_s; not frame-sweep"
_REPRODUCE = "reproduce_s on reproduce"

MOVES = {
    "tiling.build_layout.calls": _TILING,
    "tiling.build_layout.busy_s": _TILING,
    "tiling.verify_partition.calls": _TILING,
    "tiling.verify_partition.busy_s": _TILING,
    "tiling.lattice_points": _TILING,
    "transform.build.calls": _TILING,
    "transform.build.busy_s": _TILING,
    "transform.build.self_s": _TILING,
    "transform.build.repeat_ratio": _TILING + "; 0 on frame-sweep, >0 on reproduce",
    "transform.analyze.calls": _TRANSFORM,
    "transform.analyze.busy_s": _TRANSFORM,
    "transform.analyze.bytes_computed": _TRANSFORM,
    "transform.synthesize.calls": _TRANSFORM,
    "transform.synthesize.busy_s": _TRANSFORM,
    "transform.synthesize.nonzero_block_ratio": _TRANSFORM,
    "transform.coefficients": "peak_rss_mb on every workload",
    "transform.redundancy": "peak_rss_mb on every workload",
    "approximation.error_curve.calls": _APPROX,
    "approximation.error_curve.busy_s": _APPROX,
    "approximation.error_curve.self_s": _APPROX,
    "approximation.threshold.calls": _APPROX,
    "approximation.threshold.busy_s": _APPROX,
    "approximation.kept_ratio": _APPROX,
    "approximation.bound1_tail_estimator.busy_s": _REPRODUCE,
    "cartoons.render.calls": "reproduce_s, setup_s on nterm-roundtrip",
    "cartoons.render.busy_s": "reproduce_s, setup_s on nterm-roundtrip",
    "cartoons.render.samples": "reproduce_s, setup_s on nterm-roundtrip",
    "bessel.wedge_energy_quadrature.calls": _REPRODUCE + " (small share)",
    "bessel.wedge_energy_quadrature.busy_s": _REPRODUCE + " (small share)",
    "bessel.bessel_j.calls": _REPRODUCE + " (small share)",
    "bessel.bessel_j.points": _REPRODUCE + " (small share)",
    "bessel.bessel_j_series.calls": _REPRODUCE + " (small share)",
    "bessel.bessel_j_series.busy_s": _REPRODUCE + " (small share)",
    "molecules.consistency_sum.calls": _REPRODUCE,
    "molecules.consistency_sum.busy_s": _REPRODUCE,
    "molecules.pairs": _REPRODUCE,
    "cli.disc-rate.busy_s": _REPRODUCE,
    "cli.straight-edge-rate.busy_s": _REPRODUCE,
    "cli.wedge-energy.busy_s": _REPRODUCE,
    "cli.disc-lower-bound.busy_s": _REPRODUCE,
    "cli.bessel-check.busy_s": _REPRODUCE,
    "cli.molecule-distance.busy_s": _REPRODUCE,
    "cli.emit_report.busy_s": _REPRODUCE,
    "trace.overhead_ratio": "none: the traced run's cost over the untraced replay of the same requests",
}


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)
