"""Spans around the calls into each layer, recorded from outside the program.

Only the traced worker imports this module, so untraced timing runs never
load the wrappers.  ``Tracer.install`` replaces each public entry point
at every name its callers look it up by: ``cli`` imports ``render``,
``analyze``, ``build_layout`` and others by name, ``approximation`` calls
``threshold``, ``analyze`` and ``synthesize`` through its own globals,
``transform`` calls ``build_layout`` through its own, and ``bessel``
calls ``bessel_j`` through its own.  Each span records its name, start,
end, parent span and request id, plus the counts the layer metrics need.
Spans stay in memory until the worker writes them out.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time

import numpy as np

from alphacurvelets import approximation, bessel, cartoons, cli, molecules, tiling, transform

import metrics
import stats


def _lattice_points(result, args):
    return {"lattice_points": sum(w.support_cardinality for w in result.wedges)}


def _frame(result, args):
    p = args["params"]
    return {"coefficients": result.total_coefficients, "grid_n": p.grid_n, "key": repr(p)}


def _analyze_bytes(result, args):
    """Bytes analyze reads and writes, computed from array sizes.

    Image read and spectrum written, then per tile the gather indices,
    window samples, fold indices, gathered spectrum values, and the wrap
    box filled and transformed.  Cache behaviour is not modelled.
    """
    frame = args["frame"]
    n2 = frame.params.grid_n ** 2
    total = n2 * (8 + 16)
    for c in frame._caches:
        total += c.grid_flat.nbytes + c.window.nbytes + c.box_flat.nbytes
        total += 16 * c.grid_flat.size + 2 * 16 * c.P1 * c.P2
    return {"bytes": total}


def _blocks(result, args):
    blocks = args["coeffs"].blocks
    return {"blocks": len(blocks), "nonzero_blocks": sum(1 for b in blocks if np.any(b))}


def _kept(result, args):
    return {"kept": args["n_keep"], "total": args["coeffs"].total_count}


def _samples(result, args):
    return {"samples": args["grid_n"] ** 2 * args["spec"].antialias ** 2}


def _points(result, args):
    return {"points": int(np.size(args["r"]))}


def _pairs(result, args):
    return {"pairs": result.count_a * result.count_b}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counters=None):
        """Wrapper recording one span per call of ``fn``.

        ``name`` is a string or a function of the call's arguments;
        ``counters(result, arguments)`` adds counts to the span after it
        closes, so their cost stays out of the span's time.
        """
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "name": name if isinstance(name, str) else name(*args, **kwargs),
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counters(result, bound.arguments))
            return result

        return traced

    def _patch(self, attr, value, *owners):
        for owner in owners:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        w = self.wrap
        self._patch(
            "build_layout",
            w("tiling.build_layout", tiling.build_layout, _lattice_points),
            tiling, transform, cli,
        )
        self._patch(
            "verify_partition",
            w("tiling.verify_partition", tiling.verify_partition),
            tiling, cli,
        )
        build = transform.DigitalCurveletFrame.__dict__["build"].__func__
        self._patch(
            "build", classmethod(w("transform.build", build, _frame)), transform.DigitalCurveletFrame
        )
        self._patch(
            "analyze",
            w("transform.analyze", transform.analyze, _analyze_bytes),
            transform, approximation, cli,
        )
        self._patch(
            "synthesize",
            w("transform.synthesize", transform.synthesize, _blocks),
            transform, approximation, cli,
        )
        self._patch(
            "error_curve", w("approximation.error_curve", approximation.error_curve), approximation
        )
        self._patch(
            "threshold", w("approximation.threshold", approximation.threshold, _kept), approximation
        )
        self._patch(
            "bound1_tail_estimator",
            w("approximation.bound1_tail_estimator", approximation.bound1_tail_estimator),
            approximation,
        )
        self._patch("render", w("cartoons.render", cartoons.render, _samples), cartoons, cli)
        self._patch(
            "wedge_energy_quadrature",
            w("bessel.wedge_energy_quadrature", bessel.wedge_energy_quadrature),
            bessel,
        )
        self._patch("bessel_j", w("bessel.bessel_j", bessel.bessel_j, _points), bessel)
        self._patch("bessel_j_series", w("bessel.bessel_j_series", bessel.bessel_j_series), bessel)
        self._patch(
            "consistency_sum",
            w("molecules.consistency_sum", molecules.consistency_sum, _pairs),
            molecules,
        )
        self._patch("emit_report", w("cli.emit_report", cli.emit_report), cli)
        self._patch(
            "run_experiment",
            w(lambda experiment, *a, **k: f"cli.{experiment}", cli.run_experiment),
            cli,
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``, from the spans."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    selfs = stats.self_times(spans)

    def of(name):
        return by_name.get(name, [])

    out: dict[str, float] = {}
    for name in (
        "tiling.build_layout",
        "tiling.verify_partition",
        "transform.build",
        "transform.analyze",
        "transform.synthesize",
        "approximation.error_curve",
        "approximation.threshold",
        "cartoons.render",
        "bessel.wedge_energy_quadrature",
        "bessel.bessel_j_series",
        "molecules.consistency_sum",
    ):
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.busy_s"] = stats.busy_time(spans, name)
    for name in ("transform.build", "approximation.error_curve"):
        out[f"{name}.self_s"] = sum(selfs[s["id"]] for s in of(name))

    out["tiling.lattice_points"] = _mean(s["lattice_points"] for s in of("tiling.build_layout"))
    seen: set[str] = set()
    repeats = 0
    for s in of("transform.build"):
        repeats += s["key"] in seen
        seen.add(s["key"])
    builds = of("transform.build")
    out["transform.build.repeat_ratio"] = repeats / len(builds) if builds else 0.0
    out["transform.coefficients"] = _mean(s["coefficients"] for s in builds)
    out["transform.redundancy"] = _mean(s["coefficients"] / s["grid_n"] ** 2 for s in builds)
    out["transform.analyze.bytes_computed"] = sum(s["bytes"] for s in of("transform.analyze"))
    synth = of("transform.synthesize")
    blocks = sum(s["blocks"] for s in synth)
    out["transform.synthesize.nonzero_block_ratio"] = (
        sum(s["nonzero_blocks"] for s in synth) / blocks if blocks else 0.0
    )
    out["approximation.kept_ratio"] = _mean(
        s["kept"] / s["total"] for s in of("approximation.threshold")
    )
    out["approximation.bound1_tail_estimator.busy_s"] = stats.busy_time(
        spans, "approximation.bound1_tail_estimator"
    )
    out["cartoons.render.samples"] = sum(s["samples"] for s in of("cartoons.render"))
    out["bessel.bessel_j.calls"] = len(of("bessel.bessel_j"))
    out["bessel.bessel_j.points"] = sum(s["points"] for s in of("bessel.bessel_j"))
    out["molecules.pairs"] = sum(s["pairs"] for s in of("molecules.consistency_sum"))
    for experiment in metrics.REPRODUCE_EXPERIMENTS:
        out[f"cli.{experiment}.busy_s"] = stats.busy_time(spans, f"cli.{experiment}")
    out["cli.emit_report.busy_s"] = stats.busy_time(spans, "cli.emit_report")
    return out
