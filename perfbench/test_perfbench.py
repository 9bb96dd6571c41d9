"""Tests of the benchmark's own arithmetic, inputs and tracing.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import metrics  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from alphacurvelets import approximation, tiling, transform  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    count = 2 * workloads.WORKLOADS[name].cycle
    first = workloads.describe_inputs(name, 1, count)
    assert first == workloads.describe_inputs(name, 1, count)
    assert first != workloads.describe_inputs(name, 2, count)


def test_nterm_schedule_stays_in_range():
    total = 1015048
    ns = [workloads.NTermRoundtrip.request_inputs(3, i, total)[1] for i in range(400)]
    assert min(ns) >= 64 and max(ns) <= total // 4
    assert min(ns) < 256 and max(ns) > total // 16  # log-uniform reaches both ends


def test_cycles_cover_every_combination_once():
    combos = [
        (p.grid_n, p.corona_constant != tiling.FrameParams(p.s, p.alpha, p.grid_n).corona_constant)
        for p, _ in (workloads.FrameSweep.request_inputs(5, i) for i in range(6))
    ]
    assert sorted(combos) == sorted((g, s) for g in (128, 256, 512) for s in (False, True))
    batch = [workloads.Reproduce.request_inputs(5, i) for i in range(6)]
    assert sorted(batch) == sorted(metrics.REPRODUCE_EXPERIMENTS)


def test_frame_sweep_spreads_each_pair_evenly_and_never_repeats():
    cycles = 30
    by_pair: dict[tuple, list[tuple[float, float]]] = {}
    for i in range(6 * cycles):
        p, _ = workloads.FrameSweep.request_inputs(4, i)
        snapped = p.corona_constant != tiling.FrameParams(p.s, p.alpha, p.grid_n).corona_constant
        by_pair.setdefault((p.grid_n, snapped), []).append((p.s, p.alpha))
    assert len(by_pair) == 6
    for points in by_pair.values():
        assert len(set(points)) == cycles
        s_bins = np.bincount(((np.array([s for s, _ in points]) - 0.5) * 6).astype(int), minlength=6)
        a_bins = np.bincount((np.array([a for _, a in points]) / 0.9 * 6).astype(int), minlength=6)
        # 5 per sixth is even; independent uniform draws put <= 2 or >= 8 in
        # some sixth of a 30-point set about three times in four
        assert s_bins.min() >= 3 and s_bins.max() <= 7
        assert a_bins.min() >= 3 and a_bins.max() <= 7


def test_run_length_is_a_fixed_number_of_whole_cycles():
    for wl in workloads.WORKLOADS.values():
        ops = workloads.run_ops(wl, 30)
        assert ops % wl.cycle == 0 and ops >= wl.cycle
    assert workloads.run_ops(workloads.Reproduce, 1) == workloads.Reproduce.cycle


@pytest.mark.parametrize(
    "n, level, rank",
    [(1000, 0.9, 900), (100, 0.9, 90), (50, 0.8, 40), (25, 0.6, 15), (20, 0.5, None), (6, 0.5, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, level, rank):
    values = [float(v) for v in range(1, n + 1)]
    summary = stats.latency_summary(values[::-1])
    assert summary["tail_level"] == pytest.approx(level)
    if rank is None:  # too few samples: the median stands in
        assert summary["tail"] == statistics.median(values)
    else:
        assert summary["tail"] == values[rank - 1]
        assert sum(v > summary["tail"] for v in values) >= 10


def test_throughput_counts_operations_over_their_summed_latencies():
    assert stats.throughput([0.1, 0.1, 0.2, 0.2, 1.0, 0.4]) == pytest.approx(6 / 2.0)


def test_batch_latencies_are_cycle_sums():
    latencies = [0.1, 0.1, 0.2, 0.2, 1.0, 1.0, 0.1, 0.1, 0.5]  # last cycle incomplete
    assert stats.cycle_sums(latencies, 2) == pytest.approx([0.2, 0.4, 2.0, 0.2])


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 4) == 0.0
    q1, q2, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 5.0], n=4)
    assert stats.quartile_spread([5.0, 1.0, 3.0, 2.0, 4.0]) == pytest.approx((q3 - q1) / q2)


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "request": 0}


def test_self_time_subtracts_only_what_children_cover():
    spans = [
        _span(0, "build", 0.0, 10.0),
        _span(1, "layout", 1.0, 4.0, parent=0),
        _span(2, "scan", 2.0, 3.0, parent=1),
        _span(3, "layout", 3.5, 6.0, parent=0),  # overlaps its sibling
        _span(4, "other", 20.0, 21.0),
    ]
    selfs = stats.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5)
    assert stats.busy_time(spans, "layout") == pytest.approx(5.0)


def test_busy_time_counts_recursion_once():
    spans = [_span(0, "f", 0.0, 4.0), _span(1, "f", 1.0, 2.0, parent=0)]
    assert stats.busy_time(spans, "f") == pytest.approx(4.0)


def test_failed_ratio_counts_exceptions_and_failed_checks():
    class Flaky:
        cycle = 1

        def request(self, i):
            return i

        def call(self, i):
            if i % 3 == 0:
                raise ValueError("boom")
            return i

        def check(self, i, out):
            return "odd" if out % 2 else None

    out = worker.run_requests(Flaky(), None, ops=6)
    assert len(out["latencies"]) == 6
    tally = stats.tally(out["outcomes"])
    # 0 and 3 raise, 1 and 5 fail the check, 2 and 4 pass
    assert tally["attempted"] == 6 and tally["failed"] == 4
    assert tally["failed_ratio"] == pytest.approx(4 / 6)
    assert tally["causes"] == {"ValueError: boom": 2, "odd": 2}


def test_cancellation_diagnosis_needs_a_correct_synthesis():
    # squares of 1e-5 vanish when added to 1e8, so the running-sum tail is 0
    mags = np.array([1e4] + [1e-5] * 1000)
    tail = 1000 * 1e-10
    assert workloads.explained_by_cancellation(mags, 1, 0.5 * tail)
    assert not workloads.explained_by_cancellation(mags, 1, 2.0 * tail)  # synthesis wrong
    # no cancellation: the failure would have another cause
    assert not workloads.explained_by_cancellation(np.array([1.0, 0.5, 0.25]), 1, 0.1)


def test_tracer_nests_spans_at_the_callers_lookup_names():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = 7
        frame = transform.DigitalCurveletFrame.build(tiling.FrameParams(s=1.0, alpha=0.5, grid_n=32))
        image = workloads._rng(0).standard_normal((32, 32))
        coeffs = transform.analyze(image, frame)
        approximation.error_curve(image, frame, [40], coeffs=coeffs, verify_at=(40,))
        with tracer.paused():
            transform.synthesize(coeffs, frame)
    finally:
        tracer.uninstall()
    names = [s["name"] for s in tracer.spans]
    assert names == [
        "transform.build",
        "tiling.build_layout",
        "transform.analyze",
        "approximation.error_curve",
        "approximation.threshold",
        "transform.synthesize",
    ]
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["tiling.build_layout"]["parent"] == by_name["transform.build"]["id"]
    assert by_name["transform.synthesize"]["parent"] == by_name["approximation.error_curve"]["id"]
    assert all(s["request"] == 7 for s in tracer.spans)
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["approximation.threshold.calls"] == 1
    assert layers["approximation.kept_ratio"] == pytest.approx(40 / coeffs.total_count)
    assert layers["transform.coefficients"] == coeffs.total_count
    assert 0 < layers["transform.build.self_s"] < layers["transform.build.busy_s"]
    assert transform.analyze.__name__ == "analyze"  # uninstall restored the original


def test_metric_tables_match_benchmark_json():
    bench = metrics.load_benchmark()
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert per_layer == list(metrics.MOVES)
    assert set(tracing.layer_metrics([])) | {"trace.overhead_ratio"} == set(per_layer)
    assert set(metrics.ALIASES) == {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert all(set(a) <= e2e for a in metrics.ALIASES.values())
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
