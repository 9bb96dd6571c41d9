import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from alphacurvelets import _worker
from alphacurvelets import approximation as appr
from alphacurvelets.cartoons import CartoonSpec, render
from alphacurvelets.cli import load_defaults
from alphacurvelets.tiling import FrameParams
from alphacurvelets.transform import CoefficientSet, DigitalCurveletFrame, analyze, grid_norms, synthesize


def toy_coeffs(values):
    return CoefficientSet([(0, 0, 1, len(values))], np.asarray(values, dtype=float))


def test_threshold_keeps_largest_by_magnitude():
    coeffs = toy_coeffs([5.0, 3.0, 2.0])
    kept = appr.threshold(coeffs, 2)
    assert np.array_equal(kept.blocks[0], np.array([[5.0, 3.0, 0.0]]))


def test_threshold_full_is_identity():
    coeffs = toy_coeffs([1.0, -2.0, 0.5, 4.0])
    kept = appr.threshold(coeffs, 4)
    assert np.array_equal(kept.blocks[0], coeffs.blocks[0])


def test_threshold_rejects_bad_counts():
    coeffs = toy_coeffs([1.0, 2.0])
    with pytest.raises(ValueError):
        appr.threshold(coeffs, 0)
    with pytest.raises(ValueError):
        appr.threshold(coeffs, 3)


def test_threshold_counts_must_be_integers():
    coeffs = toy_coeffs([5.0, 3.0, 2.0])
    assert np.array_equal(appr.threshold(coeffs, np.int64(2)).values, appr.threshold(coeffs, 2).values)
    for bad in (1.5, "2"):
        with pytest.raises(ValueError, match="n_keep must be an integer"):
            appr.threshold(coeffs, bad)


def test_threshold_rejects_nan_values():
    # untied and tied at the boundary: the tie pass must not fill the count past the NaN
    for values in ([1.0, np.nan, 2.0], [np.nan, 1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="NaN"):
            appr.threshold(toy_coeffs(values), 2)


def test_threshold_is_the_oracle_when_a_boundary_tie_straddles_the_halves(each_sharing_worker):
    # the passes after the selection split the flat array at size // 2 = 50
    values = np.random.default_rng(30).uniform(-1.0, 1.0, 101)
    values[[7, 90]] = 3.0, -4.0
    values[44:57:2] = 2.0  # the tie at the boundary: ten entries, five each side of 50
    values[45:57:4] = -2.0
    coeffs = toy_coeffs(values)
    for n in range(3, 12):
        want = np.where(stable_argsort_mask(np.abs(values), n), values, 0.0)
        got = each_sharing_worker(lambda: appr.threshold(coeffs, n).values.tobytes())
        assert got == [want.tobytes()] * 4, n


@pytest.mark.parametrize("at", [3, 80])
def test_threshold_refuses_a_nan_in_either_half(at, each_sharing_worker):
    values = np.random.default_rng(31).standard_normal(101)
    values[at] = np.nan
    coeffs = toy_coeffs(values)

    def refused():
        with pytest.raises(ValueError, match="NaN"):
            appr.threshold(coeffs, 10)
        return True

    assert each_sharing_worker(refused) == [True] * 4


class SubmitRecorder:
    """The worker thread, recording the function of each task submitted to it."""

    def __init__(self, worker):
        self.worker, self.tasks = worker, []

    def submit(self, fn, *args):
        self.tasks.append(fn)
        return self.worker.submit(fn, *args)


@pytest.fixture
def submitted(monkeypatch):
    """The functions of the tasks submitted to the worker thread, which still runs each."""
    recorder = SubmitRecorder(_worker._WORKER)
    monkeypatch.setattr(_worker, "_WORKER", recorder)
    return recorder.tasks


def test_threshold_offers_the_worker_no_task(frame64, submitted):
    coeffs = analyze(render(CartoonSpec(kind="disc", antialias=2), 64), frame64)
    tie = np.random.default_rng(30).uniform(-1.0, 1.0, 101)
    tie[44:57:2] = 2.0  # the boundary magnitude at N = 3 to 9
    submitted.clear()
    for c, n in ((coeffs, 64), (coeffs, coeffs.total_count // 4), (toy_coeffs(tie), 5)):
        appr.threshold(c, n)
        assert submitted == [], n


def test_the_verified_selection_offers_the_worker_only_the_tails(frame64, submitted):
    disc = render(CartoonSpec(kind="disc", antialias=2), 64)
    coeffs = analyze(disc, frame64)
    n = coeffs.total_count // 4
    submitted.clear()
    appr.error_curve(disc, frame64, [n], coeffs=coeffs, verify_at=(n,))
    curve_tasks = submitted[:]
    kept = appr.threshold(coeffs, n)
    submitted.clear()
    synthesize(kept, frame64)
    # the tails beside the selection, then what the synthesis shares
    assert curve_tasks == [appr._tails, *submitted]


def test_threshold_stable_tie_break():
    coeffs = toy_coeffs([1.0, 1.0, 1.0, 1.0])
    kept = appr.threshold(coeffs, 2)
    assert np.array_equal(kept.blocks[0], np.array([[1.0, 1.0, 0.0, 0.0]]))


def test_threshold_idempotent_and_nested():
    rng = np.random.default_rng(0)
    coeffs = toy_coeffs(rng.standard_normal(64))
    k8 = appr.threshold(coeffs, 8)
    again = appr.threshold(k8, 8)
    assert np.array_equal(k8.blocks[0], again.blocks[0])
    k16 = appr.threshold(coeffs, 16)
    sup8 = k8.blocks[0] != 0
    sup16 = k16.blocks[0] != 0
    assert np.all(sup16[sup8])


def stable_argsort_mask(mags, n):
    keep = np.zeros(mags.size, dtype=bool)
    keep[np.argsort(-mags, kind="stable")[:n]] = True
    return keep


def test_threshold_matches_stable_argsort_oracle():
    rng = np.random.default_rng(3)
    for case in range(600):
        size = int(rng.integers(1, 200))
        kind = case % 4
        if kind == 0:
            values = rng.standard_normal(size)
        elif kind == 1:  # tie-heavy: few distinct integer magnitudes, both signs
            values = rng.integers(-3, 4, size).astype(float)
        elif kind == 2:
            values = np.full(size, 2.5)
        else:
            values = np.zeros(size)
        split = int(rng.integers(0, size + 1))  # two blocks: ties across blocks
        coeffs = CoefficientSet([(0, 0, 1, split), (1, 0, 1, size - split)], values)
        mags = np.abs(values)
        for n in {1, size, int(rng.integers(1, size + 1))}:
            kept = appr.threshold(coeffs, n)
            mask = kept.values != 0
            want = stable_argsort_mask(mags, n)
            assert np.array_equal(appr._largest_mask(mags, n), want), (case, n)
            assert np.array_equal(mask, want & (mags != 0)), (case, n)


def test_threshold_is_the_oracle_selection_bit_for_bit():
    # kept and dropped -0.0, and ties at the boundary magnitudes 2 and 0
    values = np.array([3.0, -0.0, 2.0, -2.0, 0.0, -0.0, 2.0, 1.0, -0.0, -1.0])
    coeffs = CoefficientSet([(0, 0, 1, 4), (1, 0, 2, 3)], values)
    desc = np.sort(np.abs(values))[::-1]
    shortcut = tie_pass = 0
    for n in range(1, values.size + 1):
        want = np.where(stable_argsort_mask(np.abs(values), n), values, 0.0)
        assert appr.threshold(coeffs, n).values.tobytes() == want.tobytes(), n
        ties = np.count_nonzero(np.abs(values) >= desc[n - 1])
        shortcut, tie_pass = shortcut + (ties == n), tie_pass + (ties > n)
    assert shortcut and tie_pass
    assert np.signbit(appr.threshold(coeffs, 7).values[[1, 5, 8]]).tolist() == [True, False, False]


def test_threshold_into_out_is_the_threshold_bit_for_bit():
    # a stale kept set in out: every entry is written, the dropped ones with 0.0
    values = np.array([3.0, -0.0, 2.0, -2.0, 0.0, -0.0, 2.0, 1.0, -0.0, -1.0])
    coeffs = CoefficientSet([(0, 0, 1, 4), (1, 0, 2, 3)], values)
    out = np.full(values.size, np.nan)
    for n in (7, 1, values.size):
        kept = appr.threshold(coeffs, n, out=out)
        assert kept.values is out
        assert out.tobytes() == appr.threshold(coeffs, n).values.tobytes(), n
    assert coeffs.values.tobytes() == values.tobytes()


def test_threshold_refuses_an_out_that_is_not_float64():
    coeffs = toy_coeffs([5.0, 3.0, 2.0])
    with pytest.raises(ValueError, match="float64 array, got float32"):
        appr.threshold(coeffs, 2, out=np.empty(3, dtype=np.float32))


def test_threshold_refuses_an_out_of_another_shape():
    coeffs = toy_coeffs([5.0, 3.0, 2.0])
    for out in (np.empty(4), np.empty((3, 1))):
        with pytest.raises(ValueError, match=r"shape .*; the kept set needs \(3,\)"):
            appr.threshold(coeffs, 2, out=out)


def test_threshold_refuses_an_out_that_is_not_c_contiguous():
    coeffs = toy_coeffs([5.0, 3.0, 2.0])
    with pytest.raises(ValueError, match="C-contiguous"):
        appr.threshold(coeffs, 2, out=np.empty(6)[::2])


def test_threshold_refuses_an_out_sharing_memory_with_the_coefficients():
    coeffs = toy_coeffs([5.0, -3.0, 2.0, 4.0])
    sub = CoefficientSet([(0, 0, 1, 2)], coeffs.values[:2])
    for c, out in ((coeffs, coeffs.values), (sub, coeffs.values[1:3])):
        with pytest.raises(ValueError, match="shares memory with the coefficients"):
            appr.threshold(c, 1, out=out)
    assert coeffs.values.tolist() == [5.0, -3.0, 2.0, 4.0]


def test_smallest_first_tails_match_exact_sums():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(300) ** 2 * np.exp(20 * rng.standard_normal(300))
    desc = np.sort(values)[::-1]
    for n_max in (0, 1, 17, 299, 300):
        tails = appr._smallest_first_tails(values.copy(), n_max)
        assert len(tails) == n_max + 1
        for n in range(n_max + 1):
            assert tails[n] == pytest.approx(math.fsum(desc[n:]), rel=1e-14, abs=0.0)


def test_smallest_first_tails_are_summed_in_their_input():
    rng = np.random.default_rng(6)
    values = rng.standard_normal(300) ** 2 * np.exp(20 * rng.standard_normal(300))
    for n_max in (0, 1, 17, 299, 300):
        scratch = values.copy()
        tails = appr._smallest_first_tails(scratch, n_max)
        # the tails are a view of the scratch, but where no value is left over to hold the total
        assert np.shares_memory(tails, scratch) == (n_max < values.size), n_max
        # the selection in place gives what a selection on a copy gives
        k = values.size - n_max
        part = np.partition(values, k) if 0 < k < values.size else values
        want = np.cumsum(np.concatenate(([part[:k].sum()], np.sort(part[k:]))))[::-1]
        assert np.array_equal(tails, want)


def test_error_curve_tail_sums(frame64):
    rng = np.random.default_rng(1)
    f = rng.standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    total = coeffs.total_count
    curve = appr.error_curve(f, frame64, [8, 64, 512, total], coeffs=coeffs)
    _, e2 = grid_norms(f, 64)
    assert curve.err2[-1] <= 1e-18 * e2
    assert all(a >= b for a, b in zip(curve.err2, curve.err2[1:]))
    mags2 = np.sort(coeffs.flat_magnitudes() ** 2)[::-1]
    assert curve.err2[0] == pytest.approx(mags2[8:].sum(), rel=1e-12)


def test_error_curve_synthesis_never_exceeds_tail(frame64):
    # dropping coefficients and re-synthesising cannot lose more energy
    # than the dropped coefficients carry (synthesis is a contraction)
    disc = render(CartoonSpec(kind="disc", antialias=2), 64)
    curve = appr.error_curve(disc, frame64, [16, 128, 1024], verify_at=(16, 128, 1024))
    for n, tail in zip(curve.n_terms, curve.err2):
        true = curve.err2_synthesis[n]
        assert true <= tail * (1.0 + 1e-9)
        assert true >= 0.2 * tail  # same order, documented diagnostic


def test_error_curve_rejects_n_below_one(frame64):
    f = np.random.default_rng(4).standard_normal((64, 64))
    with pytest.raises(ValueError, match="N=0"):
        appr.error_curve(f, frame64, [0])
    with pytest.raises(ValueError, match="N=-3"):
        appr.error_curve(f, frame64, [10, -3])


def test_error_curve_counts_must_be_integers(frame64):
    f = np.random.default_rng(4).standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    curve = appr.error_curve(f, frame64, [np.int64(5)], coeffs=coeffs, verify_at=(np.int32(7),))
    assert curve.n_terms == [5] and list(curve.err2_synthesis) == [7]
    with pytest.raises(ValueError, match="n_list entry must be an integer, got 5.5"):
        appr.error_curve(f, frame64, [5.5], coeffs=coeffs)
    with pytest.raises(ValueError, match="verify_at entry must be an integer, got 5.7"):
        appr.error_curve(f, frame64, [5], coeffs=coeffs, verify_at=(5.7,))


def test_error_curve_rejects_n_above_the_coefficient_count(frame64):
    f = np.random.default_rng(4).standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    total = coeffs.total_count
    for n_list, verify_at in (([total + 1], ()), ([4], (total + 1,))):
        with pytest.raises(ValueError, match="exceeds coefficient count"):
            appr.error_curve(f, frame64, n_list, coeffs=coeffs, verify_at=verify_at)


def test_error_curve_verifies_n_outside_the_schedule(frame64, monkeypatch):
    disc = render(CartoonSpec(kind="disc", antialias=2), 64)
    coeffs = analyze(disc, frame64)
    curve = appr.error_curve(disc, frame64, [10], coeffs=coeffs, verify_at=(20,))
    tail20 = math.fsum(np.sort(coeffs.flat_magnitudes() ** 2)[: coeffs.total_count - 20])
    assert curve.n_terms == [10]
    assert 0 < curve.err2_synthesis[20] <= tail20 * (1.0 + 1e-9)
    # a synthesis that loses the whole image must trip the check at N=20
    monkeypatch.setattr(appr, "synthesize", lambda c, frame: np.zeros((64, 64)))
    with pytest.raises(AssertionError, match="N=20"):
        appr.error_curve(disc, frame64, [10], coeffs=coeffs, verify_at=(20,))
    # the failed call left no task behind on the worker: the next one returns
    monkeypatch.undo()
    again = []
    user = threading.Thread(
        target=lambda: again.append(appr.error_curve(disc, frame64, [10], coeffs=coeffs, verify_at=(20,))),
        daemon=True,
    )
    user.start()
    user.join(timeout=60)
    assert not user.is_alive()
    assert again[0].err2 == curve.err2 and again[0].err2_synthesis == curve.err2_synthesis


def serial_tails(values, n_max):
    """One partial selection, the small end summed pairwise, the head added smallest first."""
    squares = np.square(values)
    k = squares.size - n_max
    if 0 < k < squares.size:
        squares.partition(k)
    return np.cumsum(np.concatenate(([squares[:k].sum()], np.sort(squares[k:]))))[::-1]


def test_error_curve_tails_are_the_serial_tails_bit_for_bit(frame64):
    f = np.random.default_rng(19).standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    for n_list in ([1, 7, 300, 2048], [5, coeffs.total_count]):
        curve = appr.error_curve(f, frame64, n_list, coeffs=coeffs, verify_at=(300,))
        tails = serial_tails(coeffs.values, max(n_list + [300]))
        assert curve.err2 == [float(tails[n]) for n in n_list]
        assert curve.metadata["signal_energy"] == float(tails[0])


def test_error_curve_raises_what_the_tails_raise(frame64, monkeypatch):
    f = np.random.default_rng(20).standard_normal((64, 64))

    def broken(values, n_max):
        raise RuntimeError("tails failed")

    monkeypatch.setattr(appr, "_smallest_first_tails", broken)
    with pytest.raises(RuntimeError, match="tails failed"):
        appr.error_curve(f, frame64, [10], verify_at=(10,))


def test_error_curve_waits_for_the_tails_when_the_synthesis_fails(frame64, monkeypatch):
    f = np.random.default_rng(21).standard_normal((64, 64))
    tails = appr._smallest_first_tails
    started, finished = threading.Event(), []

    def slow_tails(values, n_max):
        started.set()
        time.sleep(0.2)
        finished.append(True)
        return tails(values, n_max)

    def lost(coeffs, frame):
        assert started.wait(timeout=60)
        raise MemoryError("synthesis failed")

    monkeypatch.setattr(appr, "_smallest_first_tails", slow_tails)
    monkeypatch.setattr(appr, "synthesize", lost)
    with pytest.raises(MemoryError, match="synthesis failed"):
        appr.error_curve(f, frame64, [10], verify_at=(10,))
    assert finished == [True]


def test_error_curve_checks_the_image_it_verifies_against(frame64):
    f = np.random.default_rng(22).standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    bad = f.copy()
    bad[3, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        appr.error_curve(bad, frame64, [5], coeffs=coeffs, verify_at=(5,))
    with pytest.raises(ValueError, match="does not match grid"):
        appr.error_curve(f[:32, :32], frame64, [5], coeffs=coeffs, verify_at=(5,))
    with pytest.raises(ValueError, match="complex"):
        appr.error_curve(f + 1j * f, frame64, [5], coeffs=coeffs, verify_at=(5,))
    # without verify_at the image is not read
    assert appr.error_curve(bad, frame64, [5], coeffs=coeffs).err2 == appr.error_curve(
        f, frame64, [5], coeffs=coeffs
    ).err2


def test_error_curve_verifies_exactly_the_threshold_synthesis(frame64):
    f = np.random.default_rng(6).standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    for n in (1, 50, 777, coeffs.total_count):
        curve = appr.error_curve(f, frame64, [n], coeffs=coeffs, verify_at=(n,))
        _, want = grid_norms(f - synthesize(appr.threshold(coeffs, n), frame64), 64)
        assert curve.err2_synthesis[n] == want


def test_error_curve_thresholds_and_synthesizes_each_n_once(frame64, monkeypatch):
    f = np.random.default_rng(6).standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    want = appr.error_curve(f, frame64, [20], coeffs=coeffs, verify_at=(20, 7))
    calls = []
    for name in ("threshold", "synthesize"):
        fn = getattr(appr, name)
        monkeypatch.setattr(appr, name, lambda c, x, fn=fn, name=name, **kw: calls.append(name) or fn(c, x, **kw))
    curve = appr.error_curve(f, frame64, [20], coeffs=coeffs, verify_at=(20, 20, 7, 20))
    assert calls == ["threshold", "synthesize"] * 2
    assert list(curve.err2_synthesis.items()) == list(want.err2_synthesis.items())


def test_error_curve_selects_on_magnitudes_not_their_squares(frame64, monkeypatch):
    # magnitudes of 1e-170 and below square to zero: ties the magnitudes lack
    coeffs = analyze(np.random.default_rng(7).standard_normal((64, 64)), frame64)
    top = coeffs.flat_magnitudes().max()
    coeffs = dataclasses.replace(coeffs, values=np.round(coeffs.values / top * 1000.0) * 1e-172)
    mags = coeffs.flat_magnitudes()
    n = 300
    by_mags = np.argsort(-mags, kind="stable")[:n]
    assert not np.array_equal(np.sort(by_mags), np.sort(np.argsort(-(mags**2), kind="stable")[:n]))
    seen = []
    monkeypatch.setattr(appr, "synthesize", lambda c, frame: seen.append(c) or synthesize(c, frame))
    appr.error_curve(np.zeros((64, 64)), frame64, [n], coeffs=coeffs, verify_at=(n,))
    kept = np.flatnonzero(seen[0].values)
    assert np.array_equal(seen[0].values, appr.threshold(coeffs, n).values)
    assert set(kept.tolist()) <= set(by_mags.tolist())


def test_error_curve_analysing_itself_matches_a_given_analysis_bit_for_bit(frame64):
    disc = render(CartoonSpec(kind="disc", antialias=2), 64)
    noise = np.random.default_rng(23).standard_normal((64, 64))
    for img in (disc, noise):
        ns = appr.geometric_schedule(8, analyze(img, frame64).total_count // 4)
        own = appr.error_curve(img, frame64, ns)
        given = appr.error_curve(img, frame64, ns, coeffs=analyze(img, frame64))
        assert np.array(own.err2).tobytes() == np.array(given.err2).tobytes()
        assert own.metadata == given.metadata
        assert own.n_terms == given.n_terms and own.err2_synthesis == given.err2_synthesis == {}


@pytest.mark.parametrize("verify_at", [(), (40,)])
def test_error_curve_never_writes_the_callers_coefficients(frame64, verify_at):
    f = np.random.default_rng(24).standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    before = coeffs.values.tobytes()
    appr.error_curve(f, frame64, [10, 100, coeffs.total_count], coeffs=coeffs, verify_at=verify_at)
    assert coeffs.values.tobytes() == before


def _traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak, above what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_a_self_analysing_error_curve_holds_one_coefficient_array():
    # the rate experiments' call: the curve analyses the image itself and
    # squares that analysis in place, so it peaks where analyze peaks
    cfg = load_defaults()["experiments"]["disc-rate"]
    grid = 256
    frame = DigitalCurveletFrame.build(FrameParams(cfg["s"], 0.5, grid, snapped=True))
    img = render(CartoonSpec(kind="disc", antialias=cfg["antialias"]), grid)
    stop = max(frame.total_coefficients // 4, 64)
    ns = appr.geometric_schedule(min(cfg["schedule_start"], stop), stop)
    coefficient_bytes = 8 * frame.total_coefficients
    analyze_peak = _traced_peak(lambda: analyze(img, frame))
    curve_peak = _traced_peak(lambda: appr.error_curve(img, frame, ns))
    assert curve_peak <= analyze_peak + 0.1 * coefficient_bytes, (
        curve_peak / coefficient_bytes,
        analyze_peak / coefficient_bytes,
    )


@pytest.mark.parametrize("n", [10, 1000, "quarter"])
def test_a_verified_error_curve_holds_two_coefficient_arrays_at_most(n):
    # beside the caller's coefficients: the squares and the kept set while
    # the first selection is made, and the kept set alone in the synthesis
    frame = DigitalCurveletFrame.build(FrameParams(1.0, 0.5, 256, snapped=True))
    f = np.random.default_rng(25).standard_normal((256, 256))
    coeffs = analyze(f, frame)
    n = coeffs.total_count // 4 if n == "quarter" else n
    peak = _traced_peak(lambda: appr.error_curve(f, frame, [n], coeffs=coeffs, verify_at=(n,)))
    assert peak < 2.6 * coeffs.values.nbytes, peak / coeffs.values.nbytes


def test_a_second_verified_error_curve_allocates_no_coefficient_size_array():
    # the first curve grows the frame's work array to the squares and makes
    # its kept-set array; the second finds both and allocates only the mask
    # of the selection and the synthesized image
    frame = DigitalCurveletFrame.build(FrameParams(1.0, 0.5, 256, snapped=True))
    f = np.random.default_rng(25).standard_normal((256, 256))
    coeffs = analyze(f, frame)
    first = appr.error_curve(f, frame, [10], coeffs=coeffs, verify_at=(10,))
    peak = _traced_peak(lambda: appr.error_curve(f, frame, [10], coeffs=coeffs, verify_at=(10,)))
    assert peak < 0.5 * coeffs.values.nbytes, peak / coeffs.values.nbytes
    second = appr.error_curve(f, frame, [10], coeffs=coeffs, verify_at=(10,))
    assert (first.err2, first.err2_synthesis) == (second.err2, second.err2_synthesis)


def test_a_warm_verified_curve_allocates_no_array_of_the_tails_size(monkeypatch):
    # the tails are summed in their squares, and read into floats before the synthesis
    frame = DigitalCurveletFrame.build(FrameParams(1.0, 0.5, 128, snapped=True))
    f = np.random.default_rng(32).standard_normal((128, 128))
    coeffs = analyze(f, frame)
    n = coeffs.total_count // 4
    first = appr.error_curve(f, frame, [n], coeffs=coeffs, verify_at=(n,))  # grows the work array
    sizes = []

    def traced(fn):
        def run(*args):
            sizes.append({t.size for t in tracemalloc.take_snapshot().traces})
            result = fn(*args)
            sizes.append({t.size for t in tracemalloc.take_snapshot().traces})
            return result

        return run

    monkeypatch.setattr(appr, "_smallest_first_tails", traced(appr._smallest_first_tails))
    monkeypatch.setattr(appr, "synthesize", traced(appr.synthesize))
    tracemalloc.start()
    try:
        curve = appr.error_curve(f, frame, [n], coeffs=coeffs, verify_at=(n,))
    finally:
        tracemalloc.stop()
    assert len(sizes) == 4 and not any(8 * (n + 1) in s for s in sizes)
    assert (curve.err2, curve.err2_synthesis) == (first.err2, first.err2_synthesis)


def test_error_curve_tail_far_below_signal_energy():
    # the tail here is ~1e-13 of the signal energy: energy - cumsum cancels
    # to rounding noise there, the smallest-first sum does not
    grid, n = 256, 17959
    frame = DigitalCurveletFrame.build(FrameParams.nyquist_snapped(1.0, 0.5, grid))
    img = render(CartoonSpec(kind="smooth_bump", beta=3, nu=10.0), grid)
    coeffs = analyze(img, frame)
    curve = appr.error_curve(img, frame, [n], coeffs=coeffs, verify_at=(n,))
    tail = math.fsum(np.sort(coeffs.flat_magnitudes() ** 2)[: coeffs.total_count - n])
    assert tail < 1e-11 * curve.metadata["signal_energy"]
    assert curve.err2[0] == pytest.approx(tail, rel=1e-12)
    assert curve.err2_synthesis[n] <= tail * (1.0 + 1e-9)


def test_fit_rate_exact_power_law():
    n = [2**k for k in range(4, 16)]
    curve = appr.ErrorCurve(n_terms=n, err2=[float(v) ** -2 for v in n], metadata={})
    fit = appr.fit_rate(curve, window=(16, 2**15))
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.residual <= 1e-12


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(2)
    n = np.unique(np.geomspace(32, 65536, 40).astype(int))
    base = 3.0 * n.astype(float) ** -1.5
    noisy = np.sort(base * (1.0 + 0.01 * rng.standard_normal(len(n))))[::-1]
    curve = appr.ErrorCurve(n_terms=list(n), err2=list(noisy), metadata={})
    fit = appr.fit_rate(curve, window=(32, 65536))
    assert abs(fit.slope + 1.5) <= 0.05


def test_fit_rate_errors():
    curve = appr.ErrorCurve(n_terms=[10, 100], err2=[1.0, 0.1], metadata={})
    with pytest.raises(ValueError):
        appr.fit_rate(curve, window=(10, 100))
    n = [2**k for k in range(5, 12)]
    zero = appr.ErrorCurve(n_terms=n, err2=[1.0] * (len(n) - 1) + [0.0], metadata={})
    with pytest.raises(ValueError):
        appr.fit_rate(zero, window=(32, 2048))


def test_error_curve_monotonicity_validation():
    with pytest.raises(ValueError):
        appr.ErrorCurve(n_terms=[10, 10], err2=[1.0, 0.5], metadata={})
    with pytest.raises(ValueError):
        appr.ErrorCurve(n_terms=[10, 20], err2=[0.5, 1.0], metadata={})


def test_apriori_check_vacuous_for_zero_image(frame64):
    coeffs = analyze(np.zeros((64, 64)), frame64)
    out = appr.apriori_decay_check(coeffs, frame64.params, fit_scales=(2, 3))
    assert out["verdict"] == "vacuous"
    assert out["slope"] is None


def test_apriori_check_reports_bounded_constants():
    params = FrameParams.nyquist_snapped(1.0, 0.5, 256)
    frame = DigitalCurveletFrame.build(params)
    disc = render(CartoonSpec(kind="disc", antialias=4), 256)
    coeffs = analyze(disc, frame)
    out = appr.apriori_decay_check(coeffs, params, fit_scales=(2, params.j_max - 1))
    assert out["slope"] < -0.4
    consts = [c for _, c in out["constants"]]
    assert max(consts) / max(min(consts), 1e-12) < 50


def test_apriori_check_needs_three_scales(frame64):
    coeffs = analyze(np.random.default_rng(5).standard_normal((64, 64)), frame64)
    with pytest.raises(ValueError, match="fewer than 3"):
        appr.apriori_decay_check(coeffs, frame64.params, fit_scales=(2, 3))


def test_apriori_target_follows_the_given_params():
    # an alpha-0 frame: the target is -s*(1+alpha)/2 = -0.5, also for a set
    # rebuilt from its table and values
    params = FrameParams.nyquist_snapped(1.0, 0.0, 256)
    frame = DigitalCurveletFrame.build(params)
    coeffs = analyze(render(CartoonSpec(kind="disc", antialias=2), 256), frame)
    scales = (2, params.j_max - 1)
    out = appr.apriori_decay_check(coeffs, params, fit_scales=scales)
    rebuilt = CoefficientSet(coeffs.wedge_table, coeffs.values)
    assert out["target"] == -0.5
    assert appr.apriori_decay_check(rebuilt, params, fit_scales=scales) == out


def test_bound1_estimator_slope_and_degeneracy():
    curve = appr.bound1_tail_estimator(FrameParams(s=1.0, alpha=0.5, grid_n=1024))
    counts = curve.metadata["scale_tile_counts"]
    fit = appr.fit_rate(curve, window=(sum(counts[:3]), sum(counts[:-1])))
    assert -2.3 <= fit.slope <= -1.7
    assert curve.metadata["degenerate_n"] == [curve.metadata["tile_count"]]
    assert curve.err2[-1] == 0.0
    per_tile = np.sort(np.repeat(curve.metadata["scale_energies"], counts))
    for n, e in zip(curve.n_terms[:-1], curve.err2[:-1]):
        assert e == pytest.approx(math.fsum(per_tile[: per_tile.size - n]), rel=1e-12)


def test_bound1_estimator_never_exceeds_digital_error():
    n = 256
    frame = DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=n))
    disc = render(CartoonSpec(kind="disc", antialias=4), n)
    bound = appr.bound1_tail_estimator(frame.params)
    usable = [m for m in bound.n_terms if m < bound.metadata["tile_count"]]
    curve = appr.error_curve(disc, frame, usable)
    for b, e in zip(bound.err2, curve.err2):
        assert b <= 1.1 * e


def test_generator_decay_all_flags(frame64):
    table = appr.generator_decay_check(frame64.params, probe_step=0.005)
    assert len(table) == frame64.params.j_max + 1
    for entry in table:
        assert entry["support_ok"]
        assert entry["inner_zero_ok"]
        assert entry["sup"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
def test_generator_decay_refuses_a_probe_step_that_is_not_positive_and_finite(frame64, step):
    with pytest.raises(ValueError, match="probe_step must be positive and finite"):
        appr.generator_decay_check(frame64.params, probe_step=step)


@pytest.mark.parametrize("step", [1e-300, 0.0008])
def test_generator_decay_refuses_a_probe_grid_above_the_point_limit(frame64, step):
    # the packaged step gives (1.2/0.001 + 1)^2 = 1201^2 points, below the limit
    appr._check_probe_step(load_defaults()["experiments"]["generator-decay"]["probe_step"])
    with pytest.raises(ValueError, match="above PROBE_POINT_LIMIT = 2000000"):
        appr.generator_decay_check(frame64.params, probe_step=step)


def test_straight_edge_sorted_coefficient_decay():
    n = 512
    spec = CartoonSpec(kind="half_space", phi=0.9272952180016122, c=0.13, beta=2, nu=60.0, antialias=8)
    img = render(spec, n)
    frame = DigitalCurveletFrame.build(FrameParams.nyquist_snapped(1.0, 0.5, n))
    coeffs = analyze(img, frame)
    m2 = np.sort(coeffs.flat_magnitudes() ** 2)[::-1]
    rel = 1.0 - np.cumsum(m2) / m2.sum()
    lo = int(np.searchsorted(-rel, -2e-3)) + 1
    hi = int(np.searchsorted(-rel, -3e-6)) + 1
    ranks = np.unique(np.geomspace(lo, hi, 40).astype(int))
    slope = np.polyfit(np.log(ranks), np.log(m2[ranks - 1]), 1)[0]
    assert slope <= -(1.0 + 1.0 / 0.5) + 0.35


def test_geometric_schedule():
    sched = appr.geometric_schedule(32, 1024)  # half-octave steps
    assert sched == [32, 45, 64, 91, 128, 181, 256, 362, 512, 724, 1024]
    assert appr.geometric_schedule(10, 11)[-1] == 11
    with pytest.raises(ValueError):
        appr.geometric_schedule(0, 10)
    assert appr.geometric_schedule(np.int64(2), np.int32(10)) == [2, 3, 4, 6, 8, 10]
    for args, name in (((2, 10.7), "stop"), ((1.5, 10), "start"), (("5", 10), "start"), ((1, "5"), "stop")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            appr.geometric_schedule(*args)


def test_level_window():
    n = [2**k for k in range(5, 21)]
    curve = appr.ErrorCurve(
        n_terms=n,
        err2=[10.0 * float(v) ** -2 for v in n],
        metadata={"signal_energy": 10.0},
    )
    # rel(N) = N**-2: the 1e-3 level sits below N=32, the 1e-7 level
    # between 2048 and 4096
    assert appr.level_window(curve, rel_hi=1e-3, rel_lo=1e-7) == (32, 2048)
    with pytest.raises(ValueError):
        appr.level_window(curve, rel_hi=1e-9, rel_lo=1e-7)
    # both levels between the same two N give an empty window
    with pytest.raises(ValueError, match="degenerate"):
        appr.level_window(curve, rel_hi=2e-7, rel_lo=1.5e-7)
    # the levels are relative to the signal energy, which the curve must carry
    bare = appr.ErrorCurve(n_terms=curve.n_terms, err2=curve.err2, metadata={})
    with pytest.raises(ValueError, match="signal_energy"):
        appr.level_window(bare, rel_hi=1e-3, rel_lo=1e-7)
    # an all-zero image's curve carries energy 0, which no level can be relative to
    dark = appr.ErrorCurve(n_terms=curve.n_terms, err2=[0.0] * len(n), metadata={"signal_energy": 0.0})
    with pytest.raises(appr.FitWindowError, match="the image has no energy"):
        appr.level_window(dark, rel_hi=1e-3, rel_lo=1e-7)


@pytest.mark.parametrize("rel_hi, rel_lo", [(math.nan, 1e-3), (0.1, math.nan)])
def test_level_window_refuses_a_nan_level(rel_hi, rel_lo):
    # rel_lo >= rel_hi is false for a NaN: these gave the windows (1, 31) and (3, 199)
    n = list(range(1, 200))
    curve = appr.ErrorCurve(n_terms=n, err2=[float(v) ** -2 for v in n], metadata={"signal_energy": 1.0})
    with pytest.raises(ValueError, match=rf"need rel_lo < rel_hi, got rel_lo={rel_lo!r}, rel_hi={rel_hi!r}"):
        appr.level_window(curve, rel_hi, rel_lo)


def test_error_curve_json_carries_metadata_and_verified_points(frame64):
    import json

    disc = render(CartoonSpec(kind="disc", antialias=2), 64)
    curve = appr.error_curve(disc, frame64, [4, 16], verify_at=(16,))
    _, energy = grid_norms(disc, 64)
    assert curve.n_terms == [4, 16]
    # plain Python values, so a report can write them as they are
    assert json.loads(json.dumps(curve.metadata)) == curve.metadata
    assert curve.metadata == {
        "grid_n": 64,
        "s": 1.0,
        "alpha": 0.5,
        "total_coefficients": analyze(disc, frame64).total_count,
        "signal_energy": pytest.approx(energy, rel=1e-10),
    }
    assert list(curve.err2_synthesis) == [16]
    assert curve.err2_synthesis[16] <= curve.err2[1] * (1.0 + 1e-9)


def test_rate_report_serialization():
    # reports write the fit's __dict__ into their JSON results
    import json

    n = [2**k for k in range(4, 16)]
    curve = appr.ErrorCurve(n_terms=n, err2=[float(v) ** -2 for v in n], metadata={})
    fit = appr.fit_rate(curve, window=(16, 2**15))
    doc = json.loads(json.dumps(fit.__dict__))
    assert doc["slope"] == pytest.approx(-2.0)
    assert doc["window"] == [16, 2**15]
    assert sorted(doc) == ["intercept", "n_points", "residual", "slope", "window"]


def test_fit_scale_slope_onset_detection():
    scales = list(range(1, 11))
    # head deviates strongly, tail follows 2^-1.5j with mild stairs
    vals = [1.0, 0.9] + [2.0 ** (-1.5 * j + 0.2 * (j % 2)) for j in scales[2:]]
    out = appr.fit_scale_slope(scales, vals)
    assert out["onset"] >= 3
    assert abs(out["slope"] + 1.5) <= 0.2


def test_fit_scale_slope_falls_back_to_the_finest_scales():
    scales = list(range(1, 9))
    # a +-1 zigzag in log2 leaves every fit above the onset tolerance
    vals = [2.0 ** (-j + (1.0 if j % 2 else -1.0)) for j in scales]
    out = appr.fit_scale_slope(scales, vals)
    assert (out["onset"], out["n_points"]) == (5, 4)
    assert out["slope"] == pytest.approx(-1.4)
    assert out["max_residual"] == pytest.approx(1.2)
    with pytest.raises(ValueError, match="3 scales given"):
        appr.fit_scale_slope([1, 2, 3], [1.0, 0.5, 0.25])


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_fit_scale_slope_refuses_a_value_that_is_not_positive(bad):
    # log2 of it would warn and fit -inf or nan
    with pytest.raises(ValueError, match="must be positive"):
        appr.fit_scale_slope([1, 2, 3, 4], [1.0, 0.5, bad, 0.1])
