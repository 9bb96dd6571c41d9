import collections
import math
import os
import signal
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from alphacurvelets import _worker, tiling, transform
from alphacurvelets.approximation import atom_l1_decay
from alphacurvelets.tiling import FrameParams, verify_partition
from alphacurvelets.transform import (
    CoefficientSet,
    DigitalCurveletFrame,
    analyze,
    analyze_direct,
    curvelet_atom,
    grid_norms,
    synthesize,
)


@pytest.fixture(scope="module")
def frame64():
    return DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=64))


@pytest.fixture(scope="module")
def frame128():
    return DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=128))


@pytest.fixture(scope="module")
def frame256s():
    return DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=256, snapped=True))


def force_threads(monkeypatch, threaded):
    """Make every transform share its tiles with the worker thread, or none."""
    least = 0 if threaded else 2**62
    monkeypatch.setattr(transform, "THREAD_MIN_COEFFICIENTS", least)
    monkeypatch.setattr(transform, "THREAD_MIN_MEAN_BOX", 0)


# the frames as built (one thread below the size cutoff, two above it) and
# with the other choice forced, so both code paths run on each side of it
FRAMES = ["frame64", "frame128", "frame256s", "frame64_split", "frame128_split", "frame256s_one_thread"]


def frame_named(request, name):
    base, _, forced = name.partition("_")
    if forced:
        force_threads(request.getfixturevalue("monkeypatch"), forced == "split")
    return request.getfixturevalue(base)


def one_thread(fn, *args):
    """``fn(*args)`` with every tile on the calling thread."""
    with pytest.MonkeyPatch.context() as mp:
        force_threads(mp, False)
        return fn(*args)


def quad_inner(a, b, n):
    return float(np.sum(a * np.conj(b)).real) * (2.0 / n) ** 2


def test_zero_image_gives_zero_blocks(frame64):
    coeffs = analyze(np.zeros((64, 64)), frame64)
    assert all(np.all(b == 0) for b in coeffs.blocks)
    assert coeffs.total_energy == 0.0


@pytest.mark.parametrize("s,alpha", [(1.0, 0.5), (1.0, 0.25), (0.7, 0.6)])
def test_parseval_and_reconstruction(s, alpha):
    frame = DigitalCurveletFrame.build(FrameParams(s=s, alpha=alpha, grid_n=64))
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.standard_normal((64, 64))
        coeffs = analyze(f, frame)
        _, e2 = grid_norms(f, 64)
        assert abs(coeffs.total_energy - e2) <= 1e-10 * e2
        rec = synthesize(coeffs, frame)
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)


def test_supports_are_scanned_once_and_shared(monkeypatch):
    scan = tiling._scan_supports
    calls = []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(tiling, "_scan_supports", counted)
    p = FrameParams(s=1.0, alpha=0.5, grid_n=64)
    frame = DigitalCurveletFrame.build(p)
    dev = verify_partition(frame.layout)
    assert len(calls) == 1
    assert frame._caches is frame.layout.wedges
    # the half-spectrum sum gives the maximum over the whole lattice
    acc = np.zeros(64 * 64)
    for sup in frame._caches:
        k1, k2, window = sup.support()
        acc[(k1 % 64) * 64 + (k2 % 64)] += window**2
    assert frame.partition_deviation == dev == float(np.abs(acc - 1.0).max())


def test_build_rejects_a_colliding_wrap_box(monkeypatch):
    monkeypatch.setattr(tiling, "_wrap_families", lambda k1, k2, grid_n: ((2, 2), (2, 2)))
    with pytest.raises(RuntimeError, match="wrap collision"):
        DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=64))


def test_build_rejects_a_colliding_box_taken_across_the_transpose(monkeypatch):
    # the second family becomes a box two rows high of the first's area:
    # each tile that searches keeps the first on the tie, and its transpose
    # partner takes the other swapped, two columns wide; the partner of
    # tile (1, 0), long along k2, collides on it
    families = tiling._wrap_families

    def narrow_second(k1, k2, grid_n):
        (P1, P2), _ = families(k1, k2, grid_n)
        return (P1, P2), (2, P1 * P2 // 2)

    monkeypatch.setattr(tiling, "_wrap_families", narrow_second)
    p = FrameParams.nyquist_snapped(1.0, 0.0, 64)  # scale 1 is not empty on this ladder
    L = p.tile_count(1)
    with pytest.raises(RuntimeError, match=rf"^wrap collision in tile \(1, {-(L // 2)}\)$"):
        DigitalCurveletFrame.build(p)


def test_build_rejects_a_broken_partition(monkeypatch):
    scan = tiling._scan_supports

    def corrupted(*args):
        supports = scan(*args)
        j, ell, grid_flat, window = supports[0]
        supports[0] = (j, ell, grid_flat, 1.01 * window)
        return supports

    monkeypatch.setattr(tiling, "_scan_supports", corrupted)
    with pytest.raises(RuntimeError, match="window partition deviates"):
        DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=64))


def test_linearity(frame64):
    rng = np.random.default_rng(4)
    f = rng.standard_normal((64, 64))
    g = rng.standard_normal((64, 64))
    ca = analyze(2.5 * f - 1.25 * g, frame64)
    cf = analyze(f, frame64)
    cg = analyze(g, frame64)
    scale = math.sqrt(cf.total_energy)
    for a, b, c in zip(ca.blocks, cf.blocks, cg.blocks):
        assert np.allclose(a, 2.5 * b - 1.25 * c, atol=1e-12 * scale)


def test_single_mode_lights_only_covering_wedges(frame128):
    # place one lattice mode in the flat core of a mid-scale wedge: only
    # tiles whose support contains the mode may carry coefficients
    frame = frame128
    n = 128
    target = None
    for i, c in enumerate(frame._caches):
        sk1, sk2, window = c.support()
        if c.j == 5 and c.ell == 0 and window.size:
            w1 = np.argmax(window)
            if window[w1] > 0.999999:
                target = (i, sk1[w1], sk2[w1])
    assert target is not None
    i0, k1, k2 = target
    x = np.arange(n)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    f = np.cos(2 * np.pi * (k1 * X1 + k2 * X2) / n + 0.37)
    coeffs = analyze(f, frame)
    covering = set()
    for i, c in enumerate(frame._caches):
        sk1, sk2, _ = c.support()
        if np.any((sk1 == k1) & (sk2 == k2)) or np.any((sk1 == -k1) & (sk2 == -k2)):
            covering.add(i)
    assert i0 in covering
    for i, b in enumerate(coeffs.blocks):
        energy = float(np.sum(np.abs(b) ** 2))
        if i in covering:
            continue
        assert energy <= 1e-22 * coeffs.total_energy


def test_delta_image_reconstruction(frame64):
    f = np.zeros((64, 64))
    f[10, 50] = 1.0
    rec = synthesize(analyze(f, frame64), frame64)
    assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)


def test_direct_oracle_equivalence_all_wedges(frame64, frame128):
    # the oracle sums the complex formula; the fast path's blocks are real
    for frame in (frame64, frame128):
        n = frame.params.grid_n
        f = np.random.default_rng(5).standard_normal((n, n))
        coeffs = analyze(f, frame)
        for i, block in enumerate(coeffs.blocks):
            assert block.dtype == np.float64
            direct = analyze_direct(f, frame, i)
            ref = max(np.linalg.norm(direct), 1e-300)
            assert np.linalg.norm(direct.imag) <= 1e-12 * ref
            assert np.linalg.norm(block - direct.real) <= 1e-12 * ref


def test_frame_reaching_the_nyquist_edge_stays_real_and_exact():
    # this snapped ladder's top corona reaches (0, -32) and (-32, 0), points
    # that are their own mirrors; their wrap periods divide the grid
    frame = DigitalCurveletFrame.build(FrameParams.nyquist_snapped(0.75, 0.5, 64))
    reached = [
        i
        for i, c in enumerate(frame._caches)
        if c.j <= frame.params.j_max and np.any(np.stack(c.support()[:2]) == -32)
    ]
    assert reached
    f = np.random.default_rng(15).standard_normal((64, 64))
    coeffs = analyze(f, frame)
    for i in reached:
        direct = analyze_direct(f, frame, i)
        ref = np.linalg.norm(direct)
        assert np.linalg.norm(coeffs.blocks[i] - direct) <= 1e-12 * ref
    _, e2 = grid_norms(f, 64)
    assert abs(coeffs.total_energy - e2) <= 1e-10 * e2
    assert np.linalg.norm(synthesize(coeffs, frame) - f) <= 1e-10 * np.linalg.norm(f)


def test_nyquist_edge_widens_a_wrap_period_that_does_not_divide_the_grid():
    # here the wrap search gives tile (11, -64), which holds (0, -128), the
    # periods (6, 146); the fold of that point's mirror (0, 128) is then not
    # its mirrored box position, so the period across the edge becomes 256
    frame = DigitalCurveletFrame.build(
        FrameParams.nyquist_snapped(0.5242541429599622, -0.16941813270624814, 256)
    )
    c = frame._caches[frame.wedge_index(11, -64)]
    assert (c.P1, c.P2) == (6, 256)
    f = np.random.default_rng(16).standard_normal((256, 256))
    coeffs = analyze(f, frame)
    _, e2 = grid_norms(f, 256)
    assert abs(coeffs.total_energy - e2) <= 1e-10 * e2
    assert np.linalg.norm(synthesize(coeffs, frame) - f) <= 1e-10 * np.linalg.norm(f)


def test_direct_oracle_by_index_pair(frame64):
    rng = np.random.default_rng(6)
    f = rng.standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    i = frame64.wedge_index(4, 1)
    direct = analyze_direct(f, frame64, i)
    assert np.allclose(coeffs.blocks[i], direct, atol=1e-11)
    # any integer index, numpy's included, selects the same tile
    assert np.array_equal(analyze_direct(f, frame64, np.int64(i)), direct)
    with pytest.raises(TypeError):
        analyze_direct(f, frame64, (4, 1))


def test_direct_oracle_zero_image(frame64):
    block = analyze_direct(np.zeros((64, 64)), frame64, frame64.wedge_index(3, 0))
    assert np.all(block == 0)


def test_direct_oracle_refuses_large_grids():
    frame = DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=256))
    with pytest.raises(ValueError):
        analyze_direct(np.zeros((256, 256)), frame, frame.wedge_index(3, 0))


def test_synthesis_is_adjoint(frame64):
    # the adjoint on the frame's real coefficient space
    rng = np.random.default_rng(7)
    f = rng.standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    other = CoefficientSet(coeffs.wedge_table, rng.standard_normal(coeffs.total_count))
    lhs = float(np.dot(coeffs.values, other.values))
    rhs = quad_inner(f, synthesize(other, frame64), 64)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_analyze_synthesize_is_projection(frame64):
    rng = np.random.default_rng(8)
    coeffs = analyze(rng.standard_normal((64, 64)), frame64)
    arb = CoefficientSet(coeffs.wedge_table, rng.standard_normal(coeffs.total_count))
    once = analyze(synthesize(arb, frame64), frame64)
    twice = analyze(synthesize(once, frame64), frame64)
    assert np.linalg.norm(once.values - twice.values) <= 1e-10 * np.linalg.norm(once.values)


def test_synthesize_rejects_complex_blocks(frame64):
    coeffs = analyze(np.random.default_rng(9).standard_normal((64, 64)), frame64)
    i = frame64.wedge_index(3, 1)
    values = coeffs.values.astype(complex)
    values[coeffs.offsets[i] + 1 :] += 1e-3j  # tile (3, 1) is the first with an imaginary part
    with pytest.raises(ValueError, match=r"tile \(3, 1\) is complex"):
        synthesize(CoefficientSet(coeffs.wedge_table, values), frame64)
    # a zero imaginary part loses nothing: the set keeps the real parts
    real = CoefficientSet(coeffs.wedge_table, coeffs.values.astype(complex))
    assert real.values.dtype == np.float64
    assert np.array_equal(synthesize(real, frame64), synthesize(coeffs, frame64))
    with pytest.raises(ValueError, match="do not match"):
        CoefficientSet(coeffs.wedge_table, coeffs.values[:-1])


def test_synthesize_rejects_the_coefficients_of_another_frame(frame64, frame128):
    coeffs = analyze(np.random.default_rng(9).standard_normal((64, 64)), frame64)
    with pytest.raises(ValueError, match="do not match the frame's tile boxes"):
        synthesize(coeffs, frame128)


def test_atom_spectrum_confined_to_support(frame64):
    for mu in ((0, 0, (0, 0)), (4, -2, (3, 1)), (5, 0, (7, 2))):
        atom = curvelet_atom(frame64, mu)
        assert atom.dtype == np.float64
        F = np.fft.fft2(atom).ravel()
        k1, k2, _ = frame64._caches[frame64.wedge_index(mu[0], mu[1])].support()
        mask = np.ones(64 * 64, dtype=bool)
        mask[(k1 % 64) * 64 + (k2 % 64)] = False
        outside = np.sum(np.abs(F[mask]) ** 2)
        total = np.sum(np.abs(F) ** 2)
        assert outside <= 1e-20 * total


def test_atom_l2_norms_bounded(frame128):
    norms = []
    for c in frame128._caches:
        if c.n_spectrum == 0 or c.j > frame128.params.j_max:
            continue
        atom = curvelet_atom(frame128, (c.j, c.ell, (c.P1 // 2, c.P2 // 2)))
        _, e2 = grid_norms(atom, 128)
        norms.append(math.sqrt(e2))
    norms = np.array(norms)
    assert norms.min() >= 0.15
    assert norms.max() <= 1.0 + 1e-12


def test_atom_l1_norm_decay_slope():
    params = FrameParams.nyquist_snapped(1.0, 0.5, 256)
    frame = DigitalCurveletFrame.build(params)
    res = atom_l1_decay(frame)
    target = -params.s * (1.0 + params.alpha) / 2.0
    assert res["l1_slope"] is not None
    assert abs(res["l1_slope"] - target) <= 0.25


def test_atom_l1_decay_skips_scales_with_an_empty_tile(frame64):
    # at grid 64 with the default corona unit, tiles (1, 0) and (2, 0) hold no lattice point
    assert [frame64._caches[frame64.wedge_index(j, 0)].n_spectrum for j in (1, 2)] == [0, 0]
    assert [r["j"] for r in atom_l1_decay(frame64)["rows"]] == [0, 3, 4, 5, 6]


def test_atom_invalid_index(frame64):
    with pytest.raises(KeyError):
        curvelet_atom(frame64, (2, 57, (0, 0)))


def test_analyze_input_validation(frame64):
    with pytest.raises(ValueError):
        analyze(np.zeros((32, 32)), frame64)
    bad = np.zeros((64, 64))
    bad[5, 5] = np.nan
    with pytest.raises(ValueError):
        analyze(bad, frame64)


def test_total_energy_matches_quadrature_norm(frame64):
    rng = np.random.default_rng(11)
    f = rng.standard_normal((64, 64))
    coeffs = analyze(f, frame64)
    _, e2 = grid_norms(f, 64)
    assert coeffs.total_energy == pytest.approx(e2, rel=1e-10)


@pytest.mark.parametrize("fixture", FRAMES)
def test_analyze_is_the_per_tile_formula_bit_for_bit(fixture, request):
    frame = frame_named(request, fixture)
    n = frame.params.grid_n
    f = np.random.default_rng(14).standard_normal((n, n))
    F = np.fft.rfft2(f).ravel()
    blocks = analyze(f, frame).blocks
    for c, block in zip(frame._caches, blocks):
        vals = F[c.grid_flat] * c.window
        vals[c.n_direct :] = np.conj(vals[c.n_direct :])
        H = np.zeros(c.P1 * (c.P2 // 2 + 1), dtype=complex)
        H[c.box_flat] = vals
        H = H.reshape(c.P1, c.P2 // 2 + 1)
        want = (frame.sigma * math.sqrt(c.P1 * c.P2)) * np.fft.irfft2(H, s=(c.P1, c.P2))
        assert np.array_equal(block, want)
    # the scratch arrays are reused per tile: no block may alias them
    for a, b in zip(blocks, blocks[1:]):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("fixture", FRAMES)
def test_synthesize_is_the_per_tile_formula_bit_for_bit(fixture, request):
    frame = frame_named(request, fixture)
    n = frame.params.grid_n
    coeffs = analyze(np.random.default_rng(16).standard_normal((n, n)), frame)
    for block in coeffs.blocks[1::4]:  # some dead tiles; the live ones keep frame256s on two threads
        block[...] = 0.0
    live = [c for c, block in zip(frame._caches, coeffs.blocks) if np.any(block)]
    assert transform._worth_two_threads(live) == (fixture in ("frame256s", "frame64_split", "frame128_split"))
    # one thread, tile order, one += per live tile
    Facc = np.zeros(n * (n // 2 + 1), dtype=complex)
    for c, block in zip(frame._caches, coeffs.blocks):
        if not np.any(block):
            continue
        ns = c.n_spectrum
        v = np.fft.rfft2(block).ravel()[c.box_flat[:ns]] / math.sqrt(c.P1 * c.P2)
        v[c.n_direct :] = np.conj(v[c.n_direct :])
        Facc[c.grid_flat[:ns]] += v * c.window[:ns]
    want = (n * n / 2.0) * np.fft.irfft2(Facc.reshape(n, n // 2 + 1), s=(n, n))
    assert np.array_equal(synthesize(coeffs, frame), want)


def test_the_two_pass_ffts_are_the_2d_wrappers_bit_for_bit():
    # every box shape of a grid-512 frame, and the grid itself
    frame = DigitalCurveletFrame.build(FrameParams.nyquist_snapped(1.0, 0.5, 512))
    shapes = sorted({(c.P1, c.P2) for c in frame._caches} | {(512, 512)})
    assert len(shapes) > 10
    rng = np.random.default_rng(27)
    for P1, P2 in shapes:
        x = rng.standard_normal((P1, P2))
        F = transform._rfft2(x, np.empty((P1, P2 // 2 + 1), dtype=complex))
        assert np.array_equal(F, np.fft.rfft2(x)), (P1, P2)
        H = rng.standard_normal((P1, P2 // 2 + 1)) + 1j * rng.standard_normal((P1, P2 // 2 + 1))
        want = np.fft.irfft2(H, s=(P1, P2))
        assert np.array_equal(transform._irfft2(H, np.empty((P1, P2))), want), (P1, P2)


@pytest.mark.parametrize("worker", ["InlineWorker", "LateWorker"])
def test_transforms_are_the_same_whichever_thread_takes_the_tiles(frame256s, worker, stand_in):
    f = np.random.default_rng(23).standard_normal((256, 256))
    want = one_thread(analyze, f, frame256s)
    stand_in(worker)
    coeffs = analyze(f, frame256s)
    assert np.array_equal(coeffs.values, want.values)
    assert np.array_equal(synthesize(coeffs, frame256s), one_thread(synthesize, want, frame256s))


def callers_tiles(monkeypatch):
    """The list that records each tile the calling thread takes, in order."""
    taking, taken = _worker._taking, []

    def recording(take):
        for i in taking(take):
            if take.__name__ == "pop":  # the calling thread's end of the deque
                taken.append(i)
            yield i

    monkeypatch.setattr(_worker, "_taking", recording)
    return taken


@pytest.mark.parametrize("fixture", ["frame256s", "frame256s_one_thread"])
def test_the_calling_thread_takes_the_last_tile_first(fixture, request, monkeypatch, stand_in):
    frame = frame_named(request, fixture)
    f = np.random.default_rng(24).standard_normal((256, 256))
    want = one_thread(analyze, f, frame)
    worker = stand_in("RecordingWorker")
    taken = callers_tiles(monkeypatch)
    coeffs = analyze(f, frame)
    assert taken == list(range(len(frame._caches)))[::-1]
    assert np.array_equal(coeffs.values, want.values)
    taken.clear()
    coeffs.blocks[-1][...] = 0.0  # a dead closure: the caller starts with the last live tile
    rec = synthesize(coeffs, frame)
    assert taken == list(range(len(frame._caches) - 1))[::-1]
    assert np.array_equal(rec, one_thread(synthesize, coeffs, frame))
    two = fixture == "frame256s"
    assert worker.tasks == two * [transform._analyze_tiles, transform._add_spectra]


def test_the_worker_never_takes_the_last_tile(frame256s, monkeypatch, stand_in):
    # the worker's scratch in analyze need not fit the last tile, the largest
    f = np.random.default_rng(25).standard_normal((256, 256))
    want = one_thread(analyze, f, frame256s)
    stand_in("InlineWorker")
    taken = callers_tiles(monkeypatch)
    coeffs = analyze(f, frame256s)
    assert taken == [len(frame256s._caches) - 1]
    assert np.array_equal(coeffs.values, want.values)
    coeffs.blocks[-1][...] = 0.0
    want = one_thread(synthesize, coeffs, frame256s)
    taken.clear()
    assert np.array_equal(synthesize(coeffs, frame256s), want)
    assert taken == [len(frame256s._caches) - 2]


def test_small_frames_keep_one_thread_and_large_ones_take_two(frame64, frame128, frame256s):
    assert not transform._worth_two_threads(frame64._caches)
    assert not transform._worth_two_threads(frame128._caches)
    assert transform._worth_two_threads(frame256s._caches)


def test_the_thread_cutoff_sits_at_both_sizes():
    def threaded(*boxes):
        return transform._worth_two_threads([SimpleNamespace(P1=1, P2=b) for b in boxes])

    least = transform.THREAD_MIN_COEFFICIENTS
    assert threaded(least // 2, least // 2)
    assert not threaded(least // 2, least // 2 - 1)
    box = transform.THREAD_MIN_MEAN_BOX
    many = 2 * least // box
    assert threaded(*[box] * many)
    assert not threaded(*[box] * (many - 1), box - 1)


def test_two_threads_taking_from_both_ends_get_each_tile_once():
    shared = collections.deque(range(20000))
    taken = [[], []]

    def take(k, pop):
        taken[k].extend(_worker._taking(pop))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pops = (shared.popleft, shared.pop)
        ends = [threading.Thread(target=take, args=(k, pop), daemon=True) for k, pop in enumerate(pops)]
        for t in ends:
            t.start()
        for t in ends:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in ends)
    front, back = taken
    assert front == list(range(len(front)))
    assert back == list(range(19999, len(front) - 1, -1))


def test_a_frame_is_safe_to_share_across_threads(frame256s):
    rng = np.random.default_rng(15)
    images = [rng.standard_normal((256, 256)) for _ in range(2)]
    want = []
    for f in images:
        coeffs = one_thread(analyze, f, frame256s)
        want.append((coeffs.values, one_thread(synthesize, coeffs, frame256s)))
    same = [[], []]

    def run(k):
        for _ in range(20):
            coeffs = analyze(images[k], frame256s)
            rec = synthesize(coeffs, frame256s)
            same[k].append(np.array_equal(coeffs.values, want[k][0]) and np.array_equal(rec, want[k][1]))

    # two users and the worker on two cores, switching often
    users = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in users:
            t.start()
        for t in users:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in users)
    assert same == [[True] * 20, [True] * 20]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_a_worker_of_its_own(frame256s):
    f = np.random.default_rng(17).standard_normal((256, 256))
    want = analyze(f, frame256s).values  # the parent's worker is running now
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = np.array_equal(analyze(f, frame256s).values, want)
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's analyze never returned")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_analyze_refuses_a_complex_image(frame64):
    f = np.random.default_rng(18).standard_normal((64, 64))
    for image in (f + 1j * f, f.astype(complex)):
        with pytest.raises(ValueError, match="complex"):
            analyze(image, frame64)


def test_flat_magnitudes_are_the_concatenated_block_magnitudes(frame64):
    rng = np.random.default_rng(13)
    coeffs = analyze(rng.standard_normal((64, 64)), frame64)
    want = np.concatenate([np.abs(b).ravel() for b in coeffs.blocks])
    assert np.array_equal(coeffs.flat_magnitudes(), want)


def test_blocks_are_disjoint_views_of_the_flat_values_in_order(frame64):
    coeffs = analyze(np.random.default_rng(13).standard_normal((64, 64)), frame64)
    assert coeffs.values.dtype == np.float64 and coeffs.values.ndim == 1
    assert coeffs.offsets[0] == 0 and coeffs.offsets[-1] == coeffs.total_count
    for i, ((_j, _ell, P1, P2), block) in enumerate(zip(coeffs.wedge_table, coeffs.blocks)):
        assert block.shape == (P1, P2)
        assert block.base is coeffs.values
        assert coeffs.offsets[i + 1] - coeffs.offsets[i] == P1 * P2
        assert np.array_equal(block.ravel(), coeffs.values[coeffs.offsets[i] : coeffs.offsets[i + 1]])
    for a, b in zip(coeffs.blocks, coeffs.blocks[1:]):
        assert not np.shares_memory(a, b)
    # a write to a block is a write to the flat array
    coeffs.blocks[3][0, 1] = 7.0
    assert coeffs.values[coeffs.offsets[3] + 1] == 7.0

