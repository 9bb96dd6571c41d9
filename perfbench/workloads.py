"""The three workloads: seeded inputs, the timed operation, and its checks.

Every input is a pure function of ``(seed, stream, index)``, so request
``i`` of a seed is the same in every process that asks for it (the traced
run and its untraced replay rely on this).  The program under test only
ever sees the generated inputs.

Each workload offers ``setup()``, ``warmup()``, ``request(i)`` (input
generation, not timed), ``call(req)`` (the timed operation) and
``check(req, out)``, which returns ``None`` or the failure cause.
Requests come in cycles of ``cycle`` operations, one of each kind
(image, grid, experiment).  Within a kind, the continuous inputs follow
a low-discrepancy sequence with a seeded shift, so every seed spreads its
requests evenly over the same ranges and two seeds' runs do nearly the
same work.  A run sends a fixed number of cycles, ``cycles_per_s`` per
second of nominal run length, so a seed always makes the same requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from alphacurvelets import approximation, cartoons, cli, tiling, transform
from alphacurvelets.transform import grid_norms

import metrics

PARSEVAL_TOL = 1e-10
PARTITION_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10

# rng streams, so that no two kinds of input share random draws
_POOL, _CYCLE, _REQUEST, _WARMUP = range(4)

TAIL_CANCELLATION = "error_curve tail cancellation"
KNOWN_DEFECTS = {
    TAIL_CANCELLATION: (
        "approximation.error_curve takes each dropped tail as energy - cumsum, "
        "which loses the tail to rounding once it is ~1e-12 of the signal energy or less; "
        "its verify_at check then fails although the synthesis is correct"
    ),
}


def explained_by_cancellation(magnitudes: np.ndarray, n: int, synthesis_err: float) -> bool:
    """Whether a failed ``error_curve`` check at ``n`` terms is the known defect.

    True when the tail as ``error_curve`` computes it (running sum from
    the largest term, subtracted from the total) falls short of the tail
    summed smallest-first, and the synthesis error stays within the
    latter, as it must for a Parseval frame.
    """
    mags2 = np.sort(np.asarray(magnitudes) ** 2)
    cum = np.cumsum(mags2[::-1])
    reported = max(float(cum[-1]) - float(cum[n - 1]), 0.0)
    tail = float(mags2[: mags2.size - n].sum())
    return reported < tail and synthesis_err <= tail * (1.0 + 1e-6)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


# additive recurrences k * step mod 1 have low discrepancy for every prefix
# when step has small continued-fraction terms, as the golden (all 1) and
# silver (all 2) ratios do; paired, they fill the square evenly
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_STEP_2D = (_GOLDEN, math.sqrt(2.0) - 1.0)


def low_discrepancy(shift: np.ndarray, k: int, step) -> np.ndarray:
    """Point ``k`` of the shifted additive recurrence, in ``[0, 1)``."""
    return (np.asarray(shift) + k * np.asarray(step)) % 1.0


class NTermRoundtrip:
    """Analyze one cartoon, threshold to N terms and synthesize (closed loop).

    The paper's approximation path at a paper-like grid: ``analyze`` then
    ``error_curve(..., verify_at=(N,))``, which sorts the coefficients,
    thresholds to N terms and synthesizes.  N is log-uniform over
    ``[64, coefficients / 4]``, so ``synthesize`` sees anything from a
    handful to most of its blocks nonzero; each pool image gets its own
    low-discrepancy sequence of N.
    """

    name = "nterm-roundtrip"
    grid = 512
    alpha = 0.5
    n_min = 64
    cycle = 4  # one request per pool cartoon, in seeded order
    cycles_per_s = 1.0  # a cycle takes about 1.1 s on a 2-core x86 VM
    batch = False

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def pool_specs(seed: int) -> list[cartoons.CartoonSpec]:
        rng = _rng(seed, _POOL)
        spec = cartoons.CartoonSpec
        return [
            spec(kind="disc"),
            spec(
                kind="half_space",
                phi=rng.uniform(0.0, math.pi),
                c=rng.uniform(-0.4, 0.4),
                beta=int(rng.integers(1, 4)),
                nu=rng.uniform(1.0, 100.0),
            ),
            spec(
                kind="star",
                rho0=rng.uniform(0.35, 0.5),
                cos_coeffs=tuple(float(v) for v in rng.uniform(-0.06, 0.06, 3)),
                sin_coeffs=tuple(float(v) for v in rng.uniform(-0.06, 0.06, 3)),
            ),
            spec(kind="smooth_bump", beta=int(rng.integers(1, 5)), nu=rng.uniform(1.0, 100.0)),
        ]

    @classmethod
    def request_inputs(cls, seed: int, i: int, total: int) -> tuple[int, int]:
        """(pool index, N) of request ``i``; ``total`` is the coefficient count."""
        image = int(_rng(seed, _CYCLE, i // cls.cycle).permutation(cls.cycle)[i % cls.cycle])
        shift = _rng(seed, _REQUEST).uniform(size=cls.cycle)[image]
        return image, cls._n_at(float(low_discrepancy(shift, i // cls.cycle, _GOLDEN)), total)

    @classmethod
    def _n_at(cls, u: float, total: int) -> int:
        """N at the share ``u`` of the log range ``[n_min, total / 4]``."""
        lo, hi = math.log(cls.n_min), math.log(total // 4)
        return min(total // 4, max(cls.n_min, int(round(math.exp(lo + u * (hi - lo))))))

    def setup(self) -> None:
        params = tiling.FrameParams.nyquist_snapped(1.0, self.alpha, self.grid)
        self.frame = transform.DigitalCurveletFrame.build(params)
        self.images = [cartoons.render(s, self.grid) for s in self.pool_specs(self.seed)]
        self.energies = [grid_norms(img, self.grid)[1] for img in self.images]

    def warmup(self) -> None:
        rng = _rng(self.seed, _WARMUP)
        image = int(rng.integers(len(self.images)))
        self.call((image, self._n_at(rng.uniform(), self.frame.total_coefficients)))

    def request(self, i: int) -> tuple[int, int]:
        return self.request_inputs(self.seed, i, self.frame.total_coefficients)

    def call(self, req: tuple[int, int]) -> dict:
        image, n = req
        img = self.images[image]
        out = {"coeffs": transform.analyze(img, self.frame)}
        try:
            out["curve"] = approximation.error_curve(
                img, self.frame, [n], coeffs=out["coeffs"], verify_at=(n,)
            )
        except AssertionError as exc:  # error_curve's own verify_at check
            # the message only: the traceback would keep the call's arrays alive
            out["error"] = str(exc)
        return out

    def check(self, req: tuple[int, int], out: dict) -> str | None:
        image, n = req
        e2 = self.energies[image]
        dev = abs(out["coeffs"].total_energy - e2) / e2
        if dev > PARSEVAL_TOL:
            return f"parseval deviation {dev:.1e} > {PARSEVAL_TOL:.0e}"
        if "error" in out:
            return self._diagnose(image, n, out["error"])
        return None

    def _diagnose(self, image: int, n: int, error: str) -> str:
        """Name the known defect only when the synthesis itself is correct."""
        coeffs = transform.analyze(self.images[image], self.frame)
        rec = transform.synthesize(approximation.threshold(coeffs, n), self.frame)
        _, err = grid_norms(self.images[image] - rec, self.grid)
        if explained_by_cancellation(coeffs.flat_magnitudes(), n, err):
            return TAIL_CANCELLATION
        return f"error_curve verify_at: {error}"

    def close(self) -> None:
        pass


class FrameSweep:
    """Build a fresh frame per request, verify it, and round-trip one image.

    alpha is uniform in [0, 0.9] and s in [0.5, 1.5]; the draws are
    continuous and the sequence never returns to a point, so parameters
    never repeat and a frame cache gets no hits here.  Each cycle covers
    every (grid, snapped) pair once; each pair walks its own 2-D
    low-discrepancy sequence over (s, alpha).
    """

    name = "frame-sweep"
    grids = (128, 256, 512)
    cycle = 2 * len(grids)
    cycles_per_s = 1.0  # a cycle takes about 1.2 s on a 2-core x86 VM
    batch = False

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def request_inputs(cls, seed: int, i: int) -> tuple[tiling.FrameParams, np.ndarray]:
        """(params, image) of request ``i``: a (grid, snapped) pair per slot of a cycle."""
        combo = int(_rng(seed, _CYCLE, i // cls.cycle).permutation(cls.cycle)[i % cls.cycle])
        shift = _rng(seed, _POOL).uniform(size=(cls.cycle, 2))[combo]
        u_s, u_alpha = low_discrepancy(shift, i // cls.cycle, _STEP_2D)
        rng = _rng(seed, _REQUEST, i)
        s, alpha = 0.5 + float(u_s), 0.9 * float(u_alpha)
        return cls._draw(rng, cls.grids[combo // 2], combo % 2 == 1, s, alpha)

    @staticmethod
    def _draw(rng: np.random.Generator, grid: int, snapped: bool, s: float, alpha: float):
        if snapped:
            params = tiling.FrameParams.nyquist_snapped(s, alpha, grid)
        else:
            params = tiling.FrameParams(s=s, alpha=alpha, grid_n=grid)
        return params, rng.standard_normal((grid, grid))

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        """One request per grid, with parameters drawn apart from the timed ones."""
        rng = _rng(self.seed, _WARMUP)
        for grid in self.grids:
            snapped, s, alpha = bool(rng.integers(2)), rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.9)
            self.call(self._draw(rng, grid, snapped, s, alpha))

    def request(self, i: int):
        return self.request_inputs(self.seed, i)

    def call(self, req) -> tuple[float, float, np.ndarray]:
        params, image = req
        frame = transform.DigitalCurveletFrame.build(params)
        dev = tiling.verify_partition(frame.layout)
        coeffs = transform.analyze(image, frame)
        return dev, coeffs.total_energy, transform.synthesize(coeffs, frame)

    def check(self, req, out) -> str | None:
        params, image = req
        dev, energy, rec = out
        _, e2 = grid_norms(image, params.grid_n)
        _, d2 = grid_norms(image - rec, params.grid_n)
        par = abs(energy - e2) / e2
        recon = math.sqrt(d2 / e2)
        if dev > PARTITION_TOL:
            return f"partition deviation {dev:.1e} > {PARTITION_TOL:.0e}"
        if par > PARSEVAL_TOL:
            return f"parseval deviation {par:.1e} > {PARSEVAL_TOL:.0e}"
        if recon > RECONSTRUCTION_TOL:
            return f"reconstruction error {recon:.1e} > {RECONSTRUCTION_TOL:.0e}"
        return None

    def close(self) -> None:
        pass


class Reproduce:
    """Batches of the paper's experiments at the packaged defaults.

    ``straight-edge-rate`` is where ``cartoons`` does most of the work
    (smooth-factor edges at antialias 8) and ``molecule-distance`` where
    ``molecules`` does; grid-1024 alpha=0.5 frames recur across
    experiments.  The seed only orders the experiments in each batch.
    """

    name = "reproduce"
    experiments = metrics.REPRODUCE_EXPERIMENTS
    cycle = len(experiments)
    cycles_per_s = 1.0 / 30.0  # a batch takes about 23 s on a 2-core x86 VM
    batch = True  # the user waits for every verdict: a batch's time is the latency
    # the first grid-1024 experiment of a process runs ~0.5 s slow; this one
    # pays that in set-up, so the first timed batch is as warm as the rest
    warmup_experiment = "disc-rate"

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        os.makedirs(scratch_dir, exist_ok=True)
        self.out_dir = tempfile.mkdtemp(prefix="reports-", dir=scratch_dir)

    @classmethod
    def request_inputs(cls, seed: int, i: int) -> str:
        order = _rng(seed, _CYCLE, i // cls.cycle).permutation(cls.cycle)
        return cls.experiments[int(order[i % cls.cycle])]

    def setup(self) -> None:
        self.configs = {e: cli.resolve_config(e, None, {}) for e in self.experiments}

    def warmup(self) -> None:
        self.call(self.warmup_experiment)

    def request(self, i: int) -> str:
        return self.request_inputs(self.seed, i)

    def call(self, experiment: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_experiment(experiment, self.configs[experiment], self.out_dir)

    def check(self, experiment: str, rc: int) -> str | None:
        with open(os.path.join(self.out_dir, experiment + ".json")) as fh:
            passed = json.load(fh)["results"]["pass"]
        if rc != 0 or passed is not True:
            return f"{experiment} verdict FAIL"
        return None

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (NTermRoundtrip, FrameSweep, Reproduce)}


def run_ops(wl, seconds: float) -> int:
    """Requests in a run of nominal length ``seconds``: whole cycles, at least one."""
    return wl.cycle * max(1, round(seconds * wl.cycles_per_s))


def make(name: str, seed: int, scratch_dir: str):
    if name == Reproduce.name:
        return Reproduce(seed, scratch_dir)
    return WORKLOADS[name](seed)


def describe_inputs(name: str, seed: int, count: int, total: int = 1015048) -> bytes:
    """Serialized inputs of the first ``count`` requests of a workload.

    ``total`` stands in for the coefficient count of the round-trip frame
    (its value at the default grid), so no frame needs to be built.
    """
    parts: list[bytes] = []
    if name == NTermRoundtrip.name:
        parts.append(repr(NTermRoundtrip.pool_specs(seed)).encode())
        parts += [repr(NTermRoundtrip.request_inputs(seed, i, total)).encode() for i in range(count)]
    elif name == FrameSweep.name:
        for i in range(count):
            params, image = FrameSweep.request_inputs(seed, i)
            parts += [repr(params).encode(), image.tobytes()]
    else:
        parts += [Reproduce.request_inputs(seed, i).encode() for i in range(count)]
    return b"\n".join(parts)
