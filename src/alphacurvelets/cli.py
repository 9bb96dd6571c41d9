"""Reproduction harness: named experiments with PASS/FAIL verdicts.

Each experiment resolves its configuration from the packaged defaults,
an optional user JSON file, and command-line overrides; its plan checks
every value before any work, then its run calls the library routines.
Whatever resolution or planning raises is a usage error (exit 2), since
neither has done any work.  A run writes a CSV, a JSON report (with a
content hash of the resolved config), and a gnuplot script, and prints
one PASS/FAIL line.  Exit status is 0 iff the verdict is PASS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from collections.abc import Callable
from importlib import resources

import numpy as np

from . import approximation as appr
from . import bessel, molecules
from .cartoons import CartoonSpec, render
from .tiling import FrameParams, as_index, build_layout, verify_partition
from .transform import (
    CoefficientSet,
    DigitalCurveletFrame,
    analyze,
    analyze_direct,
    grid_norms,
    synthesize,
)

# each note names its bounds by config key; :func:`band_note` fills them in
BAND_NOTES = {
    "verify-frame": "partition<={partition_tol}, parseval<={parseval_tol}, "
    "reconstruction<={reconstruction_tol}, oracle<={oracle_tol}",
    "wedge-energy": "core-energy slope = -s*(2-alpha) +/- {slope_tol}; "
    "digital/analytic in {digital_ratio_band}",
    "disc-rate": "disc threshold slope: {bands}",
    "disc-lower-bound": "tile-core tail slope = -1/(1-alpha) +/- {slope_tol}",
    "straight-edge-rate": "alpha=0.5 in {band_alpha_half}; alpha=0.25 <= {max_slope_alpha_quarter}; "
    "bump <= {max_slope_bump}",
    "apriori-decay": "max-coeff slope = -s*(1+alpha)/2 +/- {max_coeff_tol}; "
    "atom L1 slope +/- {atom_l1_tol}",
    "bessel-check": "closed forms <= {closed_form_tol}; "
    "remainder sup finite, stable to {remainder_stability_tol}",
    "molecule-distance": "self-distance exactly 1; sup growth < {growth_tol} at last doubling",
    "generator-decay": "exact zeros outside the unit box and on the inner rectangle",
}


DUMP_CHUNK_ROWS = 1 << 16
ALPHA_KEY = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")  # a key of a table by alpha
Run = Callable[[], tuple[bool, dict, list[dict]]]  # a planned experiment; run() gives (ok, results, rows)


def band_note(experiment: str, cfg: dict) -> str:
    """``BAND_NOTES[experiment]`` with the bounds of the resolved ``cfg``."""
    return BAND_NOTES[experiment].format(**{key: _brief(val) for key, val in cfg.items()})


def _brief(val) -> str:
    """A band as ``[lo,hi]``, a table of bands by alpha as ``alpha=a in [lo,hi]; ...``."""
    if isinstance(val, dict):
        return "; ".join(f"alpha={float(alpha):.4g} in {_brief(band)}" for alpha, band in val.items())
    if isinstance(val, list):
        return "[" + ",".join(map(str, val)) + "]"
    return str(val)


def _index(cfg: dict, key: str, least: int) -> int:
    """``cfg[key]``, an integer of at least ``least``, or a ``ValueError`` naming it."""
    value = as_index(cfg[key], key)
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return value


def _entries(cfg: dict, key: str, least: int) -> list:
    """``cfg[key]``, a list of at least ``least`` entries, or a ``ValueError`` naming it.

    An empty list would leave a check with nothing to check, and its verdict a vacuous PASS.
    """
    values = cfg[key]
    if len(values) < least:
        raise ValueError(f"{key} must be a list of at least {least} entries, got {values!r}")
    return values


def _pair(values: list, name: str) -> list:
    """``values``, a band or a window of two entries, or a ``ValueError`` naming it ``name``."""
    if len(values) != 2:
        raise ValueError(f"{name} must hold two entries, got {values!r}")
    return values


def _window(cfg: dict, key: str) -> tuple[int, int]:
    """``cfg[key]``, a window of two integers, or a ``ValueError`` naming it."""
    return tuple(as_index(end, key) for end in _pair(cfg[key], key))


def _scale_window(cfg: dict, key: str, j_max: int, least: int) -> tuple[int, int]:
    """The scales ``(lo, hi)`` of ``cfg[key]``, a negative ``hi`` counting back from ``j_max``.

    The window is clipped to the frame's scales ``0..j_max``; a
    ``ValueError`` refuses one that keeps fewer than ``least`` of them.
    """
    lo, hi = _window(cfg, key)
    hi = j_max + hi if hi < 0 else hi
    if len(range(max(lo, 0), min(hi, j_max) + 1)) < least:
        raise ValueError(
            f"{key} {cfg[key]} selects scales {lo}..{hi} of 0..{j_max}; the check needs at least {least}"
        )
    return max(lo, 0), min(hi, j_max)


def _frames(cfg: dict, snapped: bool = False) -> list[FrameParams]:
    """A frame's parameters per entry of ``cfg["alphas"]`` (at least one) at ``cfg``'s ``s`` and ``grid``."""
    alphas = _entries(cfg, "alphas", 1)
    return [FrameParams(cfg["s"], float(alpha), cfg["grid"], snapped=snapped) for alpha in alphas]


def _kind(value) -> str | None:
    """What a config value is: a number, a list of numbers, or number lists keyed by alpha; else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "a number"
    if isinstance(value, list) and all(_kind(v) == "a number" for v in value):
        return "a list of numbers"
    if isinstance(value, dict) and all(
        ALPHA_KEY.fullmatch(k) and _kind(v) == "a list of numbers" for k, v in value.items()
    ):
        return "an object of number lists keyed by alpha"
    return None


def load_defaults() -> dict:
    with resources.files("alphacurvelets").joinpath("defaults.json").open() as fh:
        return json.load(fh)


def resolve_config(experiment: str, config_path: str | None, overrides: dict) -> dict:
    """The experiment's packaged block, updated by a JSON file, then by the non-None overrides.

    A key the block lacks is refused: its runner would not read it.  So is a
    value of another :func:`_kind` than the packaged one, so no run meets a value it cannot read.
    """
    cfg = dict(load_defaults()["experiments"][experiment])
    changes = {}
    if config_path:
        with open(config_path) as fh:
            try:
                changes = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {config_path!r} is not valid JSON: {exc}") from None
        if not isinstance(changes, dict):
            raise ValueError(f"config file {config_path!r} must hold a JSON object")
    changes.update((key, val) for key, val in overrides.items() if val is not None)
    unknown = sorted(set(changes) - set(cfg))
    if unknown:
        raise ValueError(f"{experiment} does not read {', '.join(unknown)}; its keys are {sorted(cfg)}")
    for key, val in changes.items():
        if _kind(val) != _kind(cfg[key]):
            raise ValueError(f"{key} must be {_kind(cfg[key])}, got {val!r}")
    cfg.update(changes)
    return cfg


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()


def _atomic_write(path: str, lines) -> str:
    """Write the strings ``lines``, which may stream, to a temp file renamed to ``path``."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        os.umask(umask := os.umask(0o077))  # reads the umask: only the calling thread writes files
        os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") gives a new file, not mkstemp's 0600
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def _table(cols: list[str], rows):
    """CSV lines, LF-ended: ``cols``, then each row of ``rows``, floats by ``repr``, the rest by ``str``."""
    yield ",".join(cols) + "\n"
    for row in rows:
        yield ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"


def _plot_columns(cols: list[str]) -> tuple[int, int]:
    """gnuplot's 1-based (x, y) columns: x is ``N``, else ``j``, else the first; y follows x."""
    x = next((cols.index(c) for c in ("N", "j") if c in cols), 0) + 1
    return x, x + 1


def _check_out_dir(out_dir: str) -> None:
    """Create ``out_dir`` if needed and prove it writable, or raise ``OSError`` naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        os.remove(_atomic_write(os.path.join(out_dir, ".write-probe"), []))
    except OSError as exc:
        raise OSError(f"output directory {out_dir!r} is not writable: {exc}") from exc


def _check_pgm_path(path: str, out_dir: str, written: list[str]) -> None:
    """Prove, making nothing, that ``path`` can be written, or raise ``OSError`` naming it.
    ``out_dir`` may be its directory: :func:`_check_out_dir` makes and proves that one.
    A path that resolves to one of the ``written`` names in ``out_dir``, files the run
    writes after the image, raises ``ValueError``."""
    if os.path.isdir(path):
        raise OSError(f"--dump-pgm {path!r} is a directory")
    if os.path.realpath(path) in {os.path.realpath(os.path.join(out_dir, name)) for name in written}:
        raise ValueError(f"--dump-pgm {path!r} is a file this run writes in {out_dir!r}")
    d = os.path.dirname(os.path.abspath(path))
    if d != os.path.abspath(out_dir) and not (os.path.isdir(d) and os.access(d, os.W_OK | os.X_OK)):
        raise OSError(f"--dump-pgm {path!r} cannot be written: {d!r} is not a writable directory")


def emit_report(
    experiment: str, cfg: dict, results: dict, rows: list[dict], out_dir: str
) -> dict:
    """Write CSV + JSON + plot script; returns the file paths."""
    _check_out_dir(out_dir)
    stem = os.path.join(out_dir, experiment)
    csv_path = stem + ".csv"
    cols = list(rows[0]) if rows else []
    _atomic_write(csv_path, _table(cols, ([r[c] for c in cols] for r in rows)))
    report = {
        "experiment": experiment,
        "config": cfg,
        "config_sha1": config_hash(cfg),
        "results": results,
    }
    json_path = _atomic_write(stem + ".json", [json.dumps(report, indent=2, default=_json_default)])
    x, y = _plot_columns(cols)
    plot = (
        "set datafile separator ','\n"
        "set logscale xy\n"
        f"set title '{experiment}'\n"
        f"plot '{os.path.basename(csv_path)}' skip 1 using {x}:{y} with linespoints\n"
    )
    plot_path = _atomic_write(stem + ".gnuplot", [plot])
    return {"csv": csv_path, "json": json_path, "plot": plot_path}


def dump_coefficients(
    coeffs: CoefficientSet,
    frame: DigitalCurveletFrame,
    stem: str,
    top_k: int | None = None,
) -> tuple[str, str]:
    """Portable dump: ``<stem>.json`` header plus ``<stem>.csv`` body.

    CSV columns are ``j, ell, m1, m2, re``; with ``top_k`` only the K
    largest-magnitude coefficients are written, by descending magnitude
    (stable order on ties), or all of them when K exceeds the count.
    """
    if top_k is not None and as_index(top_k, "top_k") < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    header = {
        "params": frame.params.as_dict(),
        "wedge_table": [list(t) for t in coeffs.wedge_table],
        "total_coefficients": coeffs.total_count,
        "rows": "j,ell,m1,m2,re",
    }
    if top_k is None:
        order = np.arange(coeffs.total_count)
    else:
        top = np.flatnonzero(appr._largest_mask(coeffs.values, min(top_k, coeffs.total_count)))
        order = top[np.lexsort((top, -np.abs(coeffs.values[top])))]
    json_path = _atomic_write(stem + ".json", [json.dumps(header, indent=2)])
    rows = _coefficient_rows(coeffs, order)
    return json_path, _atomic_write(stem + ".csv", _table(["j", "ell", "m1", "m2", "re"], rows))


def _coefficient_rows(coeffs: CoefficientSet, order: np.ndarray):
    """The rows ``(j, ell, m1, m2, re)`` of the flat positions ``order``.

    They are made ``DUMP_CHUNK_ROWS`` at a time, so at most that many rows
    are Python objects at once.
    """
    table = np.array(coeffs.wedge_table, dtype=np.int64).reshape(-1, 4)
    for lo in range(0, len(order), DUMP_CHUNK_ROWS):
        part = order[lo : lo + DUMP_CHUNK_ROWS]
        tile = coeffs._tile_of(part)
        j, ell, _P1, P2 = table[tile].T
        m1, m2 = np.divmod(part - coeffs.offsets[tile], P2)
        yield from zip(j.tolist(), ell.tolist(), m1.tolist(), m2.tolist(), coeffs.values[part].tolist())


def write_pgm(grid: np.ndarray, path: str) -> str:
    """Plain (ASCII) PGM dump, rescaled to 0..255, for quick inspection."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = float(grid.min()), float(grid.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((grid - lo) * scale).astype(int).tolist()
    header = f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n"
    return _atomic_write(path, [header, *(" ".join(map(str, row)) + "\n" for row in pix)])


def run_verify_frame(cfg: dict) -> Run:
    every = _frames(cfg)
    n_images = _index(cfg, "n_random_images", 1)
    seed = _index(cfg, "seed", 0)
    grid = cfg["grid"]
    # the tight-frame and oracle grids, rounded down to even as FrameParams needs
    tight_grid, oracle_grid = max(32, grid // 4 * 2), min(64, max(32, grid // 16 * 2))
    sized = [(p, *(FrameParams(p.s, p.alpha, n) for n in (tight_grid, oracle_grid))) for p in every]

    def run():
        rng = np.random.default_rng(seed)
        rows = []
        ok = True
        for params, tight, oracle in sized:
            layout = build_layout(params)
            pdev = verify_partition(layout)
            frame = DigitalCurveletFrame.build(tight)
            par_dev = rec_err = 0.0
            for _ in range(n_images):
                f = rng.standard_normal((tight_grid, tight_grid))
                coeffs = analyze(f, frame)
                _, e2 = grid_norms(f, tight_grid)
                par_dev = max(par_dev, abs(coeffs.total_energy - e2) / e2)
                rec = synthesize(coeffs, frame)
                _, d2 = grid_norms(f - rec, tight_grid)
                rec_err = max(rec_err, math.sqrt(d2 / e2))
            oframe = DigitalCurveletFrame.build(oracle)
            g = rng.standard_normal((oracle_grid, oracle_grid))
            ocoeffs = analyze(g, oframe)
            odev = 0.0
            for i in range(len(oframe._caches)):
                direct = analyze_direct(g, oframe, i)
                ref = np.linalg.norm(direct)
                diff = np.linalg.norm(ocoeffs.blocks[i] - direct)
                odev = max(odev, diff / max(ref, 1e-300))
            row_ok = (
                pdev <= cfg["partition_tol"]
                and par_dev <= cfg["parseval_tol"]
                and rec_err <= cfg["reconstruction_tol"]
                and odev <= cfg["oracle_tol"]
            )
            ok = ok and row_ok
            rows.append(
                {
                    "alpha": params.alpha,
                    "partition_dev": pdev,
                    "parseval_dev": par_dev,
                    "reconstruction_err": rec_err,
                    "oracle_dev": odev,
                    "ok": row_ok,
                }
            )
        results = {"rows": rows, "grids": [grid, tight_grid, oracle_grid]}
        return ok, results, rows

    return run


def run_wedge_energy(cfg: dict) -> Run:
    grid = cfg["grid"]
    every = _frames(cfg)
    for p in every:
        if p.j_max < appr.ONSET_MIN_POINTS:  # the analytic fit runs over the scales 1..j_max
            raise ValueError(
                f"alpha={p.alpha} has j_max={p.j_max} at grid {grid}, s {p.s}; "
                f"the analytic slope fit needs at least {appr.ONSET_MIN_POINTS} scales"
            )
    d_alpha = float(cfg["digital_alpha"])
    params = FrameParams(cfg["s"], d_alpha, grid)
    lo_m, hi_m = _scale_window(cfg, "digital_mid_scales", params.j_max, 1)
    spec = CartoonSpec(kind="disc", antialias=cfg["antialias"])
    band = _pair(cfg["digital_ratio_band"], "digital_ratio_band")

    def run():
        ok = True
        rows = []
        summaries = []
        for p in every:
            scales = range(1, p.j_max + 1)
            energies = [bessel.wedge_energy_quadrature(p, j) for j in scales]
            fit = appr.fit_scale_slope(scales, energies)
            target = -p.s * (2.0 - p.alpha)
            ok_a = abs(fit["slope"] - target) <= cfg["slope_tol"]
            ok = ok and ok_a
            summaries.append(
                {"alpha": p.alpha, "slope": fit["slope"], "target": target, "onset": fit["onset"], "ok": ok_a}
            )
            for j, e in zip(scales, energies):
                rows.append({"alpha": p.alpha, "j": j, "core_energy": e})
        frame = DigitalCurveletFrame.build(params)
        coeffs = analyze(render(spec, grid), frame)
        per_scale = {}
        for (j, _ell, _p1, _p2), b in zip(coeffs.wedge_table, coeffs.blocks):
            per_scale[j] = per_scale.get(j, 0.0) + float(np.sum(np.abs(b) ** 2))
        ratios = []
        for j in range(lo_m, hi_m + 1):
            analytic = bessel.wedge_energy_quadrature(params, j, "window") * params.tile_count(j)
            ratio = per_scale[j] / analytic
            ratios.append({"j": j, "ratio": ratio, "digital": per_scale[j], "analytic": analytic})
            ok = ok and band[0] <= ratio <= band[1]
        digital = {"alpha": d_alpha, "ratios": ratios, "band": band}
        results = {"summaries": summaries, "digital": digital}
        return ok, results, rows

    return run


def _rate_plan(cfg: dict) -> Callable[..., tuple[appr.ErrorCurve, appr.RateReport | None, str | None]]:
    """``rate(frame, img, window=None)``: the N-term error curve of ``img``,
    its fitted rate, and ``None``; or the curve, ``None`` and the reason
    when the curve cannot fill the fit window (:class:`~alphacurvelets.approximation.FitWindowError`).

    The curve runs over the full schedule from ``schedule_start``, or from
    its last N if that is smaller; the fit runs over ``window``, or else
    over the level window between the configured ``level_hi`` and
    ``level_lo``.  Both are checked here.
    """
    start = _index(cfg, "schedule_start", 1)
    hi, lo = float(cfg["level_hi"]), float(cfg["level_lo"])
    if lo >= hi:
        raise ValueError(f"level_lo must be below level_hi, got level_lo={lo} and level_hi={hi}")

    def rate(frame: DigitalCurveletFrame, img: np.ndarray, window: tuple[int, int] | None = None):
        coeffs = analyze(img, frame)
        stop = max(coeffs.total_count // 4, 64)
        curve = appr.error_curve(img, frame, appr.geometric_schedule(min(start, stop), stop), coeffs=coeffs)
        try:
            if window is None:
                window = appr.level_window(curve, hi, lo)
            return curve, appr.fit_rate(curve, window=window), None
        except appr.FitWindowError as exc:
            return curve, None, str(exc)

    return rate


def run_disc_rate(cfg: dict) -> Run:
    alpha = float(cfg["alpha"])
    grid = cfg["grid"]
    band = None
    for key, val in cfg["bands"].items():
        if abs(float(key) - alpha) < 1e-9:
            band = _pair(val, f"the band for alpha={key}")
    if band is None:
        raise ValueError(f"no acceptance band configured for alpha={alpha}")
    params = FrameParams(cfg["s"], alpha, grid, snapped=True)
    spec = CartoonSpec(kind="disc", antialias=cfg["antialias"])
    rate = _rate_plan(cfg)

    def run():
        curve, fit, reason = rate(DigitalCurveletFrame.build(params), render(spec, grid))
        rows = [{"N": n, "err2": e} for n, e in zip(curve.n_terms, curve.err2)]
        if reason:
            return False, {"alpha": alpha, "slope": None, "band": band, "fit": None, "fit_error": reason}, rows
        ok = band[0] <= fit.slope <= band[1]
        results = {"alpha": alpha, "slope": fit.slope, "band": band, "fit": fit.__dict__}
        return ok, results, rows

    return run


def run_disc_lower_bound(cfg: dict) -> Run:
    every = _frames(cfg)
    if any(params.alpha == 1.0 for params in every):  # the target slope is -1/(1-alpha)
        raise ValueError(f"disc-lower-bound needs every alpha below 1, got alphas {cfg['alphas']}")
    windows = []
    for params in every:
        # the tail curve has one point per tile, N = 1, 2, ...; the fit skips the
        # first three scales' tiles and the top scale's
        counts = [params.tile_count(j) for j in range(params.j_max + 1)]
        window = (max(4, sum(counts[:3])), sum(counts[:-1]))
        if window[1] - window[0] + 1 < appr.FIT_MIN_POINTS:
            raise ValueError(
                f"alpha={params.alpha} at grid {params.grid_n}, s {params.s} has the tile-count fit "
                f"window {window}, which holds fewer than {appr.FIT_MIN_POINTS} of the tail curve's points"
            )
        windows.append(window)

    def run():
        ok = True
        rows = []
        summaries = []
        for params, window in zip(every, windows):
            curve = appr.bound1_tail_estimator(params)
            fit = appr.fit_rate(curve, window=window)
            target = -1.0 / (1.0 - params.alpha)
            ok_a = abs(fit.slope - target) <= cfg["slope_tol"]
            ok = ok and ok_a
            summaries.append({"alpha": params.alpha, "slope": fit.slope, "target": target, "ok": ok_a})
            rows += [
                {"alpha": params.alpha, "N": n, "err2_lower_bound": e}
                for n, e in zip(curve.n_terms, curve.err2)
            ]
        return ok, {"summaries": summaries}, rows

    return run


def run_straight_edge_rate(cfg: dict) -> Run:
    grid = cfg["grid"]
    edge = CartoonSpec(
        kind="half_space",
        phi=float(cfg["edge_phi"]),
        c=float(cfg["edge_c"]),
        beta=cfg["beta"],
        nu=float(cfg["nu"]),
        antialias=cfg["antialias"],
    )
    bump = CartoonSpec(kind="smooth_bump", beta=cfg["beta"], nu=float(cfg["nu"]), antialias=cfg["antialias"])
    rate = _rate_plan(cfg)
    half_params = FrameParams(cfg["s"], 0.5, grid, snapped=True)
    quarter = FrameParams(cfg["s"], 0.25, grid, snapped=True)
    bump_window = _window(cfg, "bump_window")
    band = _pair(cfg["band_alpha_half"], "band_alpha_half")

    def run():
        rows = []
        results = {}
        reasons = []

        def one(name, frame, spec: CartoonSpec, img: np.ndarray, window: tuple[int, int] | None = None):
            curve, fit, reason = rate(frame, img, window)
            for n, e in zip(curve.n_terms, curve.err2):
                rows.append({"run": f"{spec.kind}-alpha{frame.params.alpha}", "N": n, "err2": e})
            results[name] = None if reason else fit.__dict__
            if reason:
                reasons.append(f"{name}: {reason}")
            return fit

        # one alpha=1/2 frame serves the edge and the bump
        half = DigitalCurveletFrame.build(half_params)
        img = render(edge, grid)
        fit_half = one("edge_alpha_half", half, edge, img)
        # the alpha=1/4 frame is freed before the bump
        fit_quarter = one("edge_alpha_quarter", DigitalCurveletFrame.build(quarter), edge, img)
        img = render(bump, grid)
        fit_bump = one("bump_alpha_half", half, bump, img, window=bump_window)
        results["band_alpha_half"] = band
        if reasons:
            return False, {**results, "fit_error": "; ".join(reasons)}, rows
        ok = (
            band[0] <= fit_half.slope <= band[1]
            and fit_quarter.slope <= cfg["max_slope_alpha_quarter"]
            and fit_bump.slope <= cfg["max_slope_bump"]
        )
        return ok, results, rows

    return run


def run_apriori_decay(cfg: dict) -> Run:
    grid = cfg["grid"]
    every = _frames(cfg, snapped=True)
    windows = [_scale_window(cfg, "fit_scales", params.j_max, 3) for params in every]
    spec = CartoonSpec(kind="disc", antialias=cfg["antialias"])

    def run():
        ok = True
        rows = []
        summaries = []
        disc = render(spec, grid)
        for params, window in zip(every, windows):
            frame = DigitalCurveletFrame.build(params)
            coeffs = analyze(disc, frame)
            table = appr.apriori_decay_check(coeffs, params, fit_scales=window)
            target = table["target"]
            # the size bound is one-sided: curved edges cannot saturate it for
            # strongly directional tiles, so only slopes above target+tol fail
            ok_c = table["slope"] <= target + cfg["max_coeff_tol"]
            atoms = appr.atom_l1_decay(frame)
            ok_a = atoms["l1_slope"] is not None and abs(atoms["l1_slope"] - target) <= cfg["atom_l1_tol"]
            ok = ok and ok_c and ok_a
            summaries.append(
                {
                    "alpha": params.alpha,
                    "max_coeff_slope": table["slope"],
                    "atom_l1_slope": atoms["l1_slope"],
                    "target": target,
                    "saturates_two_sided": abs(table["slope"] - target) <= cfg["max_coeff_tol"],
                    "ok": ok_c and ok_a,
                }
            )
            for j, m in table["rows"]:
                rows.append({"alpha": params.alpha, "j": j, "max_coeff": m})
        return ok, {"summaries": summaries}, rows

    return run


def run_bessel_check(cfg: dict) -> Run:
    r_max = float(cfg["remainder_r_max"])
    if not 1.0 < r_max < math.inf:  # the remainder sup runs over [1, r_max]
        raise ValueError(f"remainder_r_max must be finite and above 1, got {r_max}")

    def run():
        tol = float(cfg["closed_form_tol"])
        # the closed forms of J_{+-1/2} check bessel_j on both of its branches
        r = np.linspace(0.05, 50.0, 250)
        dev_plus = np.abs(bessel.bessel_j(0.5, r) - np.sqrt(2.0 / (math.pi * r)) * np.sin(r))
        dev_minus = np.abs(bessel.bessel_j(-0.5, r) - np.sqrt(2.0 / (math.pi * r)) * np.cos(r))
        max_closed = float(max(dev_plus.max(), dev_minus.max()))
        rows = [
            {"r": float(a), "dev_plus": float(b), "dev_minus": float(c)} for a, b, c in zip(r, dev_plus, dev_minus)
        ]
        cross = 0.0
        for nu in bessel.SUPPORTED_ORDERS:
            r = bessel.CROSSOVER_RADIUS
            a = bessel._series_smallr(nu, np.array([r]))[0]
            b = bessel._asymptotic_larger(nu, np.array([r]))[0]
            cross = max(cross, abs(a - b))
        sup1 = bessel.remainder_bound_check(1.0, r_max)
        sup1_fine = bessel.remainder_bound_check(1.0, r_max, points_per_log=8192)
        sup_half = bessel.remainder_bound_check(1.0, 100.0, order=-0.5)
        stability = abs(sup1_fine - sup1) / sup1
        ok = (
            max_closed <= tol
            and cross <= float(cfg["crossover_tol"])
            and math.isfinite(sup1)
            and stability <= float(cfg["remainder_stability_tol"])
            and sup_half <= 1e-12
        )
        results = {
            "closed_form_max_dev": max_closed,
            "crossover_max_dev": cross,
            "remainder_sup": sup1,
            "remainder_sup_fine": sup1_fine,
            "remainder_stability": stability,
            "remainder_sup_minus_half": sup_half,
        }
        return ok, results, rows

    return run


def run_molecule_distance(cfg: dict) -> Run:
    caps = _entries(cfg, "spatial_caps", 2)  # the growth compares the last two
    alpha, k_exp, scale_cap = float(cfg["alpha"]), float(cfg["k_exp"]), float(cfg["scale_cap"])
    pa = FrameParams(float(cfg["s_a"]), alpha, 64)
    pb = FrameParams(float(cfg["s_b"]), alpha, 64)
    for cap in caps:
        molecules._check_sum_args(pa, pb, alpha, k_exp, scale_cap, float(cap))
    if any(a >= b for a, b in zip(caps, caps[1:])):  # else the growth measures no larger sum
        raise ValueError(f"spatial_caps must strictly increase, got {caps!r}")
    p = molecules.curvelet_parametrization((2, 1, (3.0, -2.0)), pa)  # refuses a frame without tile (2, 1)

    def run():
        self_dist = molecules.index_distance(p, p, alpha)
        rows = []
        sups = []
        for cap in caps:
            res = molecules.consistency_sum(pa, pb, alpha, k_exp, scale_cap, float(cap))
            sups.append(res)
            rows.append(
                {
                    "spatial_cap": cap,
                    "sup_a": res.sup_over_a,
                    "sup_b": res.sup_over_b,
                    "count_a": res.count_a,
                    "count_b": res.count_b,
                }
            )
        growth_a = sups[-1].sup_over_a / sups[-2].sup_over_a - 1.0
        growth_b = sups[-1].sup_over_b / sups[-2].sup_over_b - 1.0
        ok = (
            self_dist == 1.0
            and growth_a < float(cfg["growth_tol"])
            and growth_b < float(cfg["growth_tol"])
        )
        results = {
            "self_distance": self_dist,
            "growth_a": growth_a,
            "growth_b": growth_b,
            "final_sup_a": sups[-1].sup_over_a,
            "final_sup_b": sups[-1].sup_over_b,
        }
        return ok, results, rows

    return run


def run_generator_decay(cfg: dict) -> Run:
    every = _frames(cfg)
    step = float(cfg["probe_step"])
    appr._check_probe_step(step)

    def run():
        ok = True
        rows = []
        for params in every:
            table = appr.generator_decay_check(params, probe_step=step)
            for entry in table:
                ok = ok and entry["support_ok"] and entry["inner_zero_ok"] and entry["sup"] <= 1.0 + 1e-12
                rows.append({"alpha": params.alpha, **entry})
        return ok, {"rows": rows}, rows

    return run


# each runner is its experiment's plan: it refuses a config before any work, else returns the Run
RUNNERS = {
    "verify-frame": run_verify_frame,
    "wedge-energy": run_wedge_energy,
    "disc-rate": run_disc_rate,
    "disc-lower-bound": run_disc_lower_bound,
    "straight-edge-rate": run_straight_edge_rate,
    "apriori-decay": run_apriori_decay,
    "bessel-check": run_bessel_check,
    "molecule-distance": run_molecule_distance,
    "generator-decay": run_generator_decay,
}


def _say(line: str) -> None:
    """Print ``line`` now; if stdout's reader has gone, point stdout at devnull.

    A closed pipe (``run ... | head``) then costs only the output: the
    reports are written and the verdict's exit status stands.  Moving the
    descriptor, as Python's ``signal`` docs advise, also keeps the exit
    flush from raising again.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run_experiment(experiment: str, cfg: dict, out_dir: str) -> int:
    return _verdict(experiment, cfg, RUNNERS[experiment](cfg)(), out_dir)


def _verdict(experiment: str, cfg: dict, outcome: tuple[bool, dict, list[dict]], out_dir: str) -> int:
    """Write the reports of a run's ``(ok, results, rows)`` and print its verdict; 0 iff PASS."""
    ok, results, rows = outcome
    ok = bool(ok)
    files = emit_report(experiment, cfg, {**results, "pass": ok}, rows, out_dir)
    verdict = "PASS" if ok else "FAIL"
    _say(f"{experiment}: {verdict}  ({band_note(experiment, cfg)})")
    for key in ("rows", "summaries"):
        for entry in results.get(key) or []:
            if isinstance(entry, dict):
                _say("  " + ", ".join(f"{k}={v}" for k, v in entry.items()))
    if "fit_error" in results:
        _say(f"  fit_error: {results['fit_error']}")
    _say(f"  report: {files['json']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="alphacurvelets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one named experiment")
    runp.add_argument("experiment", choices=RUNNERS)
    runp.add_argument("--config", help="JSON file overriding the experiment defaults")
    runp.add_argument("--out", default=None, help="output directory (default ./reports)")
    runp.add_argument("--grid", type=int, default=None)
    runp.add_argument("--alpha", type=float, default=None)
    runp.add_argument("--s", type=float, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument(
        "--dump-coeffs",
        type=int,
        default=None,
        metavar="K",
        help="also dump disc coefficients at the experiment grid (K largest; 0 = all)",
    )
    runp.add_argument(
        "--dump-pgm",
        default=None,
        metavar="PATH",
        help="dump the disc cartoon as plain PGM: the experiment's grid, else the default; its antialias, else 4",
    )
    sub.add_parser("list", help="list experiments and their acceptance bands")
    args = parser.parse_args(argv)

    if args.command == "list":
        packaged = load_defaults()["experiments"]
        for name in RUNNERS:
            _say(f"{name}: {band_note(name, packaged[name])}")
        return 0
    if args.dump_coeffs is not None and args.dump_coeffs < 0:
        runp.error(f"--dump-coeffs K must be >= 0, got {args.dump_coeffs}")

    overrides = {"grid": args.grid, "alpha": args.alpha, "s": args.s, "seed": args.seed}
    dumps = args.dump_pgm or args.dump_coeffs is not None
    try:
        cfg = resolve_config(args.experiment, args.config, overrides)
        base = load_defaults()
        out_dir = args.out or base["out_dir"]
        run = RUNNERS[args.experiment](cfg)
        if dumps:
            grid, alpha, s = (cfg.get(key, base[key]) for key in ("grid", "alpha", "s"))
            params = FrameParams(s, float(alpha), grid)
            spec = CartoonSpec(kind="disc", antialias=cfg.get("antialias", 4))
        if args.dump_pgm:
            written = [f"{args.experiment}.{ext}" for ext in ("csv", "json", "gnuplot")]
            if args.dump_coeffs is not None:
                written += ["coefficients.json", "coefficients.csv"]
            _check_pgm_path(args.dump_pgm, out_dir, written)
        _check_out_dir(out_dir)  # after the plans, which may refuse, and before any work
    except (ValueError, OSError) as exc:  # a plan does no work, so whatever it raises refuses the input
        runp.error(str(exc))
    if dumps:
        img = render(spec, grid)
        if args.dump_pgm:
            write_pgm(img, args.dump_pgm)
            _say(f"wrote {args.dump_pgm}")
        if args.dump_coeffs is not None:
            frame = DigitalCurveletFrame.build(params)
            coeffs = analyze(img, frame)
            top = None if args.dump_coeffs == 0 else args.dump_coeffs
            paths = dump_coefficients(coeffs, frame, os.path.join(out_dir, "coefficients"), top)
            _say(f"wrote {paths[0]} and {paths[1]}")
    return _verdict(args.experiment, cfg, run(), out_dir)


if __name__ == "__main__":
    sys.exit(main())
