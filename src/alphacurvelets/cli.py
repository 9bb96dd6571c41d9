"""Reproduction harness: named experiments with PASS/FAIL verdicts.

Each experiment resolves its configuration from the packaged defaults,
an optional user JSON file, and command-line overrides, runs the
corresponding library routines, writes a CSV, a JSON report (with a
content hash of the resolved config), and a gnuplot script, and prints
one PASS/FAIL line.  Exit status is 0 iff the verdict is PASS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import approximation as appr
from . import bessel, molecules
from .cartoons import CartoonSpec, render, write_pgm
from .tiling import FrameParams, build_layout, verify_partition
from .transform import (
    DigitalCurveletFrame,
    analyze,
    analyze_direct,
    dump_coefficients,
    grid_norms,
    synthesize,
)

BAND_NOTES = {
    "verify-frame": "partition<=1e-12, parseval/reconstruction<=1e-10, oracle<=1e-9",
    "wedge-energy": "core-energy slope = -s*(2-alpha) +/- 0.2; digital/analytic in [0.9, 1.1]",
    "disc-rate": "disc threshold slope: alpha=0.5 in [-2.4,-1.7]; alpha=1/3 in [-1.75,-1.0]",
    "disc-lower-bound": "tile-core tail slope = -1/(1-alpha) +/- 0.3",
    "straight-edge-rate": "alpha=0.5 in [-2.45,-1.7]; alpha=0.25 <= -1.8; bump <= -1.9",
    "apriori-decay": "max-coeff slope = -s*(1+alpha)/2 +/- 0.15; atom L1 slope +/- 0.25",
    "bessel-check": "closed forms <= 1e-12; remainder sup finite, stable to 1%",
    "molecule-distance": "self-distance exactly 1; sup growth < 5% at last doubling",
    "generator-decay": "exact zeros outside the unit box and on the inner rectangle",
}


class ConfigError(ValueError):
    """Input refused before any work; :func:`main` reports it as a usage error."""


def load_defaults() -> dict:
    with resources.files("alphacurvelets").joinpath("defaults.json").open() as fh:
        return json.load(fh)


def resolve_config(experiment: str, config_path: str | None, overrides: dict) -> dict:
    """The experiment's packaged block, updated by a JSON file, then by the non-None overrides.

    A key the block lacks is refused: its runner would not read it.
    """
    cfg = dict(load_defaults()["experiments"][experiment])
    changes = {}
    if config_path:
        with open(config_path) as fh:
            changes = json.load(fh)
        if not isinstance(changes, dict):
            raise ConfigError(f"config file {config_path!r} must hold a JSON object")
    changes.update((key, val) for key, val in overrides.items() if val is not None)
    unknown = sorted(set(changes) - set(cfg))
    if unknown:
        raise ConfigError(f"{experiment} does not read {', '.join(unknown)}; its keys are {sorted(cfg)}")
    cfg.update(changes)
    return cfg


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()


def _atomic_write(path: str, text: str) -> str:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def _plot_columns(cols: list[str]) -> tuple[int, int]:
    """gnuplot's 1-based (x, y) columns: x is ``N``, else ``j``, else the first; y follows x."""
    x = next((cols.index(c) for c in ("N", "j") if c in cols), 0) + 1
    return x, x + 1


def _check_out_dir(out_dir: str) -> None:
    """Create ``out_dir`` if needed and prove it writable, or raise ``OSError`` naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {out_dir!r} is not writable: {exc}") from exc


def emit_report(
    experiment: str, cfg: dict, results: dict, rows: list[dict], out_dir: str
) -> dict:
    """Write CSV + JSON + plot script; returns the file paths."""
    _check_out_dir(out_dir)
    stem = os.path.join(out_dir, experiment)
    csv_path = stem + ".csv"
    cols = list(rows[0]) if rows else []
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(repr(float(r[c])) if isinstance(r[c], float) else str(r[c]) for c in cols))
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    report = {
        "experiment": experiment,
        "config": cfg,
        "config_sha1": config_hash(cfg),
        "results": results,
    }
    json_path = _atomic_write(stem + ".json", json.dumps(report, indent=2, default=_json_default))
    x, y = _plot_columns(cols)
    plot = (
        "set datafile separator ','\n"
        "set logscale xy\n"
        f"set title '{experiment}'\n"
        f"plot '{os.path.basename(csv_path)}' skip 1 using {x}:{y} with linespoints\n"
    )
    plot_path = _atomic_write(stem + ".gnuplot", plot)
    return {"csv": csv_path, "json": json_path, "plot": plot_path}


def run_verify_frame(cfg: dict) -> tuple[bool, dict, list[dict]]:
    rng = np.random.default_rng(cfg["seed"])
    grid = int(cfg["grid"])
    tight_grid = max(32, grid // 2)
    oracle_grid = min(64, max(32, grid // 8))
    rows = []
    ok = True
    for alpha in cfg["alphas"]:
        params = FrameParams(cfg["s"], alpha, grid)
        layout = build_layout(params)
        pdev = verify_partition(layout)
        frame = DigitalCurveletFrame.build(FrameParams(cfg["s"], alpha, tight_grid))
        par_dev = rec_err = 0.0
        for _ in range(int(cfg["n_random_images"])):
            f = rng.standard_normal((tight_grid, tight_grid))
            coeffs = analyze(f, frame)
            _, e2 = grid_norms(f, tight_grid)
            par_dev = max(par_dev, abs(coeffs.total_energy - e2) / e2)
            rec = synthesize(coeffs, frame)
            _, d2 = grid_norms(f - rec, tight_grid)
            rec_err = max(rec_err, math.sqrt(d2 / e2))
        oframe = DigitalCurveletFrame.build(FrameParams(cfg["s"], alpha, oracle_grid))
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
                "alpha": alpha,
                "partition_dev": pdev,
                "parseval_dev": par_dev,
                "reconstruction_err": rec_err,
                "oracle_dev": odev,
                "ok": row_ok,
            }
        )
    results = {"rows": rows, "grids": [grid, tight_grid, oracle_grid]}
    return ok, results, rows


def run_wedge_energy(cfg: dict) -> tuple[bool, dict, list[dict]]:
    ok = True
    rows = []
    summaries = []
    grid = int(cfg["grid"])
    for alpha in cfg["alphas"]:
        params = FrameParams(cfg["s"], alpha, grid)
        scales = range(1, params.j_max + 1)
        energies = [bessel.wedge_energy_quadrature(params, j) for j in scales]
        fit = appr.fit_scale_slope(scales, energies)
        target = -params.s * (2.0 - alpha)
        ok_a = abs(fit["slope"] - target) <= cfg["slope_tol"]
        ok = ok and ok_a
        summaries.append(
            {"alpha": alpha, "slope": fit["slope"], "target": target, "onset": fit["onset"], "ok": ok_a}
        )
        for j, e in zip(scales, energies):
            rows.append({"alpha": alpha, "j": j, "core_energy": e})
    d_alpha = float(cfg["digital_alpha"])
    params = FrameParams(cfg["s"], d_alpha, grid)
    frame = DigitalCurveletFrame.build(params)
    disc = render(CartoonSpec(kind="disc", antialias=int(cfg["antialias"])), grid)
    coeffs = analyze(disc, frame)
    per_scale = {}
    for (j, _ell, _p1, _p2), b in zip(coeffs.wedge_table, coeffs.blocks):
        per_scale[j] = per_scale.get(j, 0.0) + float(np.sum(np.abs(b) ** 2))
    lo_m, hi_m = cfg["digital_mid_scales"]
    hi_m = params.j_max + hi_m if hi_m < 0 else hi_m
    band = cfg["digital_ratio_band"]
    ratios = []
    for j in range(lo_m, hi_m + 1):
        analytic = bessel.wedge_energy_quadrature(params, j, "window") * params.tile_count(j)
        ratio = per_scale[j] / analytic
        ratios.append({"j": j, "ratio": ratio, "digital": per_scale[j], "analytic": analytic})
        ok = ok and band[0] <= ratio <= band[1]
    digital = {"alpha": d_alpha, "ratios": ratios, "band": band}
    results = {"summaries": summaries, "digital": digital}
    return ok, results, rows


def _threshold_rate(
    cfg: dict, frame: DigitalCurveletFrame, img: np.ndarray, window: tuple[int, int] | None = None
) -> tuple[appr.ErrorCurve, appr.RateReport]:
    """N-term error curve of ``img`` over the full schedule and its fitted rate.

    The fit runs over ``window``, or else over the level window between
    the configured ``level_hi`` and ``level_lo``.
    """
    coeffs = analyze(img, frame)
    schedule = appr.geometric_schedule(int(cfg["schedule_start"]), max(coeffs.total_count // 4, 64))
    curve = appr.error_curve(img, frame, schedule, coeffs=coeffs)
    if window is None:
        window = appr.level_window(curve, float(cfg["level_hi"]), float(cfg["level_lo"]))
    return curve, appr.fit_rate(curve, window=window)


def run_disc_rate(cfg: dict) -> tuple[bool, dict, list[dict]]:
    alpha = float(cfg["alpha"])
    grid = int(cfg["grid"])
    band = None
    for key, val in cfg["bands"].items():
        if abs(float(key) - alpha) < 1e-9:
            band = val
    if band is None:
        raise ConfigError(f"no acceptance band configured for alpha={alpha}")
    frame = DigitalCurveletFrame.build(FrameParams(cfg["s"], alpha, grid, snapped=True))
    disc = render(CartoonSpec(kind="disc", antialias=int(cfg["antialias"])), grid)
    curve, fit = _threshold_rate(cfg, frame, disc)
    ok = band[0] <= fit.slope <= band[1]
    rows = [{"N": n, "err2": e} for n, e in zip(curve.n_terms, curve.err2)]
    results = {"alpha": alpha, "slope": fit.slope, "band": band, "fit": fit.__dict__}
    return ok, results, rows


def run_disc_lower_bound(cfg: dict) -> tuple[bool, dict, list[dict]]:
    ok = True
    rows = []
    summaries = []
    for alpha in cfg["alphas"]:
        curve = appr.bound1_tail_estimator(FrameParams(cfg["s"], float(alpha), int(cfg["grid"])))
        counts = curve.metadata["scale_tile_counts"]
        lo = sum(counts[:3])
        hi = sum(counts[:-1])
        fit = appr.fit_rate(curve, window=(max(4, lo), hi))
        target = -1.0 / (1.0 - float(alpha))
        ok_a = abs(fit.slope - target) <= cfg["slope_tol"]
        ok = ok and ok_a
        summaries.append({"alpha": alpha, "slope": fit.slope, "target": target, "ok": ok_a})
        rows += [
            {"alpha": alpha, "N": n, "err2_lower_bound": e}
            for n, e in zip(curve.n_terms, curve.err2)
        ]
    return ok, {"summaries": summaries}, rows


def run_straight_edge_rate(cfg: dict) -> tuple[bool, dict, list[dict]]:
    grid = int(cfg["grid"])
    rows = []

    def one(frame, spec: CartoonSpec, img: np.ndarray, window: tuple[int, int] | None = None):
        curve, fit = _threshold_rate(cfg, frame, img, window)
        for n, e in zip(curve.n_terms, curve.err2):
            rows.append({"run": f"{spec.kind}-alpha{frame.params.alpha}", "N": n, "err2": e})
        return fit

    edge = CartoonSpec(
        kind="half_space",
        phi=float(cfg["edge_phi"]),
        c=float(cfg["edge_c"]),
        beta=int(cfg["beta"]),
        nu=float(cfg["nu"]),
        antialias=int(cfg["antialias"]),
    )
    bump = CartoonSpec(
        kind="smooth_bump", beta=int(cfg["beta"]), nu=float(cfg["nu"]), antialias=int(cfg["antialias"])
    )
    half = DigitalCurveletFrame.build(FrameParams(cfg["s"], 0.5, grid, snapped=True))  # edge and bump
    img = render(edge, grid)
    fit_half = one(half, edge, img)
    fit_quarter = one(DigitalCurveletFrame.build(FrameParams(cfg["s"], 0.25, grid, snapped=True)), edge, img)
    img = render(bump, grid)
    fit_bump = one(half, bump, img, window=tuple(cfg["bump_window"]))
    band = cfg["band_alpha_half"]
    ok = (
        band[0] <= fit_half.slope <= band[1]
        and fit_quarter.slope <= cfg["max_slope_alpha_quarter"]
        and fit_bump.slope <= cfg["max_slope_bump"]
    )
    results = {
        "edge_alpha_half": fit_half.__dict__,
        "edge_alpha_quarter": fit_quarter.__dict__,
        "bump_alpha_half": fit_bump.__dict__,
        "band_alpha_half": band,
    }
    return ok, results, rows


def run_apriori_decay(cfg: dict) -> tuple[bool, dict, list[dict]]:
    grid = int(cfg["grid"])
    ok = True
    rows = []
    summaries = []
    disc = render(CartoonSpec(kind="disc", antialias=int(cfg["antialias"])), grid)
    for alpha in cfg["alphas"]:
        params = FrameParams(cfg["s"], float(alpha), grid, snapped=True)
        frame = DigitalCurveletFrame.build(params)
        coeffs = analyze(disc, frame)
        lo, hi = cfg["fit_scales"]
        hi = params.j_max + hi if hi < 0 else hi
        table = appr.apriori_decay_check(coeffs, params, f_sup=1.0, fit_scales=(lo, hi))
        target = table["target"]
        # the size bound is one-sided: curved edges cannot saturate it for
        # strongly directional tiles, so only slopes above target+tol fail
        ok_c = table["slope"] <= target + cfg["max_coeff_tol"]
        atoms = appr.atom_l1_decay(frame)
        ok_a = atoms["l1_slope"] is not None and abs(atoms["l1_slope"] - target) <= cfg["atom_l1_tol"]
        ok = ok and ok_c and ok_a
        summaries.append(
            {
                "alpha": alpha,
                "max_coeff_slope": table["slope"],
                "atom_l1_slope": atoms["l1_slope"],
                "target": target,
                "saturates_two_sided": abs(table["slope"] - target) <= cfg["max_coeff_tol"],
                "ok": ok_c and ok_a,
            }
        )
        for j, m in table["rows"]:
            rows.append({"alpha": alpha, "j": j, "max_coeff": m})
    return ok, {"summaries": summaries}, rows


def run_bessel_check(cfg: dict) -> tuple[bool, dict, list[dict]]:
    tol = float(cfg["closed_form_tol"])
    rows = []
    max_closed = 0.0
    for r in np.linspace(0.05, 50.0, 250):
        plus = bessel.bessel_j_series(0.5, float(r))
        minus = bessel.bessel_j_series(-0.5, float(r))
        c_plus = math.sqrt(2.0 / (math.pi * r)) * math.sin(r)
        c_minus = math.sqrt(2.0 / (math.pi * r)) * math.cos(r)
        max_closed = max(max_closed, abs(plus - c_plus), abs(minus - c_minus))
        rows.append({"r": float(r), "dev_plus": abs(plus - c_plus), "dev_minus": abs(minus - c_minus)})
    cross = 0.0
    for nu in bessel.SUPPORTED_ORDERS:
        r = bessel.CROSSOVER_RADIUS
        a = bessel._series_smallr(nu, np.array([r]))[0]
        b = bessel._asymptotic_larger(nu, np.array([r]))[0]
        cross = max(cross, abs(a - b))
    sup1 = bessel.remainder_bound_check(1.0, float(cfg["remainder_r_max"]))
    sup1_fine = bessel.remainder_bound_check(
        1.0, float(cfg["remainder_r_max"]), points_per_log=8192
    )
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


def run_molecule_distance(cfg: dict) -> tuple[bool, dict, list[dict]]:
    pa = FrameParams(s=float(cfg["s_a"]), alpha=float(cfg["alpha"]), grid_n=64)
    pb = FrameParams(s=float(cfg["s_b"]), alpha=float(cfg["alpha"]), grid_n=64)
    p = molecules.curvelet_parametrization((2, 1, (3.0, -2.0)), pa)
    self_dist = molecules.index_distance(p, p, float(cfg["alpha"]))
    rows = []
    sups = []
    for cap in cfg["spatial_caps"]:
        res = molecules.consistency_sum(
            pa, pb, float(cfg["alpha"]), float(cfg["k_exp"]), float(cfg["scale_cap"]), float(cap)
        )
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


def run_generator_decay(cfg: dict) -> tuple[bool, dict, list[dict]]:
    ok = True
    rows = []
    for alpha in cfg["alphas"]:
        params = FrameParams(cfg["s"], float(alpha), int(cfg["grid"]))
        table = appr.generator_decay_check(params, probe_step=float(cfg["probe_step"]))
        for entry in table:
            ok = ok and entry["support_ok"] and entry["inner_zero_ok"] and entry["sup"] <= 1.0 + 1e-12
            rows.append({"alpha": alpha, **entry})
    return ok, {"rows": rows}, rows


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
    ok, results, rows = RUNNERS[experiment](cfg)
    ok = bool(ok)
    files = emit_report(experiment, cfg, {**results, "pass": ok}, rows, out_dir)
    verdict = "PASS" if ok else "FAIL"
    _say(f"{experiment}: {verdict}  ({BAND_NOTES[experiment]})")
    for key in ("rows", "summaries"):
        for entry in results.get(key) or []:
            if isinstance(entry, dict):
                _say("  " + ", ".join(f"{k}={v}" for k, v in entry.items()))
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
        "--dump-pgm", default=None, metavar="PATH", help="dump the experiment cartoon as plain PGM"
    )
    sub.add_parser("list", help="list experiments and their acceptance bands")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in RUNNERS:
            _say(f"{name}: {BAND_NOTES[name]}")
        return 0
    if args.dump_coeffs is not None and args.dump_coeffs < 0:
        runp.error(f"--dump-coeffs K must be >= 0, got {args.dump_coeffs}")

    overrides = {"grid": args.grid, "alpha": args.alpha, "s": args.s, "seed": args.seed}
    try:
        cfg = resolve_config(args.experiment, args.config, overrides)
        base = load_defaults()
        out_dir = args.out or base["out_dir"]
        try:
            _check_out_dir(out_dir)  # before the run, not after it
        except OSError as exc:
            raise ConfigError(str(exc)) from None
        if args.dump_pgm or args.dump_coeffs is not None:
            grid, alpha, s = (cfg.get(key, base[key]) for key in ("grid", "alpha", "s"))
            spec = CartoonSpec(kind="disc", antialias=int(cfg.get("antialias", 4)))
            img = render(spec, int(grid))
            if args.dump_pgm:
                write_pgm(img, args.dump_pgm)
                _say(f"wrote {args.dump_pgm}")
            if args.dump_coeffs is not None:
                frame = DigitalCurveletFrame.build(FrameParams(s, float(alpha), int(grid)))
                coeffs = analyze(img, frame)
                top = None if args.dump_coeffs == 0 else args.dump_coeffs
                paths = dump_coefficients(coeffs, frame, os.path.join(out_dir, "coefficients"), top)
                _say(f"wrote {paths[0]} and {paths[1]}")
        return run_experiment(args.experiment, cfg, out_dir)
    except ConfigError as exc:
        runp.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
