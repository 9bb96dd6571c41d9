import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from alphacurvelets import cli
from alphacurvelets.cartoons import CartoonSpec, render
from alphacurvelets.cli import dump_coefficients, write_pgm
from alphacurvelets.transform import DigitalCurveletFrame, analyze


def test_list_prints_every_experiment(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in cli.RUNNERS:
        assert name in out


def test_resolve_config_rejects_unknown_fields(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"no_such_knob": 1}))
    with pytest.raises(ValueError, match="no_such_knob"):
        cli.resolve_config("disc-rate", os.fspath(bad), {})


def test_resolve_config_applies_a_config_file_under_the_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": 128, "oracle_tol": 1e-8, "seed": 11}))
    cfg = cli.resolve_config("verify-frame", os.fspath(path), {"seed": 3, "alpha": None})
    assert (cfg["grid"], cfg["oracle_tol"], cfg["seed"]) == (128, 1e-8, 3)
    assert cfg["alphas"] == cli.load_defaults()["experiments"]["verify-frame"]["alphas"]


@pytest.mark.parametrize(
    "experiment, overrides, key",
    [
        ("wedge-energy", {"alpha": 0.3}, "alpha"),
        ("molecule-distance", {"seed": 9}, "seed"),
        ("molecule-distance", {"s": 0.8}, "s"),
        ("bessel-check", {"grid": 64}, "grid"),
    ],
)
def test_resolve_config_refuses_an_override_the_experiment_does_not_read(experiment, overrides, key):
    with pytest.raises(ValueError, match=f"{experiment} does not read {key};"):
        cli.resolve_config(experiment, None, overrides)


def test_resolve_config_refuses_out_dir_in_a_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out_dir": os.fspath(tmp_path)}))
    with pytest.raises(ValueError, match="disc-rate does not read out_dir"):
        cli.resolve_config("disc-rate", os.fspath(path), {})


def test_resolve_config_refuses_a_config_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(["grid", 64]))
    with pytest.raises(ValueError, match="JSON object"):
        cli.resolve_config("disc-rate", os.fspath(path), {})


def test_packaged_configs_are_exactly_the_experiment_blocks(tmp_path):
    defaults = cli.load_defaults()
    for experiment, block in defaults["experiments"].items():
        assert cli.resolve_config(experiment, None, {}) == block
        # every key of the block may be set, from a file or as an override
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(block))
        assert cli.resolve_config(experiment, os.fspath(path), {key: block[key] for key in block}) == block


def test_json_default_converts_numpy_scalars():
    doc = {"i": np.int64(7), "f": np.float32(0.5), "b": np.bool_(True)}
    assert json.loads(json.dumps(doc, default=cli._json_default)) == {"i": 7, "f": 0.5, "b": True}
    assert type(cli._json_default(np.bool_(False))) is bool
    with pytest.raises(TypeError, match="not JSON-serializable"):
        cli._json_default(object())


def test_emit_report_without_rows_writes_an_empty_table(tmp_path):
    files = cli.emit_report("bessel-check", {"seed": 1}, {"pass": True}, [], os.fspath(tmp_path))
    assert Path(files["csv"]).read_text() == "\n"
    report = json.loads(Path(files["json"]).read_text())
    assert report["results"] == {"pass": True}
    assert sorted(os.listdir(tmp_path)) == ["bessel-check.csv", "bessel-check.gnuplot", "bessel-check.json"]


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        cli._atomic_write(os.fspath(target), "new")
    assert os.listdir(tmp_path) == ["report.json"]
    assert target.read_text() == "old"


def _decoded(coeffs, flat) -> tuple[int, int, int, int]:
    """``(j, ell, m1, m2)`` of flat position ``flat``, found by a walk over the tiles."""
    for (j, ell, _P1, P2), lo, hi in zip(coeffs.wedge_table, coeffs.offsets[:-1], coeffs.offsets[1:]):
        if lo <= flat < hi:
            return (j, ell, *divmod(int(flat - lo), P2))
    raise AssertionError(f"flat position {flat} outside the set")


def test_dump_coefficients(tmp_path, frame64):
    rng = np.random.default_rng(12)
    coeffs = analyze(rng.standard_normal((64, 64)), frame64)
    stem = os.fspath(tmp_path / "coeffs")
    jpath, cpath = dump_coefficients(coeffs, frame64, stem, top_k=10)
    lines = Path(cpath).read_text().strip().split("\n")
    assert lines[0] == "j,ell,m1,m2,re"
    assert len(lines) == 11
    mags = [abs(float(r.split(",")[4])) for r in lines[1:]]
    assert mags == sorted(mags, reverse=True)
    header = json.loads(Path(jpath).read_text())
    assert header["params"]["grid_n"] == 64
    assert header["total_coefficients"] == coeffs.total_count
    # the full dump lists every coefficient in the stable flat order
    _, cpath = dump_coefficients(coeffs, frame64, stem)
    rows = [r.split(",") for r in Path(cpath).read_text().strip().split("\n")[1:]]
    assert len(rows) == coeffs.total_count
    for flat in (0, 1, 777, coeffs.total_count - 1):
        assert rows[flat][:4] == [str(v) for v in _decoded(coeffs, flat)]
        assert float(rows[flat][4]) == coeffs.values[flat]


def test_dump_coefficients_top_k_order_with_ties(tmp_path, frame64):
    rng = np.random.default_rng(14)
    coeffs = analyze(rng.standard_normal((64, 64)), frame64)
    step = coeffs.flat_magnitudes().max() / 8
    coeffs = dataclasses.replace(coeffs, values=np.round(coeffs.values / step) * step)  # many tied magnitudes
    mags = coeffs.flat_magnitudes()
    for k in (1, 37, 500):
        _, cpath = dump_coefficients(coeffs, frame64, os.fspath(tmp_path / f"top{k}"), top_k=k)
        rows = [tuple(int(v) for v in r.split(",")[:4]) for r in Path(cpath).read_text().strip().split("\n")[1:]]
        assert rows == [_decoded(coeffs, flat) for flat in np.argsort(-mags, kind="stable")[:k]]
    with pytest.raises(ValueError):
        dump_coefficients(coeffs, frame64, os.fspath(tmp_path / "none"), top_k=0)
    with pytest.raises(ValueError, match="top_k must be an integer, got 2.5"):
        dump_coefficients(coeffs, frame64, os.fspath(tmp_path / "half"), top_k=2.5)
    _, cpath = dump_coefficients(coeffs, frame64, os.fspath(tmp_path / "np"), top_k=np.int64(37))
    assert Path(cpath).read_text() == (tmp_path / "top37.csv").read_text()


def test_dump_csv_has_lf_line_ends(tmp_path, frame64):
    coeffs = analyze(np.random.default_rng(12).standard_normal((64, 64)), frame64)
    _, cpath = dump_coefficients(coeffs, frame64, os.fspath(tmp_path / "coeffs"), top_k=10)
    raw = Path(cpath).read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == 11 and raw.endswith(b"\n")


def test_pgm_dump(tmp_path):
    img = render(CartoonSpec(kind="disc"), 32)
    path = write_pgm(img, os.fspath(tmp_path / "disc.pgm"))
    lines = Path(path).read_text().split("\n")
    assert lines[0] == "P2"
    assert lines[1] == "32 32"
    assert lines[2] == "255"
    assert len(lines[3].split()) == 32


@pytest.mark.parametrize("dump", ["coefficients", "pgm"])
def test_a_dump_whose_replace_fails_keeps_the_old_file(dump, tmp_path, monkeypatch, frame64):
    img = render(CartoonSpec(kind="disc"), 64)
    names = ["disc.json", "disc.csv"] if dump == "coefficients" else ["disc.pgm"]
    for name in names:
        (tmp_path / name).write_text("old")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        if dump == "coefficients":
            dump_coefficients(analyze(img, frame64), frame64, os.fspath(tmp_path / "disc"))
        else:
            write_pgm(img, os.fspath(tmp_path / "disc.pgm"))
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert all((tmp_path / name).read_text() == "old" for name in names)


def test_config_hash_is_stable():
    cfg = cli.resolve_config("bessel-check", None, {})
    assert cli.config_hash(cfg) == cli.config_hash(dict(reversed(list(cfg.items()))))


def test_run_verify_frame_small(tmp_path, capsys):
    out = os.fspath(tmp_path / "reports")
    code = cli.main(["run", "verify-frame", "--grid", "128", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "verify-frame: PASS" in text
    for ext in (".csv", ".json", ".gnuplot"):
        assert os.path.exists(os.path.join(out, "verify-frame" + ext))
    report = json.loads(Path(os.path.join(out, "verify-frame.json")).read_text())
    assert report["results"]["pass"] is True
    assert report["config_sha1"]
    header, *lines = Path(os.path.join(out, "verify-frame.csv")).read_text().splitlines()
    assert len(lines) == len(report["config"]["alphas"])
    for line in lines:
        *numbers, ok = line.split(",")
        assert ok == "True"
        for cell in numbers:
            float(cell)  # a numpy scalar's repr, np.float64(...), would not parse


def test_rerun_is_byte_identical(tmp_path):
    out1 = os.fspath(tmp_path / "a")
    out2 = os.fspath(tmp_path / "b")
    args = ["run", "molecule-distance"]
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    csv1 = Path(os.path.join(out1, "molecule-distance.csv")).read_bytes()
    csv2 = Path(os.path.join(out2, "molecule-distance.csv")).read_bytes()
    assert csv1 == csv2
    j1 = Path(os.path.join(out1, "molecule-distance.json")).read_bytes()
    j2 = Path(os.path.join(out2, "molecule-distance.json")).read_bytes()
    assert j1 == j2


def test_report_config_reruns_byte_identically(tmp_path):
    out1 = os.fspath(tmp_path / "a")
    out2 = os.fspath(tmp_path / "b")
    assert cli.main(["run", "bessel-check", "--out", out1]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads(Path(os.path.join(out1, "bessel-check.json")).read_text())["config"]))
    assert cli.main(["run", "bessel-check", "--config", os.fspath(config), "--out", out2]) == 0
    for ext in (".json", ".csv"):
        first = Path(os.path.join(out1, "bessel-check" + ext)).read_bytes()
        assert Path(os.path.join(out2, "bessel-check" + ext)).read_bytes() == first


def test_plot_columns_follow_the_documented_csv_headers():
    doc = Path(os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")).read_text()
    headers = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 3 and cells[1] in cli.RUNNERS:
            headers[cells[1]] = cells[2].split("`")[1].split(", ")
    expected = {
        "verify-frame": ("alpha", "partition_dev"),
        "wedge-energy": ("j", "core_energy"),
        "disc-rate": ("N", "err2"),
        "disc-lower-bound": ("N", "err2_lower_bound"),
        "straight-edge-rate": ("N", "err2"),
        "apriori-decay": ("j", "max_coeff"),
        "bessel-check": ("r", "dev_plus"),
        "molecule-distance": ("spatial_cap", "sup_a"),
        "generator-decay": ("j", "sup"),
    }
    assert set(headers) == set(expected)
    for experiment, cols in headers.items():
        x, y = cli._plot_columns(cols)
        assert (cols[x - 1], cols[y - 1]) == expected[experiment]
    assert cli._plot_columns([]) == (1, 2)


def test_unwritable_output_directory_is_reported(tmp_path):
    target = tmp_path / "frozen"
    target.mkdir()
    os.chmod(target, stat.S_IRUSR | stat.S_IXUSR)
    if not os.access(target, os.W_OK):
        with pytest.raises(OSError, match="frozen"):
            cli.emit_report("bessel-check", {}, {}, [], os.fspath(target))
    # a path blocked by a plain file fails the same way even as root
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    with pytest.raises(OSError, match="blocked"):
        cli.emit_report("bessel-check", {}, {}, [], os.fspath(blocker))


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "does-not-exist"])


def test_disc_rate_requires_configured_band():
    cfg = cli.resolve_config("disc-rate", None, {"alpha": 0.4, "grid": 128})
    with pytest.raises(ValueError, match="band"):
        cli.RUNNERS["disc-rate"](cfg)


def test_disc_rate_looks_up_its_band_before_building_a_frame(monkeypatch):
    def build(params):
        raise AssertionError("frame built before the band lookup")

    monkeypatch.setattr(cli.DigitalCurveletFrame, "build", build)
    cfg = cli.resolve_config("disc-rate", None, {"alpha": 0.4})
    with pytest.raises(ValueError, match="no acceptance band configured for alpha=0.4"):
        cli.RUNNERS["disc-rate"](cfg)


@pytest.mark.parametrize(
    "experiment,message",
    [("wedge-energy", "wedge-energy does not read alpha"), ("disc-rate", "no acceptance band configured")],
)
def test_refused_input_is_a_usage_error(experiment, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", experiment, "--alpha", "0.4", "--out", os.fspath(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: alphacurvelets run") and message in err
    assert "Traceback" not in err and not any(tmp_path.iterdir())


def test_negative_dump_coeffs_is_a_usage_error(monkeypatch, tmp_path, capsys):
    def build(params):
        raise AssertionError("frame built before --dump-coeffs was checked")

    monkeypatch.setattr(cli.DigitalCurveletFrame, "build", build)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "bessel-check", "--dump-coeffs", "-2", "--out", os.fspath(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: alphacurvelets run") and "--dump-coeffs K must be >= 0, got -2" in err
    assert "Traceback" not in err and not any(tmp_path.iterdir())


def test_errors_inside_a_run_are_not_usage_errors(monkeypatch, tmp_path):
    def broken(cfg):
        def run():
            raise ValueError("inside the run")

        return run

    monkeypatch.setitem(cli.RUNNERS, "bessel-check", broken)
    with pytest.raises(ValueError, match="inside the run"):
        cli.main(["run", "bessel-check", "--out", os.fspath(tmp_path)])


def test_rate_params_snap_to_nyquist(monkeypatch):
    asked = []

    class Built(Exception):
        pass

    def build(params):
        asked.append(params)
        raise Built

    monkeypatch.setattr(cli.DigitalCurveletFrame, "build", build)
    with pytest.raises(Built):
        cli.run_disc_rate(cli.resolve_config("disc-rate", None, {"grid": 128}))()
    assert asked == [cli.FrameParams.nyquist_snapped(1.0, 0.5, 128)]


def test_unusable_out_is_refused_before_the_run(monkeypatch, tmp_path, capsys):
    def plan(cfg):  # the plan comes before the --out check, its run after it
        def run():
            raise AssertionError("experiment ran before --out was checked")

        return run

    monkeypatch.setitem(cli.RUNNERS, "bessel-check", plan)
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "bessel-check", "--out", os.fspath(blocker)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: alphacurvelets run") and "output directory" in err and "blocked" in err
    assert "Traceback" not in err


class _ClosedPipe(io.TextIOWrapper):
    """A stdout whose reader has gone: every write raises ``BrokenPipeError``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_the_reports_and_the_verdict(monkeypatch, tmp_path, capsys):
    out = tmp_path / "reports"
    with open(tmp_path / "stdout", "wb") as raw, _ClosedPipe(raw) as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert cli.main(["run", "molecule-distance", "--out", os.fspath(out)]) == 0
        assert cli.main(["list"]) == 0
        monkeypatch.undo()
    assert sorted(os.listdir(out)) == [f"molecule-distance.{ext}" for ext in ("csv", "gnuplot", "json")]
    assert json.loads((out / "molecule-distance.json").read_text())["results"]["pass"] is True
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_ends_a_process_quietly(unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the first line
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "alphacurvelets.cli", "list"], stdout=write, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_dump_flags(tmp_path, capsys):
    out = os.fspath(tmp_path / "r")
    pgm = os.fspath(tmp_path / "img.pgm")
    code = cli.main(
        [
            "run",
            "generator-decay",
            "--grid",
            "64",
            "--out",
            out,
            "--dump-pgm",
            pgm,
            "--dump-coeffs",
            "5",
        ]
    )
    assert code == 0
    assert Path(pgm).read_text().splitlines()[0] == "P2"
    coeffs_csv = os.path.join(out, "coefficients.csv")
    assert len(Path(coeffs_csv).read_text().strip().split("\n")) == 6


def test_every_experiment_has_runner_and_band():
    assert list(cli.RUNNERS) == list(cli.BAND_NOTES)
    defaults = cli.load_defaults()
    assert set(cli.RUNNERS) == set(defaults["experiments"])


def test_disc_rate_note_names_every_configured_band():
    cfg = cli.resolve_config("disc-rate", None, {})
    for lo, hi in cfg["bands"].values():
        assert f"[{lo},{hi}]" in cli.band_note("disc-rate", cfg)


def test_the_verdict_names_the_applied_bands(monkeypatch, tmp_path, capsys):
    results = {"alpha": 0.5, "slope": -1.515, "band": [-1.0, 0.0], "fit": {"slope": -1.515, "n_points": 7}}
    monkeypatch.setitem(cli.RUNNERS, "disc-rate", lambda cfg: lambda: (False, results, []))
    config = tmp_path / "bands.json"
    config.write_text(json.dumps({"bands": {"0.5": [-1.0, 0.0]}}))
    out = os.fspath(tmp_path / "r")
    assert cli.main(["run", "disc-rate", "--config", os.fspath(config), "--out", out]) == 1
    verdict, measured, _report = capsys.readouterr().out.splitlines()
    assert verdict == "disc-rate: FAIL  (disc threshold slope: alpha=0.5 in [-1.0,0.0])"
    assert measured == "  alpha=0.5, slope=-1.515, fit.slope=-1.515"  # the slope that failed


def test_the_verdict_prints_a_result_that_is_not_finite(monkeypatch, tmp_path, capsys):
    # a config value must be finite, a result need not be: an infinite remainder fails bessel-check
    results = {"remainder_sup": math.inf, "remainder_stability": math.nan}
    monkeypatch.setitem(cli.RUNNERS, "bessel-check", lambda cfg: lambda: (False, results, []))
    assert cli.main(["run", "bessel-check", "--out", os.fspath(tmp_path / "r")]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "  remainder_sup=inf, remainder_stability=nan"


# what the package's work starts from; a plan reaches none of them
WORK = {
    cli.DigitalCurveletFrame: ("build",),
    cli: ("build_layout", "render", "analyze"),
    cli.bessel: ("wedge_energy_quadrature", "bessel_j"),
    cli.appr: ("error_curve", "bound1_tail_estimator", "generator_decay_check"),
    cli.molecules: ("consistency_sum",),
}


@pytest.fixture
def no_work(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work started before every value was checked")

    for owner, names in WORK.items():
        for name in names:
            monkeypatch.setattr(owner, name, work)


def _dumps(tmp_path, pgm=None) -> list[str]:
    return ["--dump-pgm", os.fspath(pgm or tmp_path / "x.pgm"), "--dump-coeffs", "5"]


def _assert_no_dumps(tmp_path) -> None:
    assert not (tmp_path / "x.pgm").exists()
    assert not list(tmp_path.rglob("coefficients.*"))


def _refused_with_either_out(args, message, tmp_path, capsys, pgm=None) -> str:
    """Run ``args`` with an ``--out`` that exists and with one that does not,
    and the dumps, the PGM to ``pgm`` if given; each run must be a usage error
    naming ``message`` that writes nothing and makes no directory.  Returns the
    second run's stderr."""
    made, absent = tmp_path / "made", tmp_path / "absent"
    made.mkdir()
    for out in (made, absent):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", *args, "--out", os.fspath(out), *_dumps(tmp_path, pgm)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: alphacurvelets run") and message in err
        assert "Traceback" not in err
    assert not any(made.iterdir()) and not absent.exists()
    _assert_no_dumps(tmp_path)
    return err


@pytest.mark.parametrize(
    "args,config,message",
    [
        (["disc-rate", "--grid", "10"], None, "grid_n must be even and >= 16, got 10"),
        (["disc-rate", "--s", "0"], None, "s must be positive and finite, got 0.0"),
        (["molecule-distance", "--alpha", "1.5"], None, "alpha must be finite and <= 1, got 1.5"),
        (["disc-lower-bound"], {"grid": 12}, "grid_n must be even and >= 16, got 12"),
        (["wedge-energy", "--grid", "64"], None, "digital_mid_scales [5, -2] selects scales 5..4 of 0..6"),
        (["apriori-decay", "--grid", "32"], None, "fit_scales [2, -1] selects scales 2..2 of 0..3"),
        (["generator-decay"], {"grid": 64.9}, "grid_n must be an integer, got 64.9"),
        (["generator-decay", "--dump-coeffs", "5"], {"grid": 64.9}, "grid_n must be an integer, got 64.9"),
        (["disc-rate"], {"grid": 128, "antialias": 2.7}, "antialias must be an integer, got 2.7"),
        (["disc-rate", "--dump-coeffs", "5"], {"antialias": 2.7}, "antialias must be an integer, got 2.7"),
        (["straight-edge-rate"], {"grid": 256, "beta": 2.5}, "beta must be a non-negative integer, got 2.5"),
        (["straight-edge-rate"], {"schedule_start": 32.5}, "schedule_start must be an integer, got 32.5"),
        (["disc-rate"], {"schedule_start": 0}, "schedule_start must be >= 1, got 0"),
        (["verify-frame"], {"n_random_images": 2.5}, "n_random_images must be an integer, got 2.5"),
        (["verify-frame"], {"n_random_images": 0}, "n_random_images must be >= 1, got 0"),
        (["verify-frame"], {"seed": 7.5}, "seed must be an integer, got 7.5"),
        (["verify-frame", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (
            ["wedge-energy"],
            {"digital_mid_scales": [1, 1], "grid": 64, "s": 2.0},
            "alpha=0.0 has j_max=2 at grid 64, s 2.0; the analytic slope fit needs at least 4 scales",
        ),
        # each of these failed after its work began, ended in a traceback, or was taken as given
        (
            ["disc-rate"],
            {"grid": 64, "level_hi": 1e-9, "level_lo": 1e-3},
            "level_lo must be below level_hi, got level_lo=0.001 and level_hi=1e-09",
        ),
        (["disc-rate"], {"level_hi": "x"}, "level_hi must be a number, got 'x'"),
        (
            ["straight-edge-rate"],
            {"grid": 64, "bump_window": [32]},
            "bump_window must hold two entries, got [32]",
        ),
        (["verify-frame"], {"partition_tol": "x"}, "partition_tol must be a number, got 'x'"),
        (["bessel-check"], {"remainder_r_max": "abc"}, "remainder_r_max must be a number, got 'abc'"),
        (["molecule-distance"], {"growth_tol": "x"}, "growth_tol must be a number, got 'x'"),
        (["verify-frame"], {"alphas": ["x"]}, "alphas must be a list of numbers, got ['x']"),
        (["disc-rate"], {"s": "1"}, "s must be a number, got '1'"),
        (
            ["wedge-energy"],
            {"digital_mid_scales": [2.5, -2]},
            "digital_mid_scales must be an integer, got 2.5",
        ),
        (
            ["disc-rate"],
            {"bands": {"half": [-2, -1]}},
            "bands must be an object of number lists keyed by alpha, got {'half': [-2, -1]}",
        ),
        (
            ["disc-rate"],
            {"bands": {"0.5": [-2.4]}},
            "the band for alpha=0.5 must hold two entries, got [-2.4]",
        ),
        (
            ["wedge-energy"],
            {"digital_ratio_band": [0.9]},
            "digital_ratio_band must hold two entries, got [0.9]",
        ),
        (["verify-frame"], {"seed": True}, "seed must be a number, got True"),
        pytest.param(
            ["disc-lower-bound"],
            {"alphas": [0.5, 1]},
            "disc-lower-bound needs every alpha below 1, got alphas [0.5, 1]",
            marks=pytest.mark.filterwarnings("ignore:alpha = 1 collapses"),
        ),
        # each of these was refused inside the run, with a traceback
        (["molecule-distance", "--alpha", "-0.5"], None, "alpha must lie in [0, 1]"),
        (["molecule-distance"], {"scale_cap": 0.5}, "scale_cap must be finite and >= 1, got 0.5"),
        (["molecule-distance"], {"k_exp": -1}, "k_exp must be finite and positive, got -1.0"),
        (["molecule-distance"], {"spatial_caps": [1.0, -2.0]}, "spatial_cap must be finite and >= 0, got -2.0"),
        (["bessel-check"], {"remainder_r_max": 0.5}, "remainder_r_max must be finite and above 1, got 0.5"),
        (["generator-decay"], {"probe_step": 0}, "probe_step must be positive and finite, got 0.0"),
        (["generator-decay"], {"probe_step": -0.1}, "probe_step must be positive and finite, got -0.1"),
        # each of these frames lacks the probe tile (2, 1), which the run looked up after its plan
        pytest.param(
            ["molecule-distance"],
            {"alpha": 1.0},
            "ell=1 invalid at scale 2",
            marks=pytest.mark.filterwarnings("ignore:alpha = 1 collapses"),
        ),
        (["molecule-distance"], {"s_a": 0.1}, "ell=1 invalid at scale 2"),
        # numpy refused this grid inside the run, with a traceback
        (["generator-decay"], {"probe_step": 1e-300}, "probe grid of inf points, above PROBE_POINT_LIMIT = 2000000"),
        # each of these passed its plan, then built or summed for minutes or more
        (["verify-frame"], {"alphas": [-2]}, "tiles, above TILE_LIMIT = 131,072"),
        (["disc-rate", "--s", "1e-5"], None, "s=1e-05, alpha=0.5, grid_n=1024 has at least 262,144 tiles"),
        (["molecule-distance"], {"scale_cap": 64}, "or more, above PAIR_LIMIT = 2,147,483,648"),
        # 2**s overflowed, with a traceback
        (["disc-rate", "--s", "1e300"], None, "s must be at most S_LIMIT = 512, got 1e+300"),
        # the tail curve could not fill the fit window, with a traceback after the quadratures
        (
            ["disc-lower-bound", "--grid", "64", "--s", "2"],
            None,
            "alpha=0.25 at grid 64, s 2.0 has the tile-count fit window (21, 5), which holds fewer than 5",
        ),
        # each of these passed with a growth of 0 or below, with nothing to measure
        (["molecule-distance"], {"spatial_caps": [4.0, 2.0]}, "spatial_caps must strictly increase, got [4.0, 2.0]"),
        (["molecule-distance"], {"spatial_caps": [2.0, 2.0]}, "spatial_caps must strictly increase, got [2.0, 2.0]"),
        # each of these rendered grid**2 * antialias**2 samples, for hours or out of memory;
        # 1024**2 * 64**2 is the limit, 2**32
        (
            ["disc-rate"],
            {"antialias": 100000},
            "a render at grid 1024, antialias 100000 takes 10,485,760,000,000,000 samples, "
            "above SAMPLE_LIMIT = 4,294,967,296",
        ),
        (["disc-rate"], {"antialias": 65}, "antialias 65 takes 4,430,233,600 samples, above SAMPLE_LIMIT"),
        (["straight-edge-rate"], {"antialias": 65}, "antialias 65 takes 4,430,233,600 samples, above SAMPLE_LIMIT"),
        (["wedge-energy"], {"antialias": 65}, "antialias 65 takes 4,430,233,600 samples, above SAMPLE_LIMIT"),
        (["apriori-decay"], {"antialias": 65}, "antialias 65 takes 4,430,233,600 samples, above SAMPLE_LIMIT"),
        # the disc of --dump-pgm and --dump-coeffs, at antialias 4
        (["generator-decay"], {"grid": 16386}, "grid 16386, antialias 4 takes 4,296,015,936 samples, above SAMPLE_LIMIT"),
        # the smooth factor's ramp was evaluated with an error above 1, and the run printed a FAIL
        (["straight-edge-rate"], {"beta": 25}, "beta must be at most BETA_LIMIT = 7, got 25"),
        # each of these ran the whole experiment, then failed its fit window
        (
            ["straight-edge-rate"],
            {"grid": 64, "bump_window": [512, 32]},
            "bump_window must have its low end below its high end, got [512, 32]",
        ),
        # each of these fitted an image with no edge in it: all zero at 5.0, the smooth factor alone at -5.0
        (
            ["straight-edge-rate"],
            {"edge_c": 5.0, "grid": 64},
            "edge_c=5.0 misses the grid: |edge_c| must be below |cos edge_phi| + |sin edge_phi| = 1.4",
        ),
        (
            ["straight-edge-rate"],
            {"edge_c": -5.0, "grid": 64},
            "edge_c=-5.0 misses the grid: |edge_c| must be below |cos edge_phi| + |sin edge_phi| = 1.4",
        ),
        # json reads NaN and Infinity: a NaN level_hi passed the lo >= hi check and fitted a
        # window level_window made up, and an infinite growth_tol passed any growth
        (["disc-rate", "--grid", "128"], {"level_hi": float("nan")}, "level_hi must be a number, got nan"),
        (["molecule-distance"], {"growth_tol": float("inf")}, "growth_tol must be a number, got inf"),
        (["disc-rate", "--s", "inf"], None, "s must be a number, got inf"),
        # an integer too large for a float ended in an OverflowError traceback
        (["disc-rate"], {"s": 10**400}, "s must be a number, got 1000"),
    ],
)
def test_an_out_of_range_value_is_a_usage_error(args, config, message, no_work, tmp_path, capsys):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = [*args, "--config", os.fspath(tmp_path / "cfg.json")]
    _refused_with_either_out(args, message, tmp_path, capsys)


@pytest.mark.parametrize(
    "config,message",
    [
        (None, "No such file or directory"),
        ('{"grid": 64,', "Expecting property name enclosed in double quotes"),
    ],
)
def test_a_config_file_that_cannot_be_read_is_a_usage_error(config, message, no_work, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(config)
    err = _refused_with_either_out(["bessel-check", "--config", os.fspath(path)], message, tmp_path, capsys)
    assert os.fspath(path) in err


@pytest.mark.parametrize("pgm", ["nodir/x.pgm", "."])
def test_a_pgm_path_that_cannot_be_written_is_a_usage_error(pgm, no_work, tmp_path, capsys):
    # a PGM in a missing directory was written after the render, ending in a traceback
    path = tmp_path / pgm
    message = "is a directory" if path.is_dir() else "is not a writable directory"
    err = _refused_with_either_out(["bessel-check"], message, tmp_path, capsys, pgm=path)
    assert os.fspath(path) in err and not (tmp_path / "nodir").exists()


def test_a_pgm_in_the_out_directory_it_makes_is_written(tmp_path, capsys):
    out = tmp_path / "new"
    assert cli.main(["run", "bessel-check", "--out", os.fspath(out), "--dump-pgm", os.fspath(out / "x.pgm")]) == 0
    assert sorted(os.listdir(out)) == ["bessel-check.csv", "bessel-check.gnuplot", "bessel-check.json", "x.pgm"]


@pytest.mark.parametrize(
    "name,coeffs",
    [
        ("bessel-check.csv", False),
        ("bessel-check.json", False),
        ("bessel-check.gnuplot", True),
        ("coefficients.json", True),
        ("coefficients.csv", True),
    ],
)
def test_a_pgm_path_to_a_file_the_run_writes_is_a_usage_error(name, coeffs, no_work, monkeypatch, tmp_path, capsys):
    # the report or the coefficient dump replaced the image, and the run exited 0
    monkeypatch.chdir(tmp_path)
    pgm = tmp_path / "out" / name  # the same file as out/<name>, spelled another way
    dumps = ["--dump-coeffs", "5"] if coeffs else []
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "bessel-check", "--out", "out", "--dump-pgm", os.fspath(pgm), *dumps])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"--dump-pgm {os.fspath(pgm)!r} is a file this run writes in 'out'" in err
    assert not (tmp_path / "out").exists()


def test_a_pgm_named_like_a_dump_the_run_does_not_write_is_written(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "bessel-check", "--out", os.fspath(out), "--dump-pgm", os.fspath(out / "coefficients.csv")]) == 0
    assert (out / "coefficients.csv").read_text().startswith("P2\n")


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_written_files_take_the_mode_of_a_new_file(umask, mode, monkeypatch, tmp_path, capsys):
    # the temp file's 0600 was kept by the rename
    monkeypatch.setitem(cli.RUNNERS, "disc-rate", lambda cfg: lambda: (True, {}, []))
    out, pgm = tmp_path / "out", tmp_path / "x.pgm"
    old = os.umask(umask)
    try:
        args = ["run", "disc-rate", "--grid", "64", "--out", os.fspath(out), "--dump-pgm", os.fspath(pgm)]
        assert cli.main([*args, "--dump-coeffs", "5"]) == 0
    finally:
        os.umask(old)
    written = [pgm, *out.iterdir()]
    assert sorted(p.name for p in written) == [
        "coefficients.csv", "coefficients.json", "disc-rate.csv", "disc-rate.gnuplot", "disc-rate.json", "x.pgm"
    ]
    assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {mode}


def test_bessel_check_checks_bessel_j(monkeypatch):
    # it compared mpmath's besselj with the closed forms, so an error in bessel_j went unseen
    exact = cli.bessel.bessel_j

    def off(order, r):
        return exact(order, r) + (1e-9 if abs(order) == 0.5 else 0.0)

    monkeypatch.setattr(cli.bessel, "bessel_j", off)
    _ok, results, _rows = cli.RUNNERS["bessel-check"](cli.resolve_config("bessel-check", None, {}))()
    assert results["closed_form_max_dev"] >= 1e-9


def test_bessel_check_does_not_load_mpmath():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys, alphacurvelets.cli as cli\n"
        "ok, results, rows = cli.RUNNERS['bessel-check'](cli.resolve_config('bessel-check', None, {}))()\n"
        "assert ok, results\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "experiment,args,config,reason",
    [
        ("disc-rate", ["--grid", "64"], None, "fit window (2048, 3800) selects fewer than 5 points"),
        ("disc-rate", [], {"schedule_start": 100000, "grid": 64}, "degenerate level window [3800, 3800]"),
        (
            "straight-edge-rate",
            [],
            {"schedule_start": 100000, "grid": 64},
            "bump_alpha_half: fit window (32, 512) selects fewer than 5 points",
        ),
    ],
)
def test_a_rate_curve_too_short_for_its_fit_window_fails(experiment, args, config, reason, tmp_path, capsys):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = [*args, "--config", os.fspath(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert cli.main(["run", experiment, *args, "--out", os.fspath(out)]) == 1
    assert sorted(os.listdir(out)) == [experiment + ext for ext in (".csv", ".gnuplot", ".json")]
    stdout = capsys.readouterr().out
    assert stdout.startswith(f"{experiment}: FAIL") and "fit_error: " in stdout and reason in stdout
    results = json.loads((out / f"{experiment}.json").read_text())["results"]
    assert results["pass"] is False and reason in results["fit_error"]
    for key, val in results.items():  # each failed fit shows as None, each other its slope
        if val is None or isinstance(val, dict):
            assert (f"{key}=None" if val is None else f"{key}.slope={val['slope']}") in stdout.splitlines()[1]
    assert (out / f"{experiment}.csv").read_text().count("\n") > 1  # the curve is kept


@pytest.mark.parametrize("config", [{"grid": 128}, {"grid": 64, "schedule_start": 100000}])
def test_straight_edge_rate_holds_one_frame_and_one_image_at_a_time(config, monkeypatch):
    frames, images, events = [], [], []

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def build(params):
        events.append(("build", params.alpha, alive(frames), alive(images)))
        frames.append(weakref.ref(frame := DigitalCurveletFrame.build(params)))
        return frame

    def tracked_render(spec, grid):
        events.append(("render", spec.kind, alive(frames), alive(images)))
        images.append(weakref.ref(img := render(spec, grid)))
        return img

    monkeypatch.setattr(cli, "DigitalCurveletFrame", types.SimpleNamespace(build=build))
    monkeypatch.setattr(cli, "render", tracked_render)
    ok, results, rows = cli.RUNNERS["straight-edge-rate"](cli.resolve_config("straight-edge-rate", None, config))()
    # (event, what, frames alive, images alive) as each frame or image is made
    assert events == [
        ("build", 0.25, 0, 0),
        ("render", "half_space", 1, 0),
        ("build", 0.5, 0, 1),
        ("render", "smooth_bump", 1, 0),
    ]
    # reported in the order edge alpha=1/2, edge alpha=1/4, bump alpha=1/2
    names = ["edge_alpha_half", "edge_alpha_quarter", "bump_alpha_half"]
    assert list(results)[:4] == [*names, "band_alpha_half"]
    runs = [row["run"] for row in rows]
    assert [run for i, run in enumerate(runs) if i == 0 or run != runs[i - 1]] == [
        "half_space-alpha0.5",
        "half_space-alpha0.25",
        "smooth_bump-alpha0.5",
    ]
    failed = [name for name in names if results[name] is None]
    if failed:
        assert not ok and list(results)[4:] == ["fit_error"]
        assert [part.split(":")[0] for part in results["fit_error"].split("; ")] == failed == names
    else:
        assert list(results) == [*names, "band_alpha_half"]


@pytest.mark.parametrize("experiment", ["molecule-distance", "bessel-check"])
def test_run_experiment_writes_what_run_writes(experiment, tmp_path, capsys):
    by_main, by_call = tmp_path / "main", tmp_path / "call"
    code = cli.main(["run", experiment, "--out", os.fspath(by_main)])
    cfg = cli.resolve_config(experiment, None, {})
    assert cli.run_experiment(experiment, cfg, os.fspath(by_call)) == code
    names = [experiment + ext for ext in (".csv", ".gnuplot", ".json")]
    assert sorted(os.listdir(by_main)) == sorted(os.listdir(by_call)) == names
    for name in names:
        assert (by_call / name).read_bytes() == (by_main / name).read_bytes()
    # each run prints every number its report holds at the top level, under its verdict
    results = json.loads((by_main / f"{experiment}.json").read_text())["results"]
    measured = "  " + ", ".join(f"{key}={val}" for key, val in results.items() if key != "pass")
    assert capsys.readouterr().out.splitlines()[1::3] == [measured, measured]


def test_apriori_decay_fits_the_atom_slope_over_fit_scales(monkeypatch):
    # the packaged [2, -1] is the window the atom fit once had fixed; [3, -1] moves both fits
    calls = []
    atoms = cli.appr.atom_l1_decay

    def recorded(frame, fit_scales):
        calls.append((fit_scales, atoms(frame, fit_scales)))
        return calls[-1][1]

    monkeypatch.setattr(cli.appr, "atom_l1_decay", recorded)
    cfg = cli.resolve_config("apriori-decay", None, {"grid": 256, "alphas": [0.5], "fit_scales": [3, -1]})
    _, results, _ = cli.run_apriori_decay(cfg)()
    [(window, atom)] = calls
    assert window == (3, 5)

    def slope(lo, hi):
        usable = [r for r in atom["rows"] if lo <= r["j"] <= hi]
        return float(np.polyfit([r["j"] for r in usable], np.log2([r["l1"] for r in usable]), 1)[0])

    assert results["summaries"][0]["atom_l1_slope"] == atom["l1_slope"] == slope(3, 5) != slope(2, 5)


def test_run_experiment_refuses_a_config_before_writing(no_work, tmp_path):
    cfg = cli.resolve_config("molecule-distance", None, {"alpha": -0.5})
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        cli.run_experiment("molecule-distance", cfg, os.fspath(tmp_path / "out"))
    assert not any(tmp_path.iterdir())


# each would check nothing, or fail after the sums, if it ran
BY_ALPHA = ("verify-frame", "disc-lower-bound", "wedge-energy", "apriori-decay", "generator-decay")
SHORT_LISTS = [
    *((experiment, "alphas", [], 1) for experiment in BY_ALPHA),
    ("molecule-distance", "spatial_caps", [1.0], 2),
    ("molecule-distance", "spatial_caps", [], 2),
]


@pytest.mark.parametrize("experiment,key,value,least", SHORT_LISTS)
def test_a_list_too_short_to_check_is_refused_before_any_work(
    experiment, key, value, least, no_work, tmp_path, capsys
):
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    config = ["--config", os.fspath(tmp_path / "cfg.json")]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", experiment, *config, "--out", os.fspath(out), *_dumps(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    message = f"{key} must be a list of at least {least} entries, got {value}"
    assert err.startswith("usage: alphacurvelets run") and message in err
    assert "Traceback" not in err and not out.exists()
    _assert_no_dumps(tmp_path)


@pytest.mark.parametrize("experiment", list(cli.RUNNERS))
def test_a_plan_does_no_work(experiment, no_work):
    assert callable(cli.RUNNERS[experiment](cli.resolve_config(experiment, None, {})))


def test_every_packaged_value_has_a_kind(no_work):
    for experiment, block in cli.load_defaults()["experiments"].items():
        for key, value in block.items():
            assert cli._kind(value) is not None, (experiment, key, value)
    # a whole number written as a float is still a number, and CartoonSpec takes it as beta
    assert callable(cli.run_straight_edge_rate(cli.resolve_config("straight-edge-rate", None, {"beta": 2.0})))


@pytest.mark.parametrize("grid,grids", [(66, [66, 32, 32]), (264, [264, 132, 32])])
def test_verify_frame_rounds_its_tight_and_oracle_grids_down_to_even(grid, grids):
    # grid // 2 is odd at 66 and grid // 8 at 264, and FrameParams refuses an odd grid
    cfg = cli.resolve_config("verify-frame", None, {"grid": grid, "alphas": [0.5], "n_random_images": 1})
    ok, results, _ = cli.run_verify_frame(cfg)()
    assert ok and results["grids"] == grids


def test_a_dump_made_in_chunks_is_the_one_chunk_dump(tmp_path, frame64, monkeypatch):
    coeffs = analyze(np.random.default_rng(19).standard_normal((64, 64)), frame64)
    dumps = {}
    for rows in (coeffs.total_count, 7):  # one chunk, then many ending in a partial one
        monkeypatch.setattr(cli, "DUMP_CHUNK_ROWS", rows)
        for top_k in (None, 1000):
            _, cpath = dump_coefficients(coeffs, frame64, os.fspath(tmp_path / f"c{rows}-{top_k}"), top_k)
            dumps[rows, top_k] = Path(cpath).read_bytes()
    for top_k in (None, 1000):
        assert dumps[7, top_k] == dumps[coeffs.total_count, top_k]
    assert dumps[7, None].count(b"\n") == coeffs.total_count + 1


@pytest.mark.parametrize("window,scales", [([2, 50], [2, 3, 4, 5, 6, 7, 8]), ([-3, 4], [0, 1, 2, 3, 4])])
def test_a_scale_window_is_clipped_to_the_frame_scales(window, scales, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid": 256, "digital_mid_scales": window}))
    out = tmp_path / "out"
    assert cli.main(["run", "wedge-energy", "--config", os.fspath(config), "--out", os.fspath(out)]) in (0, 1)
    ratios = json.loads((out / "wedge-energy.json").read_text())["results"]["digital"]["ratios"]
    assert [r["j"] for r in ratios] == scales
