import io
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from alphacurvelets import cli


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
    assert open(files["csv"]).read() == "\n"
    report = json.load(open(files["json"]))
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
    report = json.load(open(os.path.join(out, "verify-frame.json")))
    assert report["results"]["pass"] is True
    assert report["config_sha1"]
    header, *lines = open(os.path.join(out, "verify-frame.csv")).read().splitlines()
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
    csv1 = open(os.path.join(out1, "molecule-distance.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "molecule-distance.csv"), "rb").read()
    assert csv1 == csv2
    j1 = open(os.path.join(out1, "molecule-distance.json"), "rb").read()
    j2 = open(os.path.join(out2, "molecule-distance.json"), "rb").read()
    assert j1 == j2


def test_report_config_reruns_byte_identically(tmp_path):
    out1 = os.fspath(tmp_path / "a")
    out2 = os.fspath(tmp_path / "b")
    assert cli.main(["run", "bessel-check", "--out", out1]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.load(open(os.path.join(out1, "bessel-check.json")))["config"]))
    assert cli.main(["run", "bessel-check", "--config", os.fspath(config), "--out", out2]) == 0
    for ext in (".json", ".csv"):
        first = open(os.path.join(out1, "bessel-check" + ext), "rb").read()
        assert open(os.path.join(out2, "bessel-check" + ext), "rb").read() == first


def test_plot_columns_follow_the_documented_csv_headers():
    doc = open(os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")).read()
    headers = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 3 and cells[1] in cli.RUNNERS:
            headers[cells[1]] = cells[2].strip("`").split(", ")
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
        raise ValueError("inside the run")

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
        cli.run_disc_rate(cli.resolve_config("disc-rate", None, {"grid": 128}))
    assert asked == [cli.FrameParams.nyquist_snapped(1.0, 0.5, 128)]


def test_unusable_out_is_refused_before_the_run(monkeypatch, tmp_path, capsys):
    def run(cfg):
        raise AssertionError("experiment ran before --out was checked")

    monkeypatch.setitem(cli.RUNNERS, "bessel-check", run)
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
    with open(tmp_path / "stdout", "wb") as raw:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(raw))
        assert cli.main(["run", "molecule-distance", "--out", os.fspath(out)]) == 0
        assert cli.main(["list"]) == 0
        monkeypatch.undo()
    assert sorted(os.listdir(out)) == [f"molecule-distance.{ext}" for ext in ("csv", "gnuplot", "json")]
    assert json.load(open(out / "molecule-distance.json"))["results"]["pass"] is True
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
    assert open(pgm).readline().strip() == "P2"
    coeffs_csv = os.path.join(out, "coefficients.csv")
    assert len(open(coeffs_csv).read().strip().split("\n")) == 6


def test_every_experiment_has_runner_and_band():
    assert list(cli.RUNNERS) == list(cli.BAND_NOTES)
    defaults = cli.load_defaults()
    assert set(cli.RUNNERS) == set(defaults["experiments"])


def test_disc_rate_note_names_every_configured_band():
    bands = cli.load_defaults()["experiments"]["disc-rate"]["bands"]
    for lo, hi in bands.values():
        assert f"[{lo},{hi}]" in cli.BAND_NOTES["disc-rate"]
