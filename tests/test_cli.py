import json
import os
import stat

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
    path.write_text(json.dumps({"grid": 128, "slope_tol": 0.5, "seed": 11}))
    cfg = cli.resolve_config("disc-lower-bound", os.fspath(path), {"seed": 3, "alpha": None})
    assert (cfg["grid"], cfg["slope_tol"], cfg["seed"]) == (128, 0.5, 3)
    assert cfg["alphas"] == cli.load_defaults()["experiments"]["disc-lower-bound"]["alphas"]


def test_json_default_converts_numpy_scalars():
    doc = {"i": np.int64(7), "f": np.float32(0.5), "b": np.bool_(True)}
    assert json.loads(json.dumps(doc, default=cli._json_default)) == {"i": 7, "f": 0.5, "b": True}
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


def test_rerun_is_byte_identical(tmp_path):
    out1 = os.fspath(tmp_path / "a")
    out2 = os.fspath(tmp_path / "b")
    args = ["run", "molecule-distance", "--seed", "3"]
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    csv1 = open(os.path.join(out1, "molecule-distance.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "molecule-distance.csv"), "rb").read()
    assert csv1 == csv2
    j1 = open(os.path.join(out1, "molecule-distance.json"), "rb").read()
    j2 = open(os.path.join(out2, "molecule-distance.json"), "rb").read()
    assert j1 == j2


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


def test_rate_params_snap_only_when_configured():
    snapped = cli._rate_params({"snapped_ladder": True, "s": 1.0}, 0.5, 128)
    assert snapped == cli.FrameParams.nyquist_snapped(1.0, 0.5, 128)
    for cfg in ({"snapped_ladder": False, "s": 1.0}, {"s": 1.0}):
        assert cli._rate_params(cfg, 0.5, 128) == cli.FrameParams(s=1.0, alpha=0.5, grid_n=128)
    assert snapped != cli._rate_params({"s": 1.0}, 0.5, 128)


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
