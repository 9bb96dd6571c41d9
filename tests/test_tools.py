import hashlib
import importlib.util
import os
import re

from alphacurvelets import cli

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_report_digest():
    return load_tool("report_digest")


def test_report_digest_runs_every_experiment():
    assert load_report_digest().experiments() == list(cli.RUNNERS)


def test_report_digest_matches_the_reports_of_an_in_process_run(tmp_path):
    status, digest, peak_mb, wall = load_report_digest().run_experiment("disc-lower-bound", str(tmp_path / "child"))
    assert status == 0 and peak_mb > 0 and wall > 0
    here = tmp_path / "here"
    assert cli.main(["run", "disc-lower-bound", "--out", str(here)]) == 0
    h = hashlib.sha256()
    for suffix in (".csv", ".json", ".gnuplot"):
        h.update((here / ("disc-lower-bound" + suffix)).read_bytes())
    # the child's reports are the in-process run's, byte for byte
    assert digest == h.hexdigest()


def test_curve_digest_prints_one_digest(capsys):
    assert load_tool("curve_digest").main() == 0
    assert re.fullmatch(r"curves \(8 curves\): [0-9a-f]{64}\n", capsys.readouterr().out)
