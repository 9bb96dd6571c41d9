import hashlib
import importlib.util
import os
import re

import numpy as np

from alphacurvelets import cli
from alphacurvelets.tiling import FrameParams, build_layout

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_runs_every_experiment():
    assert load_tool("report_digest").experiments() == list(cli.RUNNERS)


def test_report_digest_matches_the_reports_of_an_in_process_run(tmp_path):
    status, digest, peak_mb, wall = load_tool("report_digest").run_experiment("disc-lower-bound", str(tmp_path / "child"))
    assert status == 0 and peak_mb > 0 and wall > 0
    here = tmp_path / "here"
    assert cli.main(["run", "disc-lower-bound", "--out", str(here)]) == 0
    h = hashlib.sha256()
    for suffix in (".csv", ".json", ".gnuplot"):
        h.update((here / ("disc-lower-bound" + suffix)).read_bytes())
    # the child's reports are the in-process run's, byte for byte
    assert digest == h.hexdigest()


def test_digest_prints_one_line_per_set(monkeypatch, capsys):
    tool = load_tool("digest")
    # the layout sets on their first frame each, grids 128 and 64; the render and curve sets in full
    few = {"frame-sweep": lambda: tool.frame_sweep_frames(count=1), "grids": lambda: tool.grid_frames()[:1]}
    sets = [(name, items, few.get(name, inputs), update) for name, items, inputs, update in tool.SETS]
    monkeypatch.setattr(tool, "SETS", sets)
    tool.main()
    heads, digests = zip(*(line.split(": ") for line in capsys.readouterr().out.splitlines()))
    assert heads == (
        "frame-sweep (1 layouts)",
        "grids (1 layouts)",
        "experiments (3 renders)",
        "nterm-roundtrip (12 renders)",
        "oracle (30 renders)",
        "curves (8 curves)",
    )
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)


def test_layout_digest_covers_every_window_bit(monkeypatch):
    tool = load_tool("digest")
    params = FrameParams(1.0, 0.5, 64)
    before = tool.digest(tool.update_layout, [params])
    layout = build_layout(params)
    monkeypatch.setattr(tool, "build_layout", lambda _: layout)
    assert tool.digest(tool.update_layout, [params]) == before
    sup = layout.wedges[len(layout.wedges) // 2]
    sup.window = sup.window.copy()  # a folded tile shares its window with its mirror
    sup.window[0] = np.nextafter(sup.window[0], 2.0)
    assert tool.digest(tool.update_layout, [params]) != before
