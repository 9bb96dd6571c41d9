"""Print one SHA-256 digest per experiment report.

Run it at two commits and compare the lines to show that a change leaves
every report byte-identical.  Each experiment of ``alphacurvelets run``
runs at its packaged defaults, one process at a time, into a temporary
directory; its digest covers the bytes of its ``.csv``, ``.json`` and
``.gnuplot`` files, in that order.  Each line also gives the run's exit
status, 0 for PASS and 1 for FAIL.

Usage, from the repository root: ``python tools/report_digest.py``
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from alphacurvelets.cli import RUNNERS  # noqa: E402

SUFFIXES = (".csv", ".json", ".gnuplot")


def report_digest(experiment: str, out_dir: str) -> tuple[int, str]:
    """The exit status of one run of ``experiment`` into ``out_dir`` and
    the digest of the reports it wrote."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    cmd = [sys.executable, "-m", "alphacurvelets.cli", "run", experiment, "--out", out_dir]
    status = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
    h = hashlib.sha256()
    for suffix in SUFFIXES:
        with open(os.path.join(out_dir, experiment + suffix), "rb") as fh:
            h.update(fh.read())
    return status, h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        for experiment in RUNNERS:
            status, digest = report_digest(experiment, out_dir)
            print(f"{experiment} (exit {status}): {digest}")


if __name__ == "__main__":
    main()
