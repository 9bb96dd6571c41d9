"""Print each experiment's report digest, peak resident memory and wall time.

Run it at two commits and compare the lines: equal digests show that a
change leaves every report byte-identical, and the peaks and times show
what it does to each experiment's memory and speed.  Each experiment of
``alphacurvelets run`` runs once, at its packaged defaults, in its own
process, one at a time, into a temporary directory.  Each line reads
``<experiment> (exit <s>): <sha256>, peak <MB> MB, <wall> s``: the run's
exit status (0 for PASS, 1 for FAIL), the SHA-256 of the bytes of its
``.csv``, ``.json`` and ``.gnuplot`` files in that order, the process's
peak resident set size (``ru_maxrss`` of that process alone) and its wall
time.  A child's ``ru_maxrss`` starts at the RSS of the process that
starts it, so this one imports neither numpy nor the package: it reads
the experiment names in a child too.

Usage, from the repository root: ``python tools/report_digest.py``
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
SUFFIXES = (".csv", ".json", ".gnuplot")


def experiments() -> list[str]:
    """The experiment names, ``cli.RUNNERS``, read in a child process."""
    code = "from alphacurvelets.cli import RUNNERS; print(*RUNNERS)"
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True).stdout.split()


def run_experiment(experiment: str, out_dir: str) -> tuple[int, str, float, float]:
    """The exit status, report digest, peak RSS in MB and wall time in
    seconds of one run of ``experiment`` into ``out_dir``."""
    cmd = [sys.executable, "-m", "alphacurvelets.cli", "run", experiment, "--out", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # the usage of this child alone
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    h = hashlib.sha256()
    for suffix in SUFFIXES:
        with open(os.path.join(out_dir, experiment + suffix), "rb") as fh:
            h.update(fh.read())
    return proc.returncode, h.hexdigest(), usage.ru_maxrss / 1024.0, wall  # ru_maxrss is in KiB on Linux


def main() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        for experiment in experiments():
            status, digest, peak_mb, wall = run_experiment(experiment, out_dir)
            print(f"{experiment} (exit {status}): {digest}, peak {peak_mb:.1f} MB, {wall:.2f} s")


if __name__ == "__main__":
    main()
