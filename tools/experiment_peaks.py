"""Print each experiment's peak resident memory and wall time.

Run it at two commits and compare the lines to see what a change does to
each experiment's memory.  Each experiment of ``alphacurvelets run`` runs
at its packaged defaults, one process at a time, into a temporary
directory, as ``tools/report_digest.py`` runs them.  Each line gives the
run's exit status (0 for PASS, 1 for FAIL), the process's peak resident
set size (``ru_maxrss`` of that process alone, in MB) and its wall time.

Usage, from the repository root: ``python tools/experiment_peaks.py``
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}


def experiments() -> list[str]:
    """The experiment names, read in a child process: a child's ``ru_maxrss``
    starts at the RSS of the process that starts it, so this one imports no numpy."""
    code = "from alphacurvelets.cli import RUNNERS; print(*RUNNERS)"
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True).stdout.split()


def experiment_peak(experiment: str, out_dir: str) -> tuple[int, float, float]:
    """The exit status, peak RSS in MB and wall time in seconds of one run
    of ``experiment`` into ``out_dir``."""
    cmd = [sys.executable, "-m", "alphacurvelets.cli", "run", experiment, "--out", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # the usage of this child alone
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss / 1024.0, wall  # ru_maxrss is in KiB on Linux


def main() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        for experiment in experiments():
            status, peak_mb, wall = experiment_peak(experiment, out_dir)
            print(f"{experiment} (exit {status}): peak {peak_mb:.1f} MB, {wall:.2f} s")


if __name__ == "__main__":
    main()
