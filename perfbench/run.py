"""Benchmark of the alphacurvelets package: one workload, one seed, one result.

Run from the repository root::

    python3 perfbench/run.py --workload nterm-roundtrip --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``nterm-roundtrip``: analyze a cartoon, threshold to N terms, synthesize.
* ``frame-sweep``: build, verify and round-trip a frame with fresh parameters.
* ``reproduce``: batches of the paper's experiments with PASS/FAIL verdicts.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` is
the median over several fresh processes, the others come from one
measuring process (``worker.py``).  With ``--trace 1`` a traced process
records spans around every call into a layer and the run reports the
per-layer metrics, plus the tracing overhead against an untraced replay
of the same requests.  The report lines come first; the last line of
standard output is the JSON result.  Full results and spans are written
under ``perfbench/results/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics
import stats
from worker import HERE, RESULTS, SRC, THREAD_VARS

DEFAULT_SEED = {"nterm-roundtrip": 1, "frame-sweep": 1, "reproduce": 1}
SETUP_RUNS = 5  # fresh processes whose median is setup_s
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload and seed within the deadline."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + DEADLINE_S
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = {**os.environ, "PYTHONPATH": str(SRC), **{v: nproc for v in THREAD_VARS}}

    def worker(self, mode: str, *extra: str) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--seconds", str(self.seconds), *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next worker")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _correct(tally: dict, known: dict) -> bool:
    """True when every failure is a known defect whose output the check verified."""
    return all(cause in known for cause in tally["causes"])


def end_to_end(runner: Runner, units: dict) -> tuple[dict, dict, list[str]]:
    setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_RUNS - 1)]
    run = runner.worker("measure")
    setups.append(run["setup_s"])
    latencies = run["latencies"]
    if run["batch"]:
        latencies = stats.cycle_sums(latencies, run["cycle"])
    lat = stats.latency_summary(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_per_s": stats.throughput(run["latencies"]),
        "op_p50_ms": 1e3 * lat["p50"],
        "op_p90_ms": 1e3 * lat["tail"],
    }
    tally = stats.tally(run["outcomes"])
    alias = metrics.ALIASES[runner.workload]
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes",
        "ops_per_s": (
            f"{len(run['latencies'])} operations over their summed latencies, closed loop, one client"
        ),
        "op_p50_ms": f"median of {lat['n']} " + ("batch time(s)" if run["batch"] else "request times"),
        "op_p90_ms": (
            f"p{100 * lat['tail_level']:.4g} of {lat['n']}: highest percentile <= p90 with 10 beyond"
            if lat["n"] > 2 * stats.TAIL_BEYOND
            else f"fewer than {2 * stats.TAIL_BEYOND + 1} requests: no tail percentile, the median stands in"
        ),
    }
    lines = [
        f"{alias.get(name, name):<20} {value:14.6g} {units[name]:<6} [{name}] {notes.get(name, '')}"
        for name, value in values.items()
    ]
    if run["batch"]:
        lines.append(f"{'reproduce_s':<20} {lat['p50']:14.6g} s      median time to all {run['cycle']} verdicts")
    lines += _failure_lines(tally, run["known_defects"])
    result = {"values": values, "tally": tally, "setups": setups, "run": run}
    return values, result, lines


def traced(runner: Runner) -> tuple[dict, dict, list[str]]:
    spans = RESULTS / f"spans-{runner.workload}-seed{runner.seed}.jsonl"
    run = runner.worker("trace", "--spans", str(spans))
    replay = runner.worker("measure")  # the same requests, untraced
    untraced = sum(replay["latencies"])
    values = dict(run["layers"])
    values["trace.overhead_ratio"] = (sum(run["latencies"]) - untraced) / untraced
    tally = stats.tally(run["outcomes"])
    lines = [f"spans: {spans} ({len(run['latencies'])} requests, replayed untraced)"]
    lines += _failure_lines(tally, run["known_defects"])
    replay_tally = stats.tally(replay["outcomes"])
    result = {"values": values, "tally": tally, "replay_tally": replay_tally, "run": run}
    return values, result, lines


def _failure_lines(tally: dict, known: dict) -> list[str]:
    lines = [
        f"{'failed_ratio':<20} {tally['failed_ratio']:14.6g} ratio  "
        f"{tally['failed']} of {tally['attempted']} operations failed"
    ]
    for cause, count in sorted(tally["causes"].items()):
        why = f" -- known defect: {known[cause]}" if cause in known else ""
        lines.append(f"  {count} x {cause}{why}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEED))
    ap.add_argument("--seed", type=int, default=None, help="default: per workload, see DEFAULT_SEED")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed

    if not (SRC / "alphacurvelets" / "__init__.py").is_file():
        print(f"perfbench: no alphacurvelets package under {SRC}", file=sys.stderr)
        return 2
    bench = metrics.load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(args.workload, seed, args.seconds)
    try:
        values, result, lines = traced(runner) if args.trace else end_to_end(runner, units)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    env = result["run"]["env"]
    print(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, numba in use: {env['using_numba']}, "
        f"nproc {env['nproc']}, thread caps {env['threads']}"
    )
    if args.trace:
        for name, unit in units.items():
            print(f"{name:<44} {values[name]:14.6g} {unit:<5} moves: {metrics.MOVES[name]}")
    print("\n".join(lines))
    out = RESULTS / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    tally = result["tally"]
    correct = _correct(tally, result["run"]["known_defects"])
    if args.trace:
        correct = correct and _correct(result["replay_tally"], result["run"]["known_defects"])
    print(f"correct: {correct}; full result: {out}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
