"""Steadiness check: repeat workloads over several seeds, compare spreads to bounds.

Run from the repository root::

    python3 perfbench/steady.py --workloads nterm-roundtrip,frame-sweep,reproduce \\
        --seeds 10 --save perfbench/results/steady-a.json
    python3 perfbench/steady.py ... --save perfbench/results/steady-b.json \\
        --against perfbench/results/steady-a.json

For every end-to-end metric it prints the median over the seeds and the
distance between first and third quartile as a share of the median,
against the metric's bound in ``BENCHMARK.json`` (a spread under a third
of the bound counts as steady, one over the bound as too wide).
With ``--against`` it also checks that no median is worse than the
earlier set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import stats

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    bench = metrics.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one run each")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", default=None, help="write the collected values here")
    ap.add_argument("--against", default=None, help="earlier --save file to compare medians with")
    args = ap.parse_args(argv)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    collected: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        t0 = time.monotonic()
        runs = [run_once(workload, seed, args.seconds) for seed in range(1, args.seeds + 1)]
        wall = (time.monotonic() - t0) / args.seeds
        values = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in bench["end_to_end"]}
        collected[workload] = {
            "values": values,
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
        }
        print(f"{workload}: correct {collected[workload]['correct']}, failed {collected[workload]['failed']} "
              f"of {collected[workload]['attempted']}; {wall:.0f} s per run")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            spread = stats.quartile_spread(vals)
            med = statistics.median(vals)
            held = spread <= m["bound"]
            verdict = "steady" if spread <= m["bound"] / 3 else ("within bound" if held else "TOO WIDE")
            line = (f"  {m['name']:<12} median {med:12.6g} {m['unit']:<5} spread {spread:7.2%} "
                    f"bound {m['bound']:.0%}  {verdict}")
            if workload in earlier:
                before = statistics.median(earlier[workload]["values"][m["name"]])
                worse = worse_by(m, before, med)
                line += f"  vs earlier {worse:+.2%} {'ok' if worse <= m['bound'] else 'WORSE'}"
                held = held and worse <= m["bound"]
            ok = ok and held
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(collected, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
