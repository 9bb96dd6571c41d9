"""Arithmetic of the benchmark: percentiles, spreads, span times, failure tallies.

Pure functions on plain Python data, so the rules the report depends on
can be tested without running a workload.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

TAIL_LEVEL = 0.9
TAIL_BEYOND = 10


def tail_level(n: int) -> float:
    """Highest percentile level, at most p90, with ten samples beyond it.

    With nearest-rank percentiles the level ``q`` leaves ``n - ceil(q*n)``
    samples above it, so ``q = (n - 10) / n`` is the highest level that
    keeps ten beyond.  Below twenty samples no level at or above the
    median qualifies and the median is reported instead.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return max(0.5, min(TAIL_LEVEL, (n - TAIL_BEYOND) / n))


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q*n)``-th smallest value."""
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[k - 1]


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail of per-operation latencies, with the tail's level."""
    level = tail_level(len(latencies))
    tail = nearest_rank(latencies, level) if level > 0.5 else statistics.median(latencies)
    return {
        "n": len(latencies),
        "p50": statistics.median(latencies),
        "tail": tail,
        "tail_level": level,
    }


def throughput(latencies: list[float]) -> float:
    """Operations per second of timed work: the count over the summed latencies.

    A run's requests are a fixed, evenly spread sample of the workload's
    inputs, so the whole run estimates the mix.  The mean also moves less
    than a median of cycle rates when the shared host switches between a
    fast and a slow speed for tens of seconds at a time: a median jumps to
    whichever speed held for most of the run, the mean moves in proportion.
    """
    return len(latencies) / sum(latencies)


def cycle_sums(latencies: list[float], cycle: int) -> list[float]:
    """Time taken by each complete cycle of ``cycle`` consecutive requests."""
    return [sum(latencies[k : k + cycle]) for k in range(0, len(latencies) - cycle + 1, cycle)]


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def busy_time(spans: list[dict], name: str) -> float:
    """Wall time during which at least one span of ``name`` was open.

    Taking the union keeps a recursive call from counting its time twice.
    """
    return union_length([(s["start"], s["end"]) for s in spans if s["name"] == name])


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span id: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children.get(s["id"], [])
            if hi > s["start"] and lo < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped)
    return out


def tally(outcomes: list[str | None]) -> dict:
    """Count failures among per-operation outcomes (None means passed).

    Every attempted operation has an outcome, so a raised exception and a
    failed check both count once and neither stops the run.
    """
    causes = Counter(o for o in outcomes if o is not None)
    attempted = len(outcomes)
    failed = sum(causes.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "causes": dict(causes),
    }
