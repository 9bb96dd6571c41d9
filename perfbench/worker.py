"""One workload process: set-up, one warm-up request, then timed requests.

``run.py`` starts this file as a fresh process and reads the JSON object
it prints last.  Modes:

* ``setup``: set up only; reports ``setup_s``.
* ``measure``: set up, then send the run's requests: a fixed number of
  cycles for a nominal run of ``--seconds`` (``workloads.run_ops``), so
  a seed always makes the same requests, whatever the machine's speed.
* ``trace``: as ``measure``, with the layer wrappers installed before
  set-up; writes the spans to ``--spans`` and reports layer metrics.

``setup_s`` runs from before ``import alphacurvelets`` until the first
request can be sent, so it includes the frame build, input rendering
and the warm-up request.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"  # the checkout's package, put on PYTHONPATH by run.py
RESULTS = HERE / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")


def run_requests(wl, tracer, ops: int) -> dict:
    """Closed loop, one client: each request is sent when the last returned.

    A raised exception or a failed check is that request's outcome; the
    loop carries on.  Inputs are generated and outputs checked outside
    the timed call.
    """
    latencies: list[float] = []
    outcomes: list[str | None] = []
    for i in range(ops):
        req = wl.request(i)
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        try:
            out, error = wl.call(req), None
        except Exception as exc:  # the request failed; record it and go on
            out, error = None, exc
        latencies.append(time.perf_counter() - t)
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            if error is not None:
                outcome = f"{type(error).__name__}: {error}"
            else:
                try:
                    outcome = wl.check(req, out)
                except Exception as exc:  # a check that cannot run is a failed check
                    outcome = f"check raised {type(exc).__name__}: {exc}"
        out = None  # release this request's output before the next one runs
        outcomes.append(outcome)
    return {"latencies": latencies, "outcomes": outcomes}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import alphacurvelets
    from alphacurvelets import _accel

    origin = os.path.dirname(os.path.dirname(os.path.realpath(alphacurvelets.__file__)))
    if origin != str(SRC):
        raise RuntimeError(f"alphacurvelets imported from {origin}, not {SRC}")
    import numpy as np

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.request = "setup"
    import workloads

    wl = workloads.make(args.workload, args.seed, str(RESULTS))
    try:
        wl.setup()
        if tracer is not None:
            tracer.request = "warmup"
        wl.warmup()
        result = {"setup_s": time.perf_counter() - t0, "cycle": wl.cycle, "batch": wl.batch}
        if args.mode != "setup":
            result.update(run_requests(wl, tracer, workloads.run_ops(wl, args.seconds)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        wl.close()
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "using_numba": _accel.USING_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    result["known_defects"] = workloads.KNOWN_DEFECTS
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracing.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
