"""The package's one worker thread, which the calling thread shares work with.

One module-level worker thread (a one-thread ``ThreadPoolExecutor``,
replaced in a forked child) serves ``analyze`` and ``synthesize`` (tile
FFTs), ``error_curve`` (the dropped tails), ``render`` (row blocks) and
``consistency_sum`` (row blocks).  Each splits its work into units whose
results do not depend on which thread ran them, so its output is the
same bit for bit whether the worker takes every unit, some or none.

A task on the worker never waits for the calling thread: a caller that
finds the worker busy, or slow to start, does every unit itself.  The
worker runs no traced entry point either, so a tracer that keeps its
span stack on the calling thread sees every call.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor, wait


def _start_worker() -> None:
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="alphacurvelets")


_start_worker()
os.register_at_fork(after_in_child=_start_worker)  # a forked child has no worker thread


@contextlib.contextmanager
def _beside(fn, *args):
    """Run ``fn(*args)`` on the worker thread while the ``with`` body runs.

    Yields the future.  Leaving the body, by a return or a raise, waits
    for ``fn`` to finish, so no task outlives the call that started it; a
    normal exit raises what ``fn`` raised.  ``fn`` must not wait for the
    worker itself.
    """
    future = _WORKER.submit(fn, *args)
    try:
        yield future
    finally:
        wait((future,))
    future.result()


def _taking(take):
    """The items ``take()`` pops off a deque, until it is empty.

    Two threads share one deque's units this way: a deque's pops from
    either end are thread-safe, so each unit goes to exactly one of them.
    """
    while True:
        try:
            yield take()
        except IndexError:
            return
