"""The package's one worker thread, which the calling thread shares work with.

One module-level worker thread (a one-thread ``ThreadPoolExecutor``,
replaced in a forked child) serves:

* ``analyze``: the image's real FFT, the tile FFTs;
* ``synthesize``: the tile FFTs and their live-block tests, the image's
  inverse real FFT (``curvelet_atom`` shares that one too);
* ``error_curve``: the squares of the coefficients and their dropped tails;
* ``render`` and ``consistency_sum``: row blocks.

Each splits its work into units whose results do not depend on which
thread ran them, so its output is the same bit for bit whether the
worker takes every unit, some or none.  An image FFT goes as two passes,
each split into two halves of its lines (:func:`_in_halves`).

A task on the worker never waits for the calling thread: a caller that
finds the worker busy, or slow to start, does every unit itself, and
cancels the task that was to share them if it has not started
(:func:`_shared`).  The worker runs no traced entry point either, so a
tracer that keeps its span stack on the calling thread sees every call.
"""

from __future__ import annotations

import collections
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


@contextlib.contextmanager
def _shared(units, fn, *args):
    """Yield the ``units`` the calling thread takes, last first.

    ``fn(*args, theirs)`` runs on the worker meanwhile.  ``theirs`` takes
    units from the front but never the last: zip asks ``range`` first, so
    the worker pops all units but one at most.  The body takes every unit
    it is given.  Leaving it cancels the worker's task if that has not
    started, as it would find every unit taken, and else waits for it; a
    normal exit raises what ``fn`` raised.  ``fn`` must not wait for the
    worker itself.
    """
    shared = collections.deque(units)
    theirs = (u for _, u in zip(range(len(shared) - 1), _taking(shared.popleft)))
    future = _WORKER.submit(fn, *args, theirs)
    try:
        yield _taking(shared.pop)
    finally:
        cancelled = future.cancel()
        if not cancelled:
            wait((future,))
    if not cancelled:
        future.result()


def _in_halves(size: int, fn, *args) -> None:
    """``fn(*args, part)`` for each half ``part`` of ``slice(0, size)``, shared with the worker.

    The calling thread takes the second half first; the worker, if it
    starts in time, takes the first.
    """
    mid = size // 2
    with _shared((slice(0, mid), slice(mid, size)), _each, fn, args) as mine:
        _each(fn, args, mine)


def _each(fn, args, parts) -> None:
    for part in parts:
        fn(*args, part)


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
