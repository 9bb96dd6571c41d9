"""Fixtures shared by the test modules: a small frame, and stand-ins for the
package's worker thread, for the tests of every module that shares work with it."""

import threading
from concurrent.futures import Future

import pytest

from alphacurvelets import _worker
from alphacurvelets.tiling import FrameParams
from alphacurvelets.transform import DigitalCurveletFrame


@pytest.fixture(scope="module")
def frame64():
    return DigitalCurveletFrame.build(FrameParams(s=1.0, alpha=0.5, grid_n=64))


class InlineWorker:
    """Runs each task when it is submitted: the worker takes every unit it can."""

    def submit(self, fn, *args):
        future = Future()
        future.set_running_or_notify_cancel()
        future.set_result(fn(*args))
        return future


class LateWorker:
    """Starts each task half a second late: the caller takes every unit."""

    def submit(self, fn, *args):
        future = Future()

        def run():
            future.set_running_or_notify_cancel()
            future.set_result(fn(*args))

        threading.Timer(0.5, run).start()
        return future


class RecordingWorker:
    """Records each task and finishes it at once without running it: the caller takes every unit."""

    def __init__(self):
        self.tasks = []

    def submit(self, fn, *args):
        self.tasks.append(fn)
        future = Future()
        future.set_running_or_notify_cancel()
        future.set_result(None)
        return future


STAND_INS = {cls.__name__: cls for cls in (InlineWorker, LateWorker, RecordingWorker)}


@pytest.fixture
def stand_in(monkeypatch):
    """``stand_in(name)`` puts a new ``STAND_INS[name]`` in the worker thread's place and returns it."""

    def install(name):
        worker = STAND_INS[name]()
        monkeypatch.setattr(_worker, "_WORKER", worker)
        return worker

    return install


@pytest.fixture
def each_worker():
    """``each_worker(fn)`` is ``[fn(), fn(), fn()]``: with the worker taking
    every unit it can (inline), taking none (idle), and as it runs.
    """

    def run(fn):
        results = []
        for name in ("InlineWorker", "RecordingWorker", None):
            with pytest.MonkeyPatch.context() as mp:
                if name:
                    mp.setattr(_worker, "_WORKER", STAND_INS[name]())
                results.append(fn())
        return results

    return run
