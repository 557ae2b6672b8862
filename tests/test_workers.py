"""Jobs in worker processes."""

import contextlib
import ctypes
import io
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from covact import workers

SRC = Path(workers.__file__).parents[1]


def blas_threads(_):
    getter = workers.openblas_function("get_num_threads")
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def test_workers_run_blas_on_one_thread(monkeypatch):
    if workers.openblas_function("get_num_threads") is None:
        pytest.skip("NumPy's BLAS exports no openblas_get_num_threads")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = blas_threads(None)
    assert workers.run_jobs(blas_threads, [(0,), (1,)], [0, 1]) == [1, 1]
    # This process keeps its own thread count.
    assert blas_threads(None) == before
    assert multiprocessing.active_children() == []


def test_openblas_is_looked_up_once_per_process(monkeypatch):
    if workers.openblas_function("get_num_threads") is None:
        pytest.skip("NumPy's BLAS exports no openblas_get_num_threads")
    reads = []

    def counted_open(path, *args):
        # The first read finds no OpenBLAS, as before NumPy has loaded it.
        reads.append(path)
        return open(path, *args) if len(reads) > 1 else io.StringIO("")

    monkeypatch.setattr(workers, "_libraries", [])
    monkeypatch.setattr(workers, "open", counted_open, raising=False)
    assert workers.openblas_function("get_num_threads") is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for _ in range(2):
        assert workers.run_jobs(blas_threads, [(0,), (1,)], [0, 1]) == [1, 1]
    # The miss is not kept; the two pools' getters and setters read the maps file once.
    assert reads == ["/proc/self/maps"] * 2
    assert multiprocessing.active_children() == []


def thread_count(_):
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_workers_start_no_blas_thread(monkeypatch):
    # A worker inherits one BLAS thread from the fork; setting the count in the
    # worker would restart OpenBLAS's thread server there, whose idle threads spin.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    np.ones((300, 300)) @ np.ones((300, 300))  # BLAS threads of this process, if it may use several
    assert workers.run_jobs(thread_count, [(0,), (1,)], [0, 1]) == [1, 1]
    assert multiprocessing.active_children() == []


def with_share(share):
    return [(item, tuple(share)) for item in share]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2}])
@pytest.mark.parametrize("count", [2, 7])
def test_shares_come_back_in_item_order(monkeypatch, cpus, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    items = [f"item{i}" for i in range(count)]
    results = workers.run_shares(with_share, (), items)
    shares = min(len(cpus), count)
    # Item i is in share i mod shares, which holds every shares-th item from there.
    assert results == [(item, tuple(items[i % shares :: shares])) for i, item in enumerate(items)]
    assert multiprocessing.active_children() == []


# Runs two sleeping jobs on two workers; each job prints its worker's pid in
# one write, so the two lines cannot interleave (print writes the pid and the
# newline separately).
ORPHANED_POOL = """
import os, time
from covact import workers

def sleeper(_):
    os.write(1, f"{os.getpid()}\\n".encode())
    time.sleep(60)

os.sched_getaffinity = lambda pid: {0, 1}
workers.run_jobs(sleeper, [(0,), (1,)], [0, 1])
"""


def gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "prctl", None) is None, reason="no prctl in this libc")
def test_workers_die_with_their_parent():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    parent = subprocess.Popen([sys.executable, "-c", ORPHANED_POOL], stdout=subprocess.PIPE, text=True, env=env)
    pids = []
    try:
        pids = [int(parent.stdout.readline()) for _ in range(2)]
        parent.send_signal(signal.SIGTERM)
        parent.wait(timeout=5)
        deadline = time.monotonic() + 5
        while not all(map(gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if not gone(pid)] == []
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in [pid for pid in pids if not gone(pid)]:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
