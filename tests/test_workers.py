"""Jobs in worker processes."""

import ctypes
import multiprocessing
import os

import pytest

from covact import workers


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
