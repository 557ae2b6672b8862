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
