"""Independent jobs in forked worker processes, one per CPU the process may use."""

import contextlib
import ctypes
import itertools
import os
import signal


_libraries = []  # the OpenBLAS libraries of this process, once found


def openblas_function(name):
    """The function ``*openblas_<name>*`` of the OpenBLAS library this process loaded, or None.

    /proc/self/maps is read until a library is found, as NumPy may load OpenBLAS later.
    """
    if not _libraries:
        with open("/proc/self/maps") as maps:
            _libraries.extend(map(ctypes.CDLL, sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line})))
    for library, prefix, suffix in itertools.product(_libraries, ("", "scipy_"), ("", "64_")):
        if (fn := getattr(library, f"{prefix}openblas_{name}{suffix}", None)) is not None:
            return fn
    return None


def _init_worker(parent):
    # A worker dies with its parent (prctl(PR_SET_PDEATHSIG, SIGKILL), Linux
    # only), and exits at once if the parent died before that call.
    if (prctl := getattr(ctypes.CDLL(None), "prctl", None)) is not None:
        prctl(1, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside the block, its own count restored after; nothing without OpenBLAS.

    Forked workers inherit the one thread: the workers already fill the CPUs,
    and setting the count in a worker would restart OpenBLAS's thread server
    there, whose idle threads spin.
    """
    getter, setter = openblas_function("get_num_threads"), openblas_function("set_num_threads")
    if getter is None or setter is None:
        yield
        return
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    count = getter()
    setter(1)
    try:
        yield
    finally:
        setter(count)


def run_jobs(fn, jobs, costs):
    """``[fn(*job) for job in jobs]``, in up to one process per usable CPU and per job, largest ``costs`` first.

    With one CPU (e.g. under ``taskset -c 0``) or one job, no process is
    started.  Each worker runs BLAS on one thread and is killed when the
    caller's process ends.  A job's exception is raised in the caller once
    the pool has shut down.
    """
    order = sorted(range(len(jobs)), key=costs.__getitem__, reverse=True)
    if (workers := min(len(os.sched_getaffinity(0)), len(jobs))) <= 1:
        results = [fn(*jobs[i]) for i in order]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: a worker starts in milliseconds with NumPy and the job's data
        # already loaded, and covact starts no thread that fork could break.
        context = multiprocessing.get_context("fork")
        with (
            _one_blas_thread(),
            ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker, initargs=(os.getpid(),)) as pool,
        ):
            results = list(pool.map(fn, *zip(*(jobs[i] for i in order))))
    return [result for _, result in sorted(zip(order, results))]


def run_shares(fn, args, items):
    """``fn(*args, items)``, with the items dealt round-robin into one share per usable CPU.

    ``fn(*args, share)`` returns one result per item of its share; the
    results come back in item order, whatever the number of shares.  The
    shares run as ``run_jobs`` jobs, so one share runs in-process.
    """
    count = min(len(os.sched_getaffinity(0)), len(items))
    shares = [items[k::count] for k in range(count)]
    parts = run_jobs(fn, [(*args, share) for share in shares], [len(share) for share in shares])
    return [parts[i % count][i // count] for i in range(len(items))]
