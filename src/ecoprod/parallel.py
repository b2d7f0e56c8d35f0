"""One process pool for the package: `fork_map(task, n)` is
`[task(i) for i in range(n)]`, run on forked workers.

Every loaded OpenBLAS runs on one thread, so every sum comes out the same
on one CPU or on all: `cli.main` runs each command inside
`one_blas_thread`, and `fork_map` pins the calling process with it before
it forks, so its workers inherit the pin and do not oversubscribe (on two
CPUs, two workers of two threads each ran the permutation null more than
four times slower than one serial process).

There is one worker per available CPU, `len(os.sched_getaffinity(0))`
capped at n, so `taskset -c 0` gives a serial run.  A task must depend
only on its index: it reaches the workers through fork, not pickling, and
shared mutable state, such as a call counter, is not carried back.  A
task's result and any exception it raises are pickled back to the caller.
Python 3.12 and later warn when a multi-threaded process forks, and
OpenBLAS's threads count.

A call runs in the calling process instead when it would have at most one
worker (n = 0 gives []) or is made from inside a task, so no pool nests.
If no OpenBLAS thread count is found, it runs there unpinned, so an
unknown BLAS is never oversubscribed.
"""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

logger = logging.getLogger(__name__)

T = TypeVar("T")

# The task of the running `fork_map`.  A closure does not pickle, so forked
# workers inherit it here instead of receiving it.
_task: Callable[[int], object] | None = None


def openblas_thread_counts() -> list[tuple[str, ctypes.c_int]]:
    """(file name, thread count) of each OpenBLAS this process has loaded,
    found in /proc/self/maps.

    The count is the library's `blas_cpu_number`: the variable that
    `scipy_openblas_set_num_threads64_` (numpy's copy) and
    `scipy_openblas_set_num_threads` (scipy's) set and their `get`
    counterparts read.  It is written directly, because after a fork the
    setter first restarts the library's thread pool, whose idle thread then
    spins: about 0.25 s of CPU per worker for the two copies, which made the
    refitting bootstrap 20% slower."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        # address, permissions, offset, device, inode, then the path, which may hold spaces
        paths = sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in maps if "openblas" in line})
    counts = []
    for path in paths:
        try:
            counts.append((os.path.basename(path), ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")))
        except ValueError:  # not an OpenBLAS build that exports its thread count
            pass
    return counts


@contextmanager
def one_blas_thread() -> Iterator[list[tuple[str, int]]]:
    """Pin every loaded OpenBLAS to one thread for the block, and restore
    each library's thread count after it, also on raise.  Sums then come out
    the same on any number of CPUs.  Yields each library's file name and
    its thread count before the pin."""
    counts = openblas_thread_counts()
    previous = [count.value for _, count in counts]
    for _, count in counts:
        count.value = 1
    try:
        yield [(name, value) for (name, _), value in zip(counts, previous)]
    finally:
        for (_, count), value in zip(counts, previous):
            count.value = value


def _call(i: int):
    return _task(i)


def fork_map(task: Callable[[int], T], n: int) -> list[T]:
    """[task(i) for i in range(n)], on forked workers that inherit this
    process's pin to one BLAS thread (see the module docstring)."""
    global _task
    with one_blas_thread() as previous:
        workers = min(len(os.sched_getaffinity(0)), n) if previous and _task is None else 1
        pins = ", ".join(f"{name} (was {value})" for name, value in previous)
        logger.debug("%d tasks on %d worker(s)%s; %s", n, workers, "" if workers > 1 else " in-process",
                     f"OpenBLAS pinned to 1 thread: {pins}" if pins else "no OpenBLAS found, unpinned")
        outer, _task = _task, task
        try:
            if workers <= 1:
                return [task(i) for i in range(n)]
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(_call, range(n)))
            finally:
                pool.shutdown(cancel_futures=True)
        finally:
            _task = outer
