"""Bounded parallelism over independent work items (chunks of equal-length
sequences, theorem-probe trials).

Workers inherit the closure and its captured state through a fork, so the
callable itself never needs to be pickled.  Results come back in input
order, and because no item's result depends on which process ran it, the
reduction is independent of worker count.
"""

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

_WORK = {}


def _invoke(i):
    return _WORK["fn"](_WORK["items"][i])


def parallel_map(fn, items, workers=1):
    items = list(items)
    if workers <= 1 or len(items) < 4 or sys.platform == "win32":
        return [fn(x) for x in items]
    _WORK["fn"], _WORK["items"] = fn, items
    try:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, len(items) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(pool.map(_invoke, range(len(items)), chunksize=chunk))
    finally:
        _WORK.clear()
