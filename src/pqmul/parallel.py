"""The worker-process pool.

run_round_robin(workers, fn, items, *args) maps fn over items on a pool of
workers processes: worker w runs fn(items[w::workers], *args) in one batch
(statically, so timings are not perturbed by work stealing), and the
results come back in item order.  The pool knows nothing of what it runs;
multipliers hands it the top-level subproducts of a parallel plan.

Worker pools are processes (not threads) so the coefficient arithmetic runs
on separate cores; pools are created lazily per worker count and reused
across calls.  workers values above the host core count are permitted but
merely oversubscribe the machine, up to MAX_WORKERS: a larger count raises
ResourceError before any process starts.  A pool whose worker died (killed,
out of memory) is evicted and rebuilt once; if the rebuilt pool breaks too,
the call raises ResourceError.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import ResourceError

#: The most worker processes one pool may start.  A pool starts all its
#: processes at the first submit, so an unchecked count from a plan could
#: exhaust the host's process ids.
MAX_WORKERS = 64

_pools: dict[int, ProcessPoolExecutor] = {}
_pools_lock = threading.Lock()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    if workers > MAX_WORKERS:
        raise ResourceError(
            f"{workers} workers exceed the ceiling of {MAX_WORKERS} worker "
            f"processes")
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            try:
                pool = ProcessPoolExecutor(max_workers=workers)
            except Exception as exc:
                raise ResourceError(
                    f"could not create a {workers}-worker pool: {exc}") from exc
            _pools[workers] = pool
        return pool


def _evict_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool from the cache unless another call already did."""
    with _pools_lock:
        if _pools.get(workers) is pool:
            del _pools[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Tear down all cached worker pools (tests, interpreter exit)."""
    with _pools_lock:
        for pool in _pools.values():
            pool.shutdown(wait=True, cancel_futures=True)
        _pools.clear()


atexit.register(shutdown_pools)


def run_round_robin(workers: int, fn, items: list, *args) -> list:
    """Map a batch function over items on the workers-process pool.

    Worker w runs fn(items[w::workers], *args), which must return one result
    per item of its batch; fn and args must pickle.  Returns the results in
    item order.  A pool that breaks is evicted and rebuilt once; if the
    rebuilt pool breaks too, raises ResourceError.
    """
    for attempt in (1, 2):
        pool = _get_pool(workers)
        try:
            futures = [pool.submit(fn, items[w::workers], *args)
                       for w in range(min(workers, len(items)))]
            batches = [future.result() for future in futures]
            break
        except BrokenProcessPool as exc:
            _evict_pool(workers, pool)
            if attempt == 2:
                raise ResourceError(
                    f"the {workers}-worker pool broke again after a "
                    f"rebuild: {exc}") from exc

    results: list = [None] * len(items)
    for w, batch in enumerate(batches):
        results[w::workers] = batch
    return results
