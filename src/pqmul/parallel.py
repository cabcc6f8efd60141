"""Parallel execution of the independent pointwise subproducts.

The 2k-1 subproducts of a Toom-Cook split are independent of each other, so
parallel_mul runs the engine of multipliers with a pool runner.  The engine
hands it every (block, shorter operand) pair as Kronecker-packed ints; the
runner performs the top-level split/evaluate of every block in the parent,
and of the shared shorter operand once, sends subpair i to worker
i mod workers (statically, so timings are not perturbed by work stealing)
and interpolates the products it gets back.  Only the top level is
dispatched; below it each worker recurses sequentially.  The result is
therefore identical for every worker count and every scheduling of the
pool, and so are the operation counts, which the engine derives from the
product's shape.

Worker pools are processes (not threads) so the coefficient arithmetic runs
on separate cores; pools are created lazily per worker count and reused
across calls.  workers values above the host core count are permitted but
merely oversubscribe the machine.  A pool whose worker died (killed, out of
memory) is evicted and rebuilt once; if the rebuilt pool breaks too, the
call raises ResourceError.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

from .errors import ResourceError
from .multipliers import (
    SCHOOLBOOK,
    MethodPlan,
    _engine_mul,
    _evaluate_level,
    _interpolate_levels,
    _levels,
    _run_pairs,
    multiply,
)
from .poly import OperationCounter, Polynomial


_pools: dict[int, ProcessPoolExecutor] = {}
_pools_lock = threading.Lock()


def _get_pool(workers: int) -> ProcessPoolExecutor:
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


def _run_on_pool(workers: int, pairs, k: int, cutoff: int, n: int, s: int):
    """The engine's pair runner on the workers-process pool.

    The pairs are packed ints of n slots of s bits, and all of them share
    their second vector.  Above the cutoff the parent cuts and evaluates the
    top level of every first vector, and of the shared second one once;
    worker w multiplies subpairs w, w+workers, w+2*workers, ... in one
    batch, and the parent interpolates the top level.  Returns the products
    in pair order.
    """
    top = _levels(n, k, cutoff, s)[:1]
    if top:
        ys = _evaluate_level([pairs[0][1]], top[0])
        xs = _evaluate_level([x for x, _ in pairs], top[0])
        subpairs = list(zip(xs, ys * len(pairs)))
        m = -(-n // k)
    else:
        subpairs, m = pairs, n
    for attempt in (1, 2):
        pool = _get_pool(workers)
        try:
            futures = [pool.submit(_run_pairs, subpairs[w::workers], k,
                                   cutoff, m, s)
                       for w in range(min(workers, len(subpairs)))]
            results = [future.result() for future in futures]
            break
        except BrokenProcessPool as exc:
            _evict_pool(workers, pool)
            if attempt == 2:
                raise ResourceError(
                    f"the {workers}-worker pool broke again after a "
                    f"rebuild: {exc}") from exc

    products: list = [None] * len(subpairs)
    for w, vecs in enumerate(results):
        products[w::workers] = vecs
    return _interpolate_levels(products, top)


def parallel_mul(a: Polynomial, b: Polynomial, plan: MethodPlan
                 ) -> tuple[Polynomial, OperationCounter]:
    """Multiply with the plan's method on plan.workers worker processes.

    The returned polynomial and counter totals are identical to the
    sequential multiply run for the same plan, whatever the worker count or
    scheduling; workers = 1 and schoolbook plans are that sequential run.
    Pool creation failure, or a pool that breaks again after one rebuild,
    raises ResourceError; neither is silently downgraded to sequential.
    """
    counter = OperationCounter()
    if plan.method == SCHOOLBOOK or plan.workers == 1:
        return multiply(a, b, plan, counter), counter
    return _engine_mul(a, b, plan.k, plan.base_cutoff, counter,
                       partial(_run_on_pool, plan.workers)), counter
