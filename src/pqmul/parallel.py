"""Parallel execution of the independent pointwise subproducts.

At every splitting level of the Toom-Cook engine the 2k-1 subproducts are
independent of each other, so the top `parallel_depth` levels can be farmed
out to worker processes: the parent performs split/evaluate, flattens the
subproduct pairs into a task list, assigns task i to worker i mod workers
(statically, so timings are not perturbed by work stealing), and then
interpolates/recombines the returned products in task order.  The result and
the aggregated operation counts are therefore identical for every worker
count and every scheduling of the pool.

Worker pools are processes (not threads) so the coefficient arithmetic runs
on separate cores; pools are created lazily per worker count and reused
across calls.  workers values above the host core count are permitted but
merely oversubscribe the machine.  A pool whose worker died (killed, out of
memory) is evicted and rebuilt once; if the rebuilt pool breaks too, the
call raises ResourceError.

Unequal operand lengths are cut into blocks of the shorter length, as in the
sequential path, and the leaves of every block go out in one batch.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .errors import InvalidInputError, ResourceError
from .multipliers import (
    KARATSUBA,
    SCHOOLBOOK,
    MethodPlan,
    _blocks,
    _evaluate_raw,
    _interpolate_raw,
    _join_blocks,
    _recombine_raw,
    _toom_engine,
    multiply,
)
from .poly import OperationCounter, Polynomial, schoolbook_mul


@dataclass(frozen=True)
class ParallelConfig:
    """Worker count and how deep to dispatch subproducts in parallel.

    parallel_depth levels of the recursion are dispatched; below that each
    task recurses sequentially.  workers = 1 degrades to the sequential code
    path exactly (no pool involved).
    """

    workers: int = 1
    parallel_depth: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidInputError(f"workers must be >= 1, got {self.workers}")
        if self.parallel_depth < 0:
            raise InvalidInputError(
                f"parallel_depth must be >= 0, got {self.parallel_depth}")


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


def _run_batch(tasks):
    """Sequentially multiply a batch of (a, b, k, cutoff) leaf tasks."""
    out = []
    for a, b, k, cutoff in tasks:
        counter = OperationCounter()
        vec = _toom_engine(a, b, k, cutoff, counter)
        out.append((vec, counter.fundamental_mults, counter.fundamental_adds))
    return out


def _dispatch(pool, leaves, workers):
    """Run the leaves on the pool, leaf i on worker i mod workers.

    Returns (vec, mults, adds) per leaf, in leaf order.
    """
    batches = []  # (leaf indices, future)
    for w in range(workers):
        indices = list(range(w, len(leaves), workers))
        if indices:
            batch = [leaves[i] for i in indices]
            batches.append((indices, pool.submit(_run_batch, batch)))
    results: list = [None] * len(leaves)
    for indices, future in batches:
        for i, result in zip(indices, future.result()):
            results[i] = result
    return results


def _expand(a, b, k, cutoff, depth, counter, leaves):
    """Split/evaluate `depth` levels down, collecting leaf operand pairs.

    Mirrors _toom_engine exactly so that the merged counters match the
    sequential run; returns a tree recombined by _combine.
    """
    n = len(a)
    if depth == 0 or n <= cutoff:
        leaves.append((a, b, k, cutoff))
        return ("leaf", len(leaves) - 1, n)
    m = -(-n // k)
    padded = m * k
    if padded != n:
        pad = [0] * (padded - n)
        a = a + pad
        b = b + pad
    parts_a = [a[i * m:(i + 1) * m] for i in range(k)]
    parts_b = [b[i * m:(i + 1) * m] for i in range(k)]
    ev_a = _evaluate_raw(parts_a, k, counter)
    ev_b = _evaluate_raw(parts_b, k, counter)
    children = [_expand(ev_a[i], ev_b[i], k, cutoff, depth - 1, counter, leaves)
                for i in range(2 * k - 1)]
    return ("node", n, padded, m, children)


def _combine(node, products, k, counter):
    if node[0] == "leaf":
        return products[node[1]]
    _, n, padded, m, children = node
    child_vecs = [_combine(c, products, k, counter) for c in children]
    coeffs = _interpolate_raw(child_vecs, k, counter)
    out = _recombine_raw(coeffs, m, 2 * padded - 1, counter)
    return out[:2 * n - 1] if padded != n else out


def parallel_mul(a: Polynomial, b: Polynomial, plan: MethodPlan,
                 cfg: ParallelConfig | None = None
                 ) -> tuple[Polynomial, OperationCounter]:
    """Multiply with the plan's method, dispatching subproducts to workers.

    The returned polynomial and counter totals are identical to the
    sequential toomcook_mul/karatsuba_mul run for the same plan, whatever
    the worker count or scheduling.  Pool creation failure, or a pool that
    breaks again after one rebuild, raises ResourceError; neither is
    silently downgraded to sequential.
    """
    if cfg is None:
        cfg = ParallelConfig(workers=plan.workers)
    counter = OperationCounter()
    if plan.method == SCHOOLBOOK:
        return schoolbook_mul(a, b, counter), counter
    if cfg.workers == 1 or cfg.parallel_depth == 0:
        return multiply(a, b, plan, counter), counter

    k = 2 if plan.method == KARATSUBA else plan.k
    blocks, short, q = _blocks(a, b)
    leaves: list = []
    trees = [_expand(x, short, k, plan.base_cutoff, cfg.parallel_depth,
                     counter, leaves) for x in blocks]

    for attempt in (1, 2):
        pool = _get_pool(cfg.workers)
        try:
            results = _dispatch(pool, leaves, cfg.workers)
            break
        except BrokenProcessPool as exc:
            _evict_pool(cfg.workers, pool)
            if attempt == 2:
                raise ResourceError(
                    f"the {cfg.workers}-worker pool broke again after a "
                    f"rebuild: {exc}") from exc

    products = []
    for vec, mults, adds in results:
        products.append(vec)
        counter.add_mults(mults)
        counter.add_adds(adds)
    block_products = [_combine(t, products, k, counter) for t in trees]
    return Polynomial(_join_blocks(block_products, len(short), counter),
                      q), counter
