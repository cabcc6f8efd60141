"""Parallel subproduct execution: schedule independence, exact counters."""

import os
import random
import signal
from dataclasses import replace
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import connection

import pytest
from hypothesis import given, settings, strategies as st

import pqmul.parallel
from pqmul import (
    MethodPlan,
    OperationCounter,
    Polynomial,
    ResourceError,
    evaluate_parts,
    multiply,
    parallel_mul,
    schoolbook_mul,
    split,
)
from pqmul.multipliers import _unpack


class TestDegradation:
    def test_workers_one_is_sequential(self):
        a = Polynomial.random(90, 4096, seed=1)
        b = Polynomial.random(90, 4096, seed=2)
        plan = MethodPlan.karatsuba(base_cutoff=4)
        seq_counter = OperationCounter()
        seq = multiply(a, b, plan, seq_counter)
        got, counter = parallel_mul(a, b, replace(plan, workers=1))
        assert got == seq
        assert counter == seq_counter

    def test_schoolbook_plan_passthrough(self):
        a = Polynomial.random(20, 50, seed=5)
        b = Polynomial.random(20, 50, seed=6)
        got, counter = parallel_mul(a, b, MethodPlan.schoolbook(workers=4))
        assert got == schoolbook_mul(a, b)
        assert counter.fundamental_mults == 400


class TestScheduleIndependence:
    def test_identical_across_worker_counts_and_repeats(self):
        a = Polynomial.random(123, 4096, seed=7, modulus=4096)
        b = Polynomial.random(123, 4096, seed=8, modulus=4096)
        plan = MethodPlan.toom(3, workers=5, base_cutoff=8)
        baseline, base_counter = parallel_mul(a, b, replace(plan, workers=1))
        for workers in (1, 2, 3, 5, 8):
            for _ in range(3):
                got, counter = parallel_mul(a, b,
                                            replace(plan, workers=workers))
                assert got == baseline
                assert counter == base_counter

    def test_counter_totals_match_sequential_toom3_729(self):
        a = Polynomial.random(729, 4096, seed=9)
        b = Polynomial.random(729, 4096, seed=10)
        plan = MethodPlan.toom(3, workers=5, base_cutoff=1)
        got, counter = parallel_mul(a, b, replace(plan, workers=5))
        assert counter.fundamental_mults == 15625
        seq_counter = OperationCounter()
        assert got == multiply(a, b, plan, seq_counter)
        assert counter == seq_counter

    def test_deeper_dispatch_matches_sequential(self):
        a = Polynomial.random(200, 999, seed=11)
        b = Polynomial.random(200, 999, seed=12)
        for plan in (MethodPlan.toom(3, base_cutoff=4),
                     MethodPlan.toom(4, base_cutoff=4),
                     MethodPlan.karatsuba(base_cutoff=4)):
            seq_counter = OperationCounter()
            seq = multiply(a, b, plan, seq_counter)
            got, counter = parallel_mul(a, b, replace(plan, workers=3))
            assert got == seq
            assert counter == seq_counter, plan.label

    def test_karatsuba_parallel_mode(self):
        a = Polynomial.random(150, 4096, seed=13)
        b = Polynomial.random(150, 4096, seed=14)
        plan = MethodPlan.karatsuba(workers=3, base_cutoff=8)
        got, _ = parallel_mul(a, b, plan)
        assert got == schoolbook_mul(a, b)

    def test_random_inputs_all_methods(self):
        rng = random.Random(15)
        for _ in range(8):
            n = rng.randint(1, 150)
            q = rng.choice([None, 4096])
            a = Polynomial.random(n, 4096, rng.randrange(2**31), q) \
                if n > 1 else Polynomial([2], q)
            b = Polynomial.random(n, 4096, rng.randrange(2**31), q) \
                if n > 1 else Polynomial([3], q)
            for plan in (MethodPlan.karatsuba(workers=2, base_cutoff=8),
                         MethodPlan.toom(3, workers=5, base_cutoff=8),
                         MethodPlan.toom(4, workers=3, base_cutoff=8)):
                got, _ = parallel_mul(a, b, plan)
                assert got == schoolbook_mul(a, b)


class TestSharedOperand:
    def test_repeated_operand_matches_multiply(self):
        """Each worker sees the same evaluations of the shared operand on
        every call, so its evaluation memo hits; products and counts stay
        those of the sequential engine."""
        shared = Polynomial.random(300, 8192, seed=30, modulus=8192)
        # cutoff 16, so that the 70-coefficient operands recurse too
        for plan in (MethodPlan.karatsuba(base_cutoff=16),
                     MethodPlan.toom(3, base_cutoff=16),
                     MethodPlan.toom(4, base_cutoff=16)):
            for seed, length in ((31, 300), (32, 300), (33, 70), (34, 70)):
                b = Polynomial.random(length, 8192, seed=seed, modulus=8192)
                seq_counter = OperationCounter()
                seq = multiply(shared, b, plan, seq_counter)
                got, counter = parallel_mul(shared, b,
                                            replace(plan, workers=2))
                assert got == seq == schoolbook_mul(shared, b)
                assert counter == seq_counter


class TestThreadSafety:
    def test_concurrent_invocations_stay_correct(self):
        import threading

        a = Polynomial.random(120, 4096, seed=20)
        b = Polynomial.random(120, 4096, seed=21)
        plan = MethodPlan.toom(3, workers=2, base_cutoff=8)
        expected = schoolbook_mul(a, b)
        results = [None] * 4

        def work(slot):
            results[slot] = parallel_mul(a, b, plan)[0]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == expected for r in results)


class TestPoolFailure:
    def test_resource_error_propagates(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(pqmul.parallel, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(pqmul.parallel, "_pools", {})
        a = Polynomial.random(40, 50, seed=16)
        b = Polynomial.random(40, 50, seed=17)
        with pytest.raises(ResourceError):
            parallel_mul(a, b, MethodPlan.toom(3, workers=2, base_cutoff=4))

    def test_killed_worker_is_replaced(self, monkeypatch):
        monkeypatch.setattr(pqmul.parallel, "_pools", {})
        a = Polynomial.random(120, 4096, seed=22, modulus=4096)
        b = Polynomial.random(120, 4096, seed=23, modulus=4096)
        plan = MethodPlan.toom(3, workers=2, base_cutoff=8)
        expected = schoolbook_mul(a, b)
        try:
            assert parallel_mul(a, b, plan)[0] == expected
            pool = pqmul.parallel._pools[2]
            victim = next(iter(pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            assert connection.wait([victim.sentinel], timeout=30)
            assert parallel_mul(a, b, plan)[0] == expected
            assert pqmul.parallel._pools[2] is not pool
        finally:
            pqmul.parallel.shutdown_pools()

    def test_pool_that_breaks_again_raises_resource_error(self, monkeypatch):
        created = []

        class BrokenPool:
            def __init__(self, max_workers):
                created.append(self)

            def submit(self, fn, *args):
                raise BrokenProcessPool("a worker died")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(pqmul.parallel, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(pqmul.parallel, "_pools", {})
        a = Polynomial.random(40, 50, seed=24)
        b = Polynomial.random(40, 50, seed=25)
        with pytest.raises(ResourceError):
            parallel_mul(a, b, MethodPlan.toom(3, workers=2, base_cutoff=4))
        assert len(created) == 2
        assert pqmul.parallel._pools == {}


class TestDispatchShape:
    """Which operand pairs go to which worker, pinned with an in-process
    pool that records every batch it is given."""

    @pytest.mark.parametrize("la, lb, plan, workers", [
        (100, 30, MethodPlan.toom(3, base_cutoff=4), 3),
        (30, 100, MethodPlan.toom(3, base_cutoff=4), 2),
        (64, 64, MethodPlan.karatsuba(base_cutoff=8), 2),
        (200, 7, MethodPlan.toom(4, base_cutoff=4), 5),
        (50, 10, MethodPlan.toom(4, base_cutoff=16), 3),
        (16, 16, MethodPlan.karatsuba(base_cutoff=16), 4),
    ])
    def test_pairs_round_robin_over_workers(self, monkeypatch, la, lb, plan,
                                            workers):
        batches = []

        class RecordingPool:
            def __init__(self, max_workers):
                assert max_workers == workers

            def submit(self, fn, pairs, *args):
                batches.append((pairs, args))
                future = Future()
                future.set_result(fn(pairs, *args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(pqmul.parallel, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(pqmul.parallel, "_pools", {})
        a = Polynomial.random(la, 4096, seed=la, modulus=4096)
        b = Polynomial.random(lb, 4096, seed=lb + 1, modulus=4096)
        got, counter = parallel_mul(a, b, replace(plan, workers=workers))

        seq_counter = OperationCounter()
        assert got == multiply(a, b, plan, seq_counter)
        assert counter == seq_counter

        long, short = list(a.coeffs), list(b.coeffs)
        if len(long) < len(short):
            long, short = short, long
        ls, k = len(short), plan.k
        blocks = [long[i:i + ls] for i in range(0, len(long), ls)]
        blocks[-1] += [0] * (ls - len(blocks[-1]))
        if ls > plan.base_cutoff:
            ev_short = evaluate_parts(split(short, k), k)
            pairs = [pair for x in blocks
                     for pair in zip(evaluate_parts(split(x, k), k), ev_short)]
            assert len(pairs) == -(-len(long) // ls) * (2 * k - 1)
        else:
            pairs = [(x, short) for x in blocks]
            assert len(pairs) == -(-len(long) // ls)
        assert len(batches) == min(workers, len(pairs))
        for w, (batch, (_, _, m, s)) in enumerate(batches):
            assert [tuple(_unpack(v, m, s) for v in p) for p in batch] == \
                [tuple(map(list, p)) for p in pairs[w::workers]]


class TestUnequalLengths:
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.integers(1, 150), st.integers(1, 150),
           st.sampled_from([MethodPlan.karatsuba(base_cutoff=4),
                            MethodPlan.toom(3, base_cutoff=4),
                            MethodPlan.toom(4, base_cutoff=4)]),
           st.sampled_from([2, 3]), st.integers(0, 2 ** 31))
    def test_counters_match_sequential(self, la, lb, plan, workers, seed):
        a = Polynomial.random(la, 4096, seed) if la > 1 else Polynomial([3])
        b = Polynomial.random(lb, 4096, seed + 1) if lb > 1 \
            else Polynomial([5])
        seq_counter = OperationCounter()
        seq = multiply(a, b, plan, seq_counter)
        got, counter = parallel_mul(a, b, replace(plan, workers=workers))
        assert got == seq
        assert counter == seq_counter


class TestMultiplyUsesPool:
    def test_multiply_honours_workers(self, monkeypatch):
        """multiply itself runs a workers > 1 plan on the pool, with the
        product and counts of the workers = 1 run."""
        batches = []

        class RecordingPool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def submit(self, fn, pairs, *args):
                batches.append(pairs)
                future = Future()
                future.set_result(fn(pairs, *args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(pqmul.parallel, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(pqmul.parallel, "_pools", {})
        a = Polynomial.random(90, 4096, seed=40, modulus=4096)
        b = Polynomial.random(90, 4096, seed=41, modulus=4096)
        plan = MethodPlan.toom(3, base_cutoff=8)
        seq_counter = OperationCounter()
        seq = multiply(a, b, plan, seq_counter)
        assert batches == []
        counter = OperationCounter()
        got = multiply(a, b, replace(plan, workers=2), counter)
        assert len(batches) == min(2, 2 * plan.k - 1)
        assert got == seq
        assert counter == seq_counter


class TestPoolCeiling:
    """A worker count above the ceiling is refused before any pool is
    built: the pool constructor here fails the test if it is called."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def construct(*args, **kwargs):
            pytest.fail("a worker pool was constructed")

        monkeypatch.setattr(pqmul.parallel, "ProcessPoolExecutor", construct)
        monkeypatch.setattr(pqmul.parallel, "_pools", {})

    def test_multiply_raises_resource_error(self):
        a = Polynomial.random(90, 4096, seed=42)
        b = Polynomial.random(90, 4096, seed=43)
        plan = MethodPlan.toom(3, workers=pqmul.parallel.MAX_WORKERS + 1)
        with pytest.raises(ResourceError, match="ceiling of 64"):
            multiply(a, b, plan)

    def test_cli_exits_4(self, capsys):
        from pqmul.cli import main

        coeffs = ",".join(["1"] * 90)
        assert main(["multiply", "--plan", "toom3:w65",
                     "--a", coeffs, "--b", coeffs]) == 4
        assert "ceiling of 64" in capsys.readouterr().err
