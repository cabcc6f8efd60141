"""Load generator: profiles, capacity, accounting, teardown.

Host-independent tests only; accuracy under real load is checked by the
acceptance suite on capable hosts.  Worker mechanics are exercised by
pretending the host has spare cores (the duty-cycle processes themselves
run fine on any core count, they just timeshare).
"""

import gc
import multiprocessing as mp
import random
import statistics
import time

import pytest

import pqmul.loadgen as loadgen
from pqmul import CapacityError, InvalidInputError
from pqmul.loadgen import (
    LoadProfile,
    measure_achieved_load,
    start_load,
    stop_load,
    usable_cpu_count,
)


class TestProfile:
    def test_valid(self):
        p = LoadProfile(4, 50)
        assert (p.loaded_workers, p.target_load_pct) == (4, 50)

    @pytest.mark.parametrize("pct", [-1, 101])
    def test_pct_range(self, pct):
        with pytest.raises(InvalidInputError):
            LoadProfile(1, pct)

    def test_negative_workers(self):
        with pytest.raises(InvalidInputError):
            LoadProfile(-1, 50)


class TestCapacity:
    def test_one_core_must_stay_free(self):
        # loaded_workers == core count always violates the precondition
        with pytest.raises(CapacityError):
            start_load(LoadProfile(usable_cpu_count(), 50))


class TestNoOpHandles:
    def test_zero_workers(self):
        handle = start_load(LoadProfile(0, 80))
        assert handle.active
        assert measure_achieved_load(handle, 200) == []
        stop_load(handle)
        assert not handle.active

    def test_zero_pct_spawns_nothing(self, monkeypatch):
        monkeypatch.setattr(loadgen, "usable_cpu_count", lambda: 8)
        handle = start_load(LoadProfile(4, 0))
        try:
            assert handle._procs == []
            assert measure_achieved_load(handle, 150) == [0.0] * 4
        finally:
            stop_load(handle)

    def test_stop_is_idempotent(self):
        handle = start_load(LoadProfile(0, 10))
        stop_load(handle)
        stop_load(handle)  # second call is a no-op
        assert not handle.active


class TestMeasurementWindow:
    def test_window_too_short(self):
        handle = start_load(LoadProfile(0, 10))
        try:
            with pytest.raises(InvalidInputError):
                measure_achieved_load(handle, 50)  # < 10 periods of 10 ms
        finally:
            stop_load(handle)

    def test_stopped_handle_rejected(self):
        handle = start_load(LoadProfile(0, 10))
        stop_load(handle)
        with pytest.raises(InvalidInputError):
            measure_achieved_load(handle, 200)


class TestIsolation:
    def test_zero_worker_generator_does_not_perturb_timing(self):
        """A 0-worker load profile must not slow a fixed workload down.

        The two conditions are interleaved run by run so host drift hits
        both equally, and medians absorb scheduler spikes.
        """
        from pqmul import MethodPlan, Polynomial, multiply

        a = Polynomial.random(384, 4096, seed=1, modulus=4096)
        b = Polynomial.random(384, 4096, seed=2, modulus=4096)
        plan = MethodPlan.karatsuba()

        def one_timing():
            start = time.perf_counter()
            multiply(a, b, plan)
            return time.perf_counter() - start

        for _ in range(3):
            one_timing()  # warm
        ratios = []
        for _ in range(25):
            one_timing()  # untimed warmup, as the harness does per cell
            bare = one_timing()
            handle = start_load(LoadProfile(0, 80))
            try:
                one_timing()  # absorbs handle-creation allocation effects
                ratios.append(one_timing() / bare)
            finally:
                stop_load(handle)
        # paired per-iteration ratios cancel host drift; the median ignores
        # scheduler spikes
        assert abs(statistics.median(ratios) - 1.0) < 0.05


#: Interleaved rounds of the three load levels in TestMonotonicity.
MONOTONICITY_ROUNDS = 15


class TestMonotonicity:
    def test_more_load_never_speeds_up_fixed_workload(self):
        """Gated: needs at least one loadable worker and a quiet host."""
        import os

        from pqmul import MethodPlan, Polynomial, parallel_mul

        flag = os.environ.get("PQMUL_PERF", "")
        if flag == "0" or (flag != "1" and usable_cpu_count() < 2):
            pytest.skip("needs >= 2 cores (or PQMUL_PERF=1)")
        a = Polynomial.random(512, 4096, seed=3, modulus=4096)
        b = Polynomial.random(512, 4096, seed=4, modulus=4096)
        plan = MethodPlan.toom(3, workers=2)
        workers = min(4, usable_cpu_count() - 1)

        def mean_under(load_pct, runs=8):
            handle = start_load(LoadProfile(workers, load_pct))
            try:
                parallel_mul(a, b, plan)  # warm
                start = time.perf_counter()
                for _ in range(runs):
                    parallel_mul(a, b, plan)
                return (time.perf_counter() - start) / runs
            finally:
                stop_load(handle)

        # the levels take turns in seeded order, round after round, so
        # drift of the host's speed and the pool's warm-up fall on every
        # level alike; per-level medians ignore single slow windows
        levels = (0, 40, 80)
        order = random.Random(11)
        samples = {pct: [] for pct in levels}
        for _ in range(MONOTONICITY_ROUNDS):
            for pct in order.sample(levels, len(levels)):
                samples[pct].append(mean_under(pct))
        times = [statistics.median(samples[pct]) for pct in levels]
        # direction only; 2% slack absorbs scheduler noise
        assert times[1] >= times[0] * 0.98
        assert times[2] >= times[1] * 0.98


class TestWorkerMechanics:
    """Real duty-cycle processes, capacity check bypassed via monkeypatch."""

    def test_worker_accumulates_busy_time(self, monkeypatch):
        monkeypatch.setattr(loadgen, "usable_cpu_count", lambda: 4)
        handle = start_load(LoadProfile(1, 40))
        try:
            achieved = measure_achieved_load(handle, 300)
            assert len(achieved) == 1
            # generous bounds: host may be busy, but the worker must have
            # spent a nonzero, sub-total fraction busy
            assert 1.0 < achieved[0] <= 105.0
        finally:
            stop_load(handle)

    def test_first_window_excludes_worker_start_up(self, monkeypatch):
        """Time a worker spends starting up is not load.

        A spawned worker starts a fresh interpreter and imports the package
        before its first spin, all inside a window opened right after
        start_load, so an account that counted from process start would
        read well over target.  A busier host only lowers the reading.
        """
        monkeypatch.setattr(loadgen, "mp", mp.get_context("spawn"))
        monkeypatch.setattr(loadgen, "usable_cpu_count", lambda: 4)
        handle = start_load(LoadProfile(1, 10))
        try:
            (achieved,) = measure_achieved_load(handle, 1000)
        finally:
            stop_load(handle)
        assert 0.0 < achieved <= 13.0

    def test_stop_terminates_within_grace(self, monkeypatch):
        monkeypatch.setattr(loadgen, "usable_cpu_count", lambda: 4)
        handle = start_load(LoadProfile(1, 30))
        procs = list(handle._procs)
        time.sleep(0.05)
        stop_load(handle)
        assert all(not p.is_alive() for p in procs)

    def test_dropped_handle_cleans_up(self, monkeypatch):
        monkeypatch.setattr(loadgen, "usable_cpu_count", lambda: 4)
        handle = start_load(LoadProfile(1, 30))
        procs = list(handle._procs)
        del handle
        gc.collect()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and any(p.is_alive() for p in procs):
            time.sleep(0.02)
        assert all(not p.is_alive() for p in procs)
