"""Synthetic CPU load: busy/sleep duty-cycle workers.

Reproduces the benchmark condition of N loaded workers each busy a target
percentage of every period while (at least) one core stays free.  Workers
are separate processes so the busy loops actually occupy cores; there is no
core pinning, so "loaded workers" approximate "loaded cores" statistically.

Each worker keeps its own busy-time account in shared memory (flushed every
millisecond of busy work), which is what measure_achieved_load reads - the
generator validates itself rather than trusting OS load averages.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from dataclasses import dataclass

from .errors import CapacityError, InvalidInputError

#: Duty-cycle period of every load worker.
PERIOD_MS = 10.0

# Busy-time accounting is flushed to shared memory this often (seconds) so a
# measurement window never misses more than ~1 ms per worker.
_FLUSH_INTERVAL_S = 0.001


def usable_cpu_count() -> int:
    """Logical cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class LoadProfile:
    """Target duty-cycle load for a set of workers.

    target_load_pct = 0 means no load activity at all (no workers spawned).
    """

    loaded_workers: int
    target_load_pct: int

    def __post_init__(self):
        if self.loaded_workers < 0:
            raise InvalidInputError(
                f"loaded_workers must be >= 0, got {self.loaded_workers}")
        if not 0 <= self.target_load_pct <= 100:
            raise InvalidInputError(
                f"target_load_pct must be in [0, 100], got {self.target_load_pct}")


def _duty_cycle_worker(stop_event, busy_acc, target_pct):
    """Busy-spin target_pct of every period, sleep the rest, until stopped."""
    period_s = PERIOD_MS / 1000.0
    busy_target = period_s * target_pct / 100.0
    x = 48271
    while not stop_event.is_set():
        start = time.perf_counter()
        deadline = start + busy_target
        last_flush = start
        now = start
        while now < deadline:
            x = (x * x + 12345) % 2147483647
            now = time.perf_counter()
            if now - last_flush >= _FLUSH_INTERVAL_S:
                with busy_acc.get_lock():
                    busy_acc.value += now - last_flush
                last_flush = now
        with busy_acc.get_lock():
            busy_acc.value += now - last_flush
        remainder = period_s - (now - start)
        if remainder > 0:
            stop_event.wait(remainder)


def _terminate(stop_event, procs):
    stop_event.set()
    deadline = time.monotonic() + 2 * PERIOD_MS / 1000.0 + 1.0
    for p in procs:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=1.0)


class LoadHandle:
    """Running load workers; must be stopped (stop is idempotent).

    Dropping the handle without stopping also terminates the workers via a
    finalizer, and all workers are daemons as a last resort.
    """

    def __init__(self, profile: LoadProfile, stop_event, procs, accounts):
        self.profile = profile
        self._stop_event = stop_event
        self._procs = procs
        self._accounts = accounts
        self._finalizer = weakref.finalize(self, _terminate, stop_event, procs)

    @property
    def active(self) -> bool:
        return self._finalizer.alive

    def stop(self) -> None:
        self._finalizer()  # no-op once it has run


def start_load(profile: LoadProfile) -> LoadHandle:
    """Spawn the profile's duty-cycle workers and return their handle.

    One core must remain unloaded: loaded_workers is capped at the host's
    logical core count minus one.
    """
    limit = usable_cpu_count() - 1
    if profile.loaded_workers > limit:
        raise CapacityError(
            f"{profile.loaded_workers} loaded workers requested but only "
            f"{limit} may be loaded (one of {limit + 1} cores stays free)")
    stop_event = mp.Event()
    procs, accounts = [], []
    if profile.loaded_workers > 0 and profile.target_load_pct > 0:
        for _ in range(profile.loaded_workers):
            acc = mp.Value("d", 0.0)
            proc = mp.Process(
                target=_duty_cycle_worker,
                args=(stop_event, acc, profile.target_load_pct),
                daemon=True)
            proc.start()
            procs.append(proc)
            accounts.append(acc)
    return LoadHandle(profile, stop_event, procs, accounts)


def stop_load(handle: LoadHandle) -> None:
    """Stop all load workers within roughly one period; idempotent."""
    handle.stop()


def measure_achieved_load(handle: LoadHandle, window_ms: float) -> list[float]:
    """Observe each worker's busy percentage over a wall-clock window.

    Reads the workers' own busy-time accounts at both ends of the window.
    The window must span at least 10 duty-cycle periods.
    """
    if window_ms < 10 * PERIOD_MS:
        raise InvalidInputError(
            f"window_ms must span 10 periods of {PERIOD_MS} ms, got "
            f"{window_ms}")
    if not handle.active:
        raise InvalidInputError("load handle is already stopped")
    if not handle._accounts:
        return [0.0] * handle.profile.loaded_workers
    before = [acc.value for acc in handle._accounts]
    t0 = time.perf_counter()
    time.sleep(window_ms / 1000.0)
    elapsed = time.perf_counter() - t0
    return [100.0 * (acc.value - b) / elapsed
            for acc, b in zip(handle._accounts, before)]
