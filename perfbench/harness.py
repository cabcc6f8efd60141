"""Shared machinery of the benchmark: seeds, exact oracles, the correctness
gate, the span recorder and the statistics every workload reports.

Nothing here imports pqmul, so the gate and the recorder can be tested on
their own.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time
from contextlib import contextmanager, nullcontext

MASK64 = 0xFFFFFFFFFFFFFFFF

#: Time of reference_work() at the reference host speed.  Normalised
#: figures are what the host would measure if reference_work() took this
#: long, i.e. at that speed.
REF_NOMINAL_MS = 0.6
REF_SIZE = 3000
#: Reference samples on each side of an operation that set its speed factor.
REF_WINDOW = 4
_REF_TRACE = tuple((float(i), (i * 37) % 91) for i in range(REF_SIZE))


def mix(seed: int, *salts: int) -> int:
    """Derive an independent 64-bit seed (splitmix64 finaliser per salt)."""
    h = seed & MASK64
    for s in salts:
        h = (h ^ (s + 0x9E3779B97F4A7C15)) & MASK64
        h = (h * 0xBF58476D1CE4E5B9) & MASK64
        h ^= h >> 31
        h = (h * 0x94D049BB133111EB) & MASK64
        h ^= h >> 29
    return h


def random_coeffs(rng, length: int, bound: int) -> list[int]:
    """Uniform coefficients in [0, bound) with an odd leading coefficient.

    An odd lead stays nonzero modulo every power of two, so the operand
    keeps its length in every ring the benchmark reduces it into.
    """
    out = [rng.randrange(bound) for _ in range(length - 1)]
    out.append(rng.randrange(1, bound, 2))
    return out


def twist(coeffs, scale: int, sign: int, q: int) -> list[int]:
    """Image of a polynomial under f(x) -> scale * f(sign * x) mod q.

    For an odd scale and q a power of two this map is a ring automorphism
    (times a unit), so twist(a, s, e) * twist(b, t, e) equals
    twist(a * b, s * t, e).  The benchmark uses it to derive fresh operands,
    and their exact expected products, from a few schoolbook products
    computed in set-up.
    """
    out = [(scale * c) % q for c in coeffs]
    if sign < 0:
        out[1::2] = [(-v) % q for v in out[1::2]]
    return out


def percentile(values, pct: int) -> float:
    """The pct-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[pct - 1]


def reference_work() -> int:
    """Fixed pure-Python work, independent of pqmul: a tuple scan like a
    load-trace lookup plus integer arithmetic on a fresh list like a
    coefficient loop.  Its time tracks the interpreter speed the host
    currently delivers."""
    acc = 0
    for t, v in _REF_TRACE:
        if t >= 0.0:
            acc += v
    xs = [(i * 48271) % 2147483647 for i in range(REF_SIZE)]
    return acc + sum(map(int.__mul__, xs, xs)) % 97


def child_running() -> bool:
    """Whether a process this one started through multiprocessing (a
    loadgen worker, a pool worker) is running right now: state R or D in
    /proc/<pid>/stat.  Idle pool workers sleep and do not count.  Where
    /proc cannot be read this cannot be told, and it counts as no."""
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state in (b"R", b"D"):
            return True
    return False


class SpeedGauge:
    """Host speed, sampled by timing reference_work() next to each
    operation.

    On a shared host the interpreter's speed drifts in phases of seconds
    (other tenants, frequency), moving every timing by tens of percent.
    sample() times the reference once, outside every timed region, and
    returns that time in ms; speed_factors() turns the reference times
    taken next to a series of operations into their speed factors.

    A sample taken while one of the program's own processes runs is
    discarded (recorded as None): slowing the host by work left running
    outside the timed call must show, not be divided out.  The garbage
    collector is off during a sample, so the program's garbage is not
    collected on the reference's time either.
    """

    def __init__(self):
        self.ref_ms: list[float | None] = []
        self.spent_s = 0.0  # wall time spent sampling, discarded ones too

    def sample(self) -> float | None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            busy = child_running()
            t0 = time.perf_counter_ns()
            reference_work()
            ms = (time.perf_counter_ns() - t0) / 1e6
            busy = busy or child_running()
        finally:
            if enabled:
                gc.enable()
        self.ref_ms.append(None if busy else ms)
        self.spent_s += time.perf_counter() - start
        return self.ref_ms[-1]

    def discarded(self) -> int:
        return sum(ms is None for ms in self.ref_ms)


def speed_factors(ref_ms: list) -> list[float]:
    """REF_NOMINAL_MS over the median of the reference times in a window
    centred on each operation (REF_WINDOW on each side; the whole run when
    every sample in the window was discarded).  Multiplying an operation's
    time by its factor expresses it at the reference speed."""
    kept = [ms for ms in ref_ms if ms is not None]
    if not kept:
        raise RuntimeError("no reference sample was taken while the "
                           "program's processes were idle")
    factors = []
    for i in range(len(ref_ms)):
        window = [ms for ms in ref_ms[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
                  if ms is not None]
        factors.append(REF_NOMINAL_MS / statistics.median(window or kept))
    return factors


class Tally:
    """Correctness gate and timing samples of one measured pass.

    Every attempted operation is counted exactly once, as passed or failed:
    an operation that raises or whose output differs from the oracle is a
    failure, never a dropped sample.
    """

    def __init__(self):
        self.gauge = SpeedGauge()
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.samples: list[tuple] = []  # ns, items, ref ms (None: discarded)
        self.errors: list[str] = []

    def timed(self, call):
        """Run call() on the monotonic clock; return (result, ns).

        The host speed is sampled first, outside the timed region.  An
        exception is counted as a failure and returned as (None, None).
        """
        self.attempted += 1
        self._ref = self.gauge.sample()
        t0 = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a failing operation must not end the run
            self.fail(f"{type(exc).__name__}: {exc}")
            return None, None
        return result, max(time.perf_counter_ns() - t0, 1)

    def record(self, ok: bool, what: str, ns: int, items: int = 1) -> None:
        """File the outcome of one timed operation that did not raise."""
        self.items += items
        self.samples.append((ns, items, self._ref))
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def absorb(self, other: "Tally") -> None:
        """Add another pass's correctness counts to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[:20 - len(self.errors)]

    def end_to_end(self, raw: bool = False) -> dict:
        """items_per_s, item_ms_p50 and item_ms_p90 of this pass, at the
        reference host speed (or as measured, with raw=True)."""
        if not self.samples:
            return {"items_per_s": 0.0, "item_ms_p50": 0.0, "item_ms_p90": 0.0}
        factors = [1.0] * len(self.samples) if raw else \
            speed_factors([ref for _, _, ref in self.samples])
        ns = [t * f for (t, _, _), f in zip(self.samples, factors)]
        per_item = [t / 1e6 / k for t, (_, k, _) in zip(ns, self.samples)]
        return {"items_per_s": self.items / (sum(ns) / 1e9),
                "item_ms_p50": statistics.median(per_item),
                "item_ms_p90": percentile(per_item, 90)}


class Tracer:
    """In-memory span recorder; written out once the benchmark ends.

    A span holds its name, start and end on the monotonic clock, the span
    that caused it and a request identifier shared by the spans of one
    operation, plus the counts observed at that boundary.
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, req=None, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if req is None:  # a root span starts a request; children inherit it
            req = sid if parent is None else self.spans[parent]["req"]
        rec = {"id": sid, "parent": parent, "req": req, "name": name,
               "start_ns": time.perf_counter_ns(), "end_ns": None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns()

    def select(self, name: str, **match) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and all(
            s["attrs"].get(k) == v for k, v in match.items())]

    def durations_ms(self, name: str, **match) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6
                for s in self.select(name, **match)]

    def self_ms_by_name(self) -> dict:
        """Per span name, total duration minus the time direct children
        cover (the layer's self time)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end_ns"] - s["start_ns"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own / 1e6
        return out


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False
    _null = nullcontext({})

    def span(self, name: str, req=None, **attrs):
        return self._null
