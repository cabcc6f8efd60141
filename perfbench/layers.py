"""The traced run: every workload once with spans on, plus layer probes.

For each workload (the requested one first) the traced run sets it up,
then runs every operation of its rounds once untraced and once traced and
reports the difference in wall time as the tracing overhead.
Spans sit around the benchmark's calls into each layer's public functions;
none are placed inside the program.  Small probes then time the layer
functions no workload calls in isolation.
"""

from __future__ import annotations

import pickle
import random
import statistics
import time

from harness import NullTracer, Tally, mix, random_coeffs
from workloads import (
    BASE_Q,
    ENGINE_SIZES,
    PARALLEL_SLOTS,
    PLAN_NAMES,
    SIM_CORES,
    SIM_DEGREES,
    SIM_DURATION_MS,
    SIM_PLANS,
    WORKLOADS,
    sequential_plan,
)

from pqmul import (
    LoadProfile,
    Polynomial,
    SystemState,
    evaluate_parts,
    interpolate,
    measure_achieved_load,
    multiply,
    parallel_mul,
    schoolbook_mul,
    select_method,
    split,
    start_load,
    stop_load,
)

SPLIT_FACTORS = {"karatsuba": 2, "toom3": 3, "toom4": 4}
SCHOOLBOOK_REPS = {16: 301, 256: 7, 1024: 3}
TOP_SPLIT_N = 1024
TOP_SPLIT_REPS = 3
SPEEDUP_REPS = 3
#: The per-call probes run in PROBE_CHUNKS interleaved spans of PROBE_CHUNK
#: calls each and report the median span, so a phase of host speed falls
#: on every probe alike.
PROBE_CHUNKS = 40
PROBE_CHUNK = 100
LOADGEN_LEVELS = (25, 50, 75)
LOADGEN_WINDOW_MS = 300
SIM_PROBE_ROUNDS = 2
#: An untraced run measures at least this many operations, so that at least
#: ten samples lie beyond the 90th percentile.
MIN_SAMPLES = 100


def per_layer_spec() -> list[dict]:
    """Every per-layer metric: name, unit and which direction is better."""
    def m(name, unit, better="lower"):
        return {"name": name, "unit": unit, "better": better}

    ns = sorted(set(PARALLEL_SLOTS))
    out = [m(f"poly.schoolbook_ms.n{n}", "ms") for n in SCHOOLBOOK_REPS]
    out += [m(f"multipliers.mul_ms.{p}.n{n}", "ms")
            for p in PLAN_NAMES for n in ENGINE_SIZES]
    out += [m(f"multipliers.unbalanced_ms.{p}", "ms") for p in PLAN_NAMES]
    out += [m(f"multipliers.ns_per_mult.{p}", "ns") for p in PLAN_NAMES]
    out += [m(f"multipliers.fundamental_{kind}.{p}.n{n}", "count")
            for kind in ("mults", "adds") for p in PLAN_NAMES
            for n in ENGINE_SIZES]
    out += [m(f"multipliers.{stage}_ms.k{k}", "ms")
            for stage in ("top_split_eval", "top_subproducts", "top_interp")
            for k in SPLIT_FACTORS.values()]
    out += [m(f"parallel.{kind}_ms.{p}.n{n}", "ms")
            for kind in ("mul", "seq") for p in PLAN_NAMES for n in ns]
    out += [m(f"parallel.speedup.{p}.n{n}", "x", "higher")
            for p in PLAN_NAMES for n in ns]
    out.append(m("parallel.pool_warmup_ms", "ms"))
    out += [m(f"parallel.ship_bytes.{p}.n{n}", "computed-bytes")
            for p in PLAN_NAMES for n in ns]
    out += [m("loadgen.start_ms", "ms"), m("loadgen.stop_ms", "ms")]
    out += [m(f"loadgen.achieved_error_pct.l{load}", "%")
            for load in LOADGEN_LEVELS]
    out += [m("bench.cell_s", "s"), m("bench.timed_share", "share", "higher"),
            m("bench.records", "count", "higher")]
    out += [m("policy.calibrate_ms", "ms"), m("policy.select_us", "us"),
            m("policy.predict_us", "us")]
    out += [m("simulator.load_at_us.l9", "us"),
            m("simulator.load_at_us.l1000", "us"),
            m("simulator.handovers", "count", "higher")]
    out += [m(f"trace.overhead_pct.{w}", "%") for w in WORKLOADS]
    return out


def measure(workload, seconds: float, tally: Tally, tracer) -> None:
    """Run whole rounds until at least `seconds` of wall time have passed
    and at least MIN_SAMPLES operations have been attempted."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for op in workload.round(index):
            workload.run(op, tally, tracer)
        index += 1
        if time.perf_counter() >= deadline and tally.attempted >= MIN_SAMPLES:
            return


def med(values) -> float:
    return statistics.median(values) if values else 0.0


def span_ms(tracer, name: str) -> float:
    return med(tracer.durations_ms(name))


# ---------------------------------------------------------------------------
# per-workload probes and metric extraction
# ---------------------------------------------------------------------------

def engine_layers(w, tracer, checks: Tally) -> dict:
    out = {}
    rng = random.Random(mix(w.seed, 20))
    for n, reps in SCHOOLBOOK_REPS.items():
        a = Polynomial(random_coeffs(rng, n, 4096), 4096)
        b = Polynomial(random_coeffs(rng, n, 4096), 4096)
        for _ in range(reps):
            with tracer.span("poly.schoolbook_mul", probe=True, n=n):
                schoolbook_mul(a, b)
        out[f"poly.schoolbook_ms.n{n}"] = med(
            tracer.durations_ms("poly.schoolbook_mul", probe=True, n=n))

    spans = tracer.select("multipliers.multiply", probe=None)
    for p in PLAN_NAMES:
        bal = [s["attrs"] for s in spans
               if s["attrs"]["plan"] == p and not s["attrs"]["unbalanced"]
               and "ns" in s["attrs"]]
        for n in ENGINE_SIZES:
            at_n = [a for a in bal if a["n"] == n]
            out[f"multipliers.mul_ms.{p}.n{n}"] = med(
                [a["ns"] / 1e6 for a in at_n])
            out[f"multipliers.fundamental_mults.{p}.n{n}"] = \
                at_n[0]["mults"] if at_n else 0
            out[f"multipliers.fundamental_adds.{p}.n{n}"] = \
                at_n[0]["adds"] if at_n else 0
        out[f"multipliers.unbalanced_ms.{p}"] = med(
            [s["attrs"]["ns"] / 1e6 for s in spans
             if s["attrs"]["plan"] == p and s["attrs"]["unbalanced"]
             and "ns" in s["attrs"]])
        mults = sum(a["mults"] for a in bal)
        out[f"multipliers.ns_per_mult.{p}"] = \
            sum(a["ns"] for a in bal) / mults if mults else 0.0

    a, pairs = w.base[TOP_SPLIT_N]
    b, c = pairs[0]
    for p, k in SPLIT_FACTORS.items():
        plan = sequential_plan(p)
        for _ in range(TOP_SPLIT_REPS):
            with tracer.span("multipliers.top_split", k=k):
                checks.attempted += 1
                got = top_split_product(a, b, k, plan, tracer)
                if got != c:
                    checks.fail(f"top-level {p} recombination differs")
        for stage in ("top_split_eval", "top_subproducts", "top_interp"):
            out[f"multipliers.{stage}_ms.k{k}"] = med(
                tracer.durations_ms(f"multipliers.{stage}", k=k))
    return out


def top_split_product(a, b, k, plan, tracer) -> tuple:
    """One top level of the engine from its public parts; the recombine of
    the interpolated slices happens here."""
    n = len(a)
    with tracer.span("multipliers.top_split_eval", k=k):
        ea = evaluate_parts(split(a, k), k)
        eb = evaluate_parts(split(b, k), k)
    m = len(ea[0])
    with tracer.span("multipliers.top_subproducts", k=k):
        products = []
        for x, y in zip(ea, eb):
            v = list(multiply(Polynomial(x), Polynomial(y), plan).coeffs)
            products.append(v + [0] * (2 * m - 1 - len(v)))
    with tracer.span("multipliers.top_interp", k=k):
        slices = interpolate(products, k)
    with tracer.span("multipliers.top_recombine", k=k):
        out = [0] * (2 * k * m - 1)
        for i, part in enumerate(slices):
            for j, v in enumerate(part):
                out[i * m + j] += v
    return tuple(v % BASE_Q for v in out[:2 * n - 1])


def parallel_layers(w, tracer, checks: Tally) -> dict:
    out = {"parallel.pool_warmup_ms": span_ms(tracer, "parallel.pool_warmup")}
    rng = random.Random(mix(w.seed, 21))
    for p in PLAN_NAMES:
        plan, seq = w.plans[p], sequential_plan(p)
        k = SPLIT_FACTORS[p]
        for n in w.base:
            out[f"parallel.mul_ms.{p}.n{n}"] = med(
                [s["attrs"]["ns"] / 1e6 for s in tracer.select(
                    "parallel.parallel_mul", plan=p, n=n, probe=None)
                 if "ns" in s["attrs"]])
            for _ in range(SPEEDUP_REPS):
                a, b, expected = w.operands(n, rng)
                with tracer.span("parallel.parallel_mul", probe=True,
                                 plan=p, n=n):
                    par, _ = parallel_mul(a, b, plan)
                with tracer.span("multipliers.multiply", probe=True,
                                 plan=p, n=n):
                    got = multiply(a, b, seq)
                checks.attempted += 1
                if par.coeffs != expected or got.coeffs != expected:
                    checks.fail(f"speed-up probe {p} n={n} wrong product")
            par_ms = med(tracer.durations_ms(
                "parallel.parallel_mul", probe=True, plan=p, n=n))
            seq_ms = med(tracer.durations_ms(
                "multipliers.multiply", probe=True, plan=p, n=n))
            out[f"parallel.seq_ms.{p}.n{n}"] = seq_ms
            out[f"parallel.speedup.{p}.n{n}"] = seq_ms / par_ms if par_ms else 0.0
            a, b, _ = w.operands(n, rng)
            out[f"parallel.ship_bytes.{p}.n{n}"] = ship_bytes(
                a, b, k, seq, w.nproc)
    return out


def ship_bytes(a, b, k, seq_plan, workers: int) -> int:
    """Computed, not observed: pickled size of the one-level leaf tasks the
    parent sends (statically assigned, task i to worker i mod workers) and
    of the products the workers return."""
    ea = evaluate_parts(split(a, k), k)
    eb = evaluate_parts(split(b, k), k)
    tasks = [(x, y, k, seq_plan.base_cutoff) for x, y in zip(ea, eb)]
    results = [(list(multiply(Polynomial(x), Polynomial(y), seq_plan).coeffs),
                0, 0) for x, y in zip(ea, eb)]
    return sum(len(pickle.dumps(tasks[w::workers])) +
               len(pickle.dumps(results[w::workers]))
               for w in range(min(workers, len(tasks))))


def handover_layers(w, tracer, checks: Tally) -> dict:
    out = {"policy.calibrate_ms": span_ms(tracer, "policy.calibrate")}
    rng = random.Random(mix(w.seed, 22))
    calls = PROBE_CHUNKS * PROBE_CHUNK
    states = [SystemState(degree=rng.choice(SIM_DEGREES),
                          load_pct=rng.uniform(0, 100),
                          available_cores=rng.choice(SIM_CORES))
              for _ in range(calls)]
    queries = [(rng.choice(SIM_PLANS), rng.choice(SIM_DEGREES),
                rng.uniform(0, 100)) for _ in range(calls)]
    times = [rng.uniform(0, SIM_DURATION_MS) for _ in range(calls)]
    nodes = {length: w.nodes[SIM_CORES[-1], length][0] for length in (9, 1000)}

    def select(chunk):
        for state in states[chunk]:
            select_method(w.table, state)

    def predict(chunk):
        for plan, degree, load in queries[chunk]:
            w.model.predict(plan, degree, load)

    def load_at(length):
        def probe(chunk):
            for t in times[chunk]:
                nodes[length].load_at(t)
        return probe

    probes = [("policy.select_method", {}, select),
              ("policy.predict", {}, predict),
              ("simulator.load_at", {"l": 9}, load_at(9)),
              ("simulator.load_at", {"l": 1000}, load_at(1000))]
    for i in range(PROBE_CHUNKS):
        chunk = slice(i * PROBE_CHUNK, (i + 1) * PROBE_CHUNK)
        for name, match, probe in rng.sample(probes, len(probes)):
            with tracer.span(name, calls=PROBE_CHUNK, **match):
                probe(chunk)
    out["policy.select_us"] = per_call_us(tracer, "policy.select_method")
    out["policy.predict_us"] = per_call_us(tracer, "policy.predict")
    for length in (9, 1000):
        out[f"simulator.load_at_us.l{length}"] = per_call_us(
            tracer, "simulator.load_at", l=length)
    probe = Tally()
    before = w.counts["handovers"]
    for index in range(SIM_PROBE_ROUNDS):
        for op in w.round(index):
            w.run(op, probe, NullTracer())
    out["simulator.handovers"] = w.counts["handovers"] - before
    checks.absorb(probe)
    return out


def per_call_us(tracer, name: str, **match) -> float:
    """Median over the probe's spans of the time per call."""
    return med([(s["end_ns"] - s["start_ns"]) / 1e3 / s["attrs"]["calls"]
                for s in tracer.select(name, **match)])


def grid_layers(w, tracer, checks: Tally) -> dict:
    cells = [s for s in tracer.select("bench.run_benchmark")
             if "ns" in s["attrs"]]
    wall = sum(s["end_ns"] - s["start_ns"] for s in cells)
    out = {"bench.cell_s": med([(s["end_ns"] - s["start_ns"]) / 1e9
                                for s in cells]),
           "bench.timed_share": sum(s["attrs"]["elapsed_ns"]
                                    for s in cells) / wall if wall else 0.0,
           "bench.records": sum(s["attrs"]["records"] for s in cells)}
    workers = w.loaded_workers
    for load in LOADGEN_LEVELS:
        out[f"loadgen.achieved_error_pct.l{load}"] = 0.0
    if workers < 1:  # a single-core host has no core to load
        out["loadgen.start_ms"] = out["loadgen.stop_ms"] = 0.0
        return out
    for load in LOADGEN_LEVELS:
        checks.attempted += 1
        with tracer.span("loadgen.start_load", load=load):
            handle = start_load(LoadProfile(workers, load))
        try:
            achieved = measure_achieved_load(handle, LOADGEN_WINDOW_MS)
        finally:
            with tracer.span("loadgen.stop_load", load=load):
                stop_load(handle)
        if handle.active or len(achieved) != workers:
            checks.fail(f"load generator at {load}% did not start or stop")
        out[f"loadgen.achieved_error_pct.l{load}"] = med(
            [abs(a - load) for a in achieved])
    out["loadgen.start_ms"] = span_ms(tracer, "loadgen.start_load")
    out["loadgen.stop_ms"] = span_ms(tracer, "loadgen.stop_load")
    return out


LAYER_PROBES = {"engine": engine_layers, "parallel": parallel_layers,
                "handover": handover_layers, "grid": grid_layers}


def tracing_overhead(w, seconds: float, tracer, checks: Tally) -> float:
    """Run whole rounds until `seconds` have passed (at least one), every
    operation once untraced and once traced, and return by how many percent
    tracing raised an operation's wall time: the median over operations of
    traced ÷ untraced wall time, minus one.

    The two runs of an operation are back to back and which goes first
    alternates from one operation to the next, so both see the same inputs,
    the same phase of host speed and the same warm-up.  An operation's wall
    time holds everything the benchmark does for it: the program call, the
    span and its counts, and the output check; only the host-speed sample is
    taken out.
    """
    tallies = {False: Tally(), True: Tally()}
    untraced = NullTracer()
    ratios = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        for j, op in enumerate(w.round(index)):
            first = (j + w.seed) % 2 == 1
            wall = {}
            for traced in (first, not first):
                tally = tallies[traced]
                sampling = tally.gauge.spent_s
                t0 = time.perf_counter()
                w.run(op, tally, tracer if traced else untraced)
                wall[traced] = time.perf_counter() - t0 - (
                    tally.gauge.spent_s - sampling)
            ratios.append(wall[True] / wall[False])
        index += 1
    for tally in tallies.values():
        checks.absorb(tally)
    return 100.0 * (statistics.median(ratios) - 1)


def traced_run(first: str, seed: int, seconds: float, nproc: int, tracer):
    """The whole traced sweep; returns (per-layer metrics, checks, shares)."""
    names = list(WORKLOADS)
    start = names.index(first)
    names = names[start:] + names[:start]
    metrics, shares = {}, {}
    checks = Tally()
    for name in names:
        w = WORKLOADS[name](seed, nproc)
        with tracer.span("setup", workload=name):
            w.setup(tracer)
        try:
            metrics[f"trace.overhead_pct.{name}"] = tracing_overhead(
                w, seconds / len(names), tracer, checks)
            shares[name] = w.shares()
            metrics.update(LAYER_PROBES[name](w, tracer, checks))
        finally:
            w.teardown()
    return metrics, checks, shares
