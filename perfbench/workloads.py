"""The four benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed in ``setup`` (untimed by the
measuring loop), then yields its operations in *rounds*.  Every round holds
the same mix of operation kinds in a seed-shuffled order, and a measured
pass always ends on a round boundary, so the input mix is identical for
every seed and the order carries no warm-up or drift bias.

Every product is checked against a schoolbook product computed in set-up:
fresh operands are images of a few base operands under
f(x) -> s * f(+-x) mod q (see harness.twist), whose products follow exactly
from the base products.
"""

from __future__ import annotations

import contextlib
import io
import random

from harness import mix, random_coeffs, twist

from pqmul import (
    BenchmarkRecord,
    BenchmarkSpec,
    MecNode,
    MethodPlan,
    OperationCounter,
    Polynomial,
    Scenario,
    TimeModel,
    calibrate,
    multiply,
    parallel_mul,
    predicted_mult_count,
    render_report,
    run_benchmark,
    run_simulation,
    schoolbook_mul,
    shutdown_pools,
)

#: Base operands live mod 2^13; reducing them mod 4096 is a ring map, so one
#: schoolbook product serves both moduli.
BASE_Q = 8192
QS = (4096, 8192)
PLAN_NAMES = ("karatsuba", "toom3", "toom4")


def sequential_plan(name: str) -> MethodPlan:
    if name == "karatsuba":
        return MethodPlan.karatsuba()
    return MethodPlan.toom(int(name[-1]))


def parallel_plan(name: str, workers: int) -> MethodPlan:
    if name == "karatsuba":
        return MethodPlan.karatsuba(workers=workers)
    return MethodPlan.toom(int(name[-1]), workers=workers)


def base_product(a: list[int], b: list[int]) -> tuple[int, ...]:
    return schoolbook_mul(Polynomial(a, BASE_Q), Polynomial(b, BASE_Q)).coeffs


class Workload:
    name = ""

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what setup acquired (called untimed)."""

    def round(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op, tally, tracer) -> None:
        raise NotImplementedError

    def shares(self) -> dict:
        """Measured input-property shares of the operations run so far."""
        return {}


# ---------------------------------------------------------------------------
# engine: sequential products in handover batches
# ---------------------------------------------------------------------------

ENGINE_SIZES = (256, 512, 768, 1024)
UNBALANCED = 0
#: Batches per plan in one round; one in nine is unbalanced (a short operand
#: against a long N = 1024 one).  The weights put the median product in the
#: middle of one (size, plan) class rather than on the edge between two,
#: both while an unbalanced product costs as much as a balanced N = 1024 one
#: and once it costs less than an N = 256 one, and the 90th percentile well
#: inside one as well; on a class edge these figures jump between runs.
ENGINE_SLOTS = (256, 256, 256, 512, 512, 512, 768, 1024, UNBALANCED)
ENGINE_LONG = 1024
ENGINE_BATCH = 10
ENGINE_BASES = 4
SHORT_LEN = (16, 128)


class Engine(Workload):
    """Sequential karatsuba/toom3/toom4 products (cutoff 16), batches of ten
    sharing one operand, N in {256, 512, 768, 1024}, q in {4096, 2^13}."""

    name = "engine"

    def setup(self, tracer) -> None:
        rng = random.Random(mix(self.seed, 1))
        self.base = {}
        for n in ENGINE_SIZES:
            a = random_coeffs(rng, n, BASE_Q)
            pairs = []
            for _ in range(ENGINE_BASES):
                b = random_coeffs(rng, n, BASE_Q)
                with tracer.span("poly.schoolbook_mul", n=n):
                    pairs.append((b, base_product(a, b)))
            self.base[n] = (a, pairs)
        long_a = self.base[ENGINE_LONG][0]
        self.shorts = []
        for _ in range(ENGINE_BASES):
            s = random_coeffs(rng, rng.randint(*SHORT_LEN), BASE_Q)
            with tracer.span("poly.schoolbook_mul", n=len(s)):
                self.shorts.append((s, base_product(long_a, s)))
        self.plans = {p: sequential_plan(p) for p in PLAN_NAMES}
        self.predicted = {(p, n): predicted_mult_count(self.plans[p], n)
                          for p in PLAN_NAMES for n in ENGINE_SIZES}
        self.counts = {"products": 0, "shared": 0, "unbalanced": 0, "q8192": 0}

    def round(self, index: int) -> list:
        rng = random.Random(mix(self.seed, 2, index))
        batches = [(p, slot) for p in PLAN_NAMES for slot in ENGINE_SLOTS]
        qs = [QS[i % 2] for i in range(len(batches))]  # 14 and 13 of 27
        rng.shuffle(qs)
        rng.shuffle(batches)
        return [(p, slot, q, rng.getrandbits(64))
                for (p, slot), q in zip(batches, qs)]

    def run(self, op, tally, tracer) -> None:
        name, slot, q, op_seed = op
        plan = self.plans[name]
        rng = random.Random(op_seed)
        sign = rng.choice((1, -1))
        lam = rng.randrange(1, q, 2)
        unbalanced = slot == UNBALANCED
        n = ENGINE_LONG if unbalanced else slot
        shared, others = (self.base[n][0], self.shorts) if unbalanced \
            else self.base[n]
        a = Polynomial(twist(shared, lam, sign, q), q)
        for i in range(ENGINE_BATCH):
            b_base, c_base = others[rng.randrange(ENGINE_BASES)]
            mu = rng.randrange(1, q, 2)
            b = Polynomial(twist(b_base, mu, sign, q), q)
            expected = tuple(twist(c_base, lam * mu, sign, q))
            counter = OperationCounter()
            with tracer.span("multipliers.multiply", plan=name, n=n,
                             unbalanced=unbalanced) as attrs:
                got, ns = tally.timed(lambda: multiply(a, b, plan, counter))
            if ns is None:
                continue
            ok = got.coeffs == expected and got.modulus == q
            if not unbalanced:
                ok = ok and counter.fundamental_mults == self.predicted[name, n]
            tally.record(ok, f"engine {name} n={n} len(b)={len(b)} q={q}", ns)
            if tracer.enabled:
                attrs.update(ns=ns, mults=counter.fundamental_mults,
                             adds=counter.fundamental_adds)
            c = self.counts
            c["products"] += 1
            c["shared"] += i > 0
            c["unbalanced"] += unbalanced
            c["q8192"] += q == 8192

    def shares(self) -> dict:
        c = self.counts
        total = max(c["products"], 1)
        return {"products": c["products"],
                "shared_operand_share": c["shared"] / total,
                "unbalanced_share": c["unbalanced"] / total,
                "q8192_share": c["q8192"] / total}


# ---------------------------------------------------------------------------
# parallel: fresh, balanced, unshared pairs through parallel_mul
# ---------------------------------------------------------------------------

#: Products per plan in one round, weighted as in the engine workload so
#: the median and the 90th percentile lie inside a (size, plan) class.
PARALLEL_SLOTS = (512, 512, 512, 1024, 1024)
PARALLEL_BASES = 3
PARALLEL_Q = 4096


class Parallel(Workload):
    """karatsuba/toom3/toom4 with workers = usable cores, through
    parallel_mul; the pool is warmed in set-up."""

    name = "parallel"

    def setup(self, tracer) -> None:
        rng = random.Random(mix(self.seed, 3))
        self.base = {}
        for n in sorted(set(PARALLEL_SLOTS)):
            triples = []
            for _ in range(PARALLEL_BASES):
                a = random_coeffs(rng, n, BASE_Q)
                b = random_coeffs(rng, n, BASE_Q)
                with tracer.span("poly.schoolbook_mul", n=n):
                    triples.append((a, b, base_product(a, b)))
            self.base[n] = triples
        self.plans = {p: parallel_plan(p, self.nproc) for p in PLAN_NAMES}
        self.predicted = {(p, n): predicted_mult_count(self.plans[p], n)
                          for p in PLAN_NAMES for n in self.base}
        self.products = 0
        warm = random.Random(mix(self.seed, 4))
        with tracer.span("parallel.pool_warmup"):
            for name in PLAN_NAMES:
                a, b, expected = self.operands(512, warm)
                got, _ = parallel_mul(a, b, self.plans[name])
                if got.coeffs != expected:
                    raise RuntimeError(f"warm-up product of {name} is wrong")

    def teardown(self) -> None:
        shutdown_pools()

    def operands(self, n: int, rng):
        a, b, c = self.base[n][rng.randrange(PARALLEL_BASES)]
        sign = rng.choice((1, -1))
        lam = rng.randrange(1, PARALLEL_Q, 2)
        mu = rng.randrange(1, PARALLEL_Q, 2)
        return (Polynomial(twist(a, lam, sign, PARALLEL_Q), PARALLEL_Q),
                Polynomial(twist(b, mu, sign, PARALLEL_Q), PARALLEL_Q),
                tuple(twist(c, lam * mu, sign, PARALLEL_Q)))

    def round(self, index: int) -> list:
        rng = random.Random(mix(self.seed, 5, index))
        ops = [(p, n) for p in PLAN_NAMES for n in PARALLEL_SLOTS]
        rng.shuffle(ops)
        return [(p, n, rng.getrandbits(64)) for p, n in ops]

    def run(self, op, tally, tracer) -> None:
        name, n, op_seed = op
        plan = self.plans[name]
        a, b, expected = self.operands(n, random.Random(op_seed))
        with tracer.span("parallel.parallel_mul", plan=name, n=n) as attrs:
            out, ns = tally.timed(lambda: parallel_mul(a, b, plan))
        if ns is None:
            return
        got, counter = out
        ok = (got.coeffs == expected
              and counter.fundamental_mults == self.predicted[name, n])
        tally.record(ok, f"parallel {name} n={n}", ns)
        if tracer.enabled:
            attrs["ns"] = ns
        self.products += 1

    def shares(self) -> dict:
        return {"products": self.products, "shared_operand_share": 0.0,
                "unbalanced_share": 0.0}


# ---------------------------------------------------------------------------
# handover: calibrated rule table driving the simulator
# ---------------------------------------------------------------------------

SIM_DEGREES = (256, 512, 768, 1024)
#: 1024 lies outside both bands, so the uncovered-degree branch is reached.
SIM_BANDS = [(1, 384), (385, 896)]
SIM_LOADS = tuple(range(0, 100, 10))
SIM_RUNS = 8
#: One node per core count: 1 (single core), 2 (fewer cores than the
#: parallel plan's 5 workers), 5 and 8 (threshold decides).
SIM_CORES = (1, 2, 5, 8)
TRACE_LENGTHS = (9, 9, 1000, 1000)
TRACE_VARIANTS = 3
SIM_DURATION_MS = 60_000.0
SIM_VEHICLES = 16
SIM_INTERVAL_MS = 2_000.0
SIM_PLANS = (MethodPlan.karatsuba(), MethodPlan.toom(3),
             MethodPlan.toom(3, workers=5))


def synthetic_records(rng) -> list[BenchmarkRecord]:
    """Seeded records with a clear crossover: parallel Toom-Cook wins at low
    load and loses to Karatsuba near 45% and to sequential Toom-Cook near
    55%."""
    records = []
    for degree in SIM_DEGREES:
        base = degree * degree * 40.0
        for load in SIM_LOADS:
            x = load / 100.0
            means = (base * (1 + 0.3 * x), 1.1 * base * (1 + 0.3 * x),
                     0.4 * base * (1 + 4.0 * x))
            for plan, mean in zip(SIM_PLANS, means):
                for run in range(SIM_RUNS):
                    records.append(BenchmarkRecord(
                        method=plan.method, k=plan.k, workers=plan.workers,
                        base_cutoff=plan.base_cutoff, degree=degree,
                        load_pct=load, run_index=run,
                        elapsed_ns=int(mean * rng.uniform(0.97, 1.03)),
                        mult_count=predicted_mult_count(plan, degree)))
    return records


def load_trace(rng, length: int) -> tuple:
    step = SIM_DURATION_MS / length
    load = rng.uniform(0, 90)
    trace = []
    for i in range(length):
        load = min(90.0, max(0.0, load + rng.uniform(-25, 25)))
        trace.append((i * step, round(load, 1)))
    return tuple(trace)


def render(report) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        return render_report(report, "json")


class Handover(Workload):
    """run_simulation in rule_table mode on four MEC nodes (cores 1, 2, 5, 8)
    with 9- and 1000-breakpoint load traces."""

    name = "handover"

    def setup(self, tracer) -> None:
        rng = random.Random(mix(self.seed, 6))
        self.records = synthetic_records(rng)
        with tracer.span("policy.calibrate", records=len(self.records)):
            self.table = calibrate(self.records, SIM_BANDS)
        with tracer.span("policy.time_model"):
            self.model = TimeModel.from_records(self.records)
        self.nodes = {(cores, length): [MecNode(cores, load_trace(rng, length))
                                        for _ in range(TRACE_VARIANTS)]
                      for cores in SIM_CORES for length in set(TRACE_LENGTHS)}
        self.counts = {"handovers": 0, "long_trace": 0, "calls": 0}

    def round(self, index: int) -> list:
        rng = random.Random(mix(self.seed, 7, index))
        degrees = list(SIM_DEGREES)
        rng.shuffle(degrees)
        ops = []
        for degree in degrees:
            lengths = list(TRACE_LENGTHS)
            rng.shuffle(lengths)
            nodes = tuple(self.nodes[c, l][rng.randrange(TRACE_VARIANTS)]
                          for c, l in zip(SIM_CORES, lengths))
            ops.append((Scenario(
                mec_nodes=nodes, vehicles=SIM_VEHICLES,
                handover_interval_ms=SIM_INTERVAL_MS, degree=degree,
                duration_ms=SIM_DURATION_MS, seed=rng.getrandbits(32)),
                lengths))
        return ops

    def run(self, op, tally, tracer) -> None:
        scenario, lengths = op
        with tracer.span("simulator.run_simulation",
                         degree=scenario.degree) as attrs:
            report, ns = tally.timed(
                lambda: run_simulation(scenario, self.table, self.model))
        if ns is None:
            return
        try:
            again = run_simulation(scenario, self.table, self.model)
            ok = report.total_handovers > 0 and render(report) == render(again)
        except Exception:  # a repeat that raises is not reproducible either
            ok = False
        tally.record(ok, f"handover degree={scenario.degree} not reproducible",
                     ns, items=max(report.total_handovers, 1))
        if tracer.enabled:
            attrs.update(ns=ns, handovers=report.total_handovers)
        c = self.counts
        c["calls"] += 1
        c["handovers"] += report.total_handovers
        c["long_trace"] += sum(m.handovers for m, l in zip(report.per_mec, lengths)
                               if l == 1000)

    def shares(self) -> dict:
        c = self.counts
        return {"simulations": c["calls"], "handovers": c["handovers"],
                "trace_l1000_share": c["long_trace"] / max(c["handovers"], 1),
                "trace_l9_share": 1 - c["long_trace"] / max(c["handovers"], 1)}


# ---------------------------------------------------------------------------
# grid: the bench harness under live synthetic load
# ---------------------------------------------------------------------------

GRID_DEGREE = 512
GRID_LOADS = (0, 25, 50, 75)
GRID_RUNS = 2
GRID_Q = 4096


class Grid(Workload):
    """run_benchmark cells at degree 512: sequential karatsuba/toom3/toom4
    at loads 0/25/50/75 with usable cores - 1 loaded workers."""

    name = "grid"

    def setup(self, tracer) -> None:
        self.loaded_workers = max(0, self.nproc - 1)
        self.plans = {p: sequential_plan(p) for p in PLAN_NAMES}
        self.predicted = {p: predicted_mult_count(plan, GRID_DEGREE)
                          for p, plan in self.plans.items()}
        self.cells = 0
        self.loaded_cells = 0
        with tracer.span("bench.warmup_cell"):
            self.cell("karatsuba", GRID_LOADS[1], mix(self.seed, 8), runs=1)

    def cell(self, name: str, load: int, seed: int, runs: int = GRID_RUNS):
        return run_benchmark(BenchmarkSpec(
            degrees=(GRID_DEGREE,), plans=(self.plans[name],),
            load_levels_pct=(load,), loaded_workers=self.loaded_workers,
            runs=runs, seed=seed, modulus=GRID_Q))

    def round(self, index: int) -> list:
        rng = random.Random(mix(self.seed, 9, index))
        ops = [(p, load) for p in PLAN_NAMES for load in GRID_LOADS]
        rng.shuffle(ops)
        return [(p, load, rng.getrandbits(32)) for p, load in ops]

    def run(self, op, tally, tracer) -> None:
        name, load, cell_seed = op
        with tracer.span("bench.run_benchmark", plan=name, load=load) as attrs:
            records, ns = tally.timed(lambda: self.cell(name, load, cell_seed))
        if ns is None:
            return
        ok = len(records) == GRID_RUNS and all(
            r.mult_count == self.predicted[name] and r.elapsed_ns > 0
            and r.load_pct == load and r.degree == GRID_DEGREE
            for r in records)
        tally.record(ok, f"grid {name} load={load} bad records", ns)
        if tracer.enabled:
            attrs.update(ns=ns, records=len(records),
                         elapsed_ns=sum(r.elapsed_ns for r in records))
        self.cells += 1
        self.loaded_cells += load > 0 and self.loaded_workers > 0

    def shares(self) -> dict:
        return {"cells": self.cells,
                "loaded_cell_share": self.loaded_cells / max(self.cells, 1)}


WORKLOADS = {cls.name: cls for cls in (Engine, Parallel, Handover, Grid)}
