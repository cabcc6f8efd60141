"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL/SKIP lines.

Criteria 5-7 are performance properties defined for an idle multi-core host
(5 and 6 need >= 6 logical cores; 7 needs at least one loadable worker, so
>= 2 cores).  They auto-skip on smaller hosts and honor the explicit
override flag PQMUL_PERF: "1" forces them to run, "0" forces the skip.
Everything else runs everywhere.
"""

import functools
import os
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from pqmul import (
    BenchmarkSpec,
    LoadProfile,
    MethodPlan,
    OperationCounter,
    Polynomial,
    SystemState,
    TimeModel,
    aggregate,
    calibrate,
    export_records,
    import_records,
    load_rules,
    load_scenario,
    measure_achieved_load,
    multiply,
    parallel_mul,
    predicted_mult_count,
    recursion_depth,
    run_benchmark,
    run_simulation,
    save_rules,
    save_scenario,
    schoolbook_mul,
    select_method,
    start_load,
)
from pqmul.loadgen import usable_cpu_count
from pqmul.policy import table_to_dict

CPU_COUNT = usable_cpu_count()
PERF_FLAG = os.environ.get("PQMUL_PERF", "")
SCENARIO_PATH = Path(__file__).parent.parent / "scenarios" / "mixed_load.json"

KARATSUBA_SEQ = MethodPlan.karatsuba()
TOOM3_SEQ = MethodPlan.toom(3, workers=1)
TOOM3_PAR = MethodPlan.toom(3, workers=5)


def _gate(required_cores: int, what: str) -> None:
    if PERF_FLAG == "0":
        pytest.skip(f"{what}: skipped via PQMUL_PERF=0")
    if PERF_FLAG != "1" and CPU_COUNT < required_cores:
        pytest.skip(f"{what}: needs an idle >= {required_cores}-core host, "
                    f"this one has {CPU_COUNT}")


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"\nACCEPTANCE {num:>2} SKIP  {title} ({exc})")
                raise
            except BaseException:
                print(f"\nACCEPTANCE {num:>2} FAIL  {title}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"\nACCEPTANCE {num:>2} PASS  {title}{suffix}")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def machine_sweep():
    """This machine's own calibration data (shared by criteria 8-10)."""
    spec = BenchmarkSpec(
        degrees=(512,),
        plans=(KARATSUBA_SEQ, TOOM3_SEQ, TOOM3_PAR),
        load_levels_pct=(0, 25, 50),
        loaded_workers=min(4, max(CPU_COUNT - 1, 0)),
        runs=5,
        seed=2026,
        modulus=4096)
    records = run_benchmark(spec)
    table = calibrate(records, [(512, 512)])
    model = TimeModel.from_records(records)
    return spec, records, table, model


@criterion(1, "oracle equivalence on random operands, both rings")
def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    combos = [(MethodPlan.karatsuba(workers=w),
               MethodPlan.toom(3, workers=w),
               MethodPlan.toom(4, workers=w)) for w in (1, 5)]
    combos = [plan for trio in combos for plan in trio]
    checked = 0
    for mode_index, modulus in enumerate((None, 4096)):
        rng = random.Random(77 + mode_index)
        for i in range(1000):
            n_a = rng.randint(1, 1024)
            n_b = rng.randint(1, 1024)
            a = Polynomial.random(n_a, 4096, rng.randrange(2**63), modulus)
            b = Polynomial.random(n_b, 4096, rng.randrange(2**63), modulus)
            plan = combos[i % len(combos)]
            result, _ = parallel_mul(a, b, plan)
            assert result == schoolbook_mul(a, b), \
                f"{plan.label} disagrees at lengths ({n_a}, {n_b}), q={modulus}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"runtime budget exceeded: {elapsed:.0f}s"
    return f"{checked} pairs, {elapsed:.0f}s"


@criterion(2, "exact operation counts at base_cutoff=1")
def test_criterion_2_exact_counts():
    rng = random.Random(5)
    for n in range(1, 65):
        plan = MethodPlan.schoolbook()
        a = Polynomial.random(n, 64, rng.randrange(2**31))
        b = Polynomial.random(n, 64, rng.randrange(2**31))
        counter = OperationCounter()
        multiply(a, b, plan, counter)
        assert counter.fundamental_mults == n * n == \
            predicted_mult_count(plan, n)
    cases = [(MethodPlan.karatsuba(base_cutoff=1), 512, 19683),
             (MethodPlan.toom(3, base_cutoff=1), 729, 15625)]
    for plan, n, expected in cases:
        a = Polynomial.random(n, 4096, seed=n)
        b = Polynomial.random(n, 4096, seed=n + 1)
        counter = OperationCounter()
        multiply(a, b, plan, counter)
        assert counter.fundamental_mults == expected
        assert predicted_mult_count(plan, n) == expected
    return "schoolbook N in 1..64, karatsuba 512 = 19683, toom3 729 = 15625"


@criterion(3, "recursion-depth law and Toom <= Karatsuba depth ordering")
def test_criterion_3_recursion_depth():
    assert recursion_depth(MethodPlan.karatsuba(base_cutoff=1), 512) == 9
    assert recursion_depth(MethodPlan.toom(3, base_cutoff=1), 729) == 6
    karat = MethodPlan.karatsuba(base_cutoff=1)
    tooms = [MethodPlan.toom(k, base_cutoff=1) for k in (3, 4)]
    for n in range(1, 4097):
        dk = recursion_depth(karat, n)
        for plan in tooms:
            assert recursion_depth(plan, n) <= dk
    return "depth(K,512)=9, depth(T3,729)=6, ordering holds for N <= 4096"


@criterion(4, "parallel determinism across worker counts and repeats")
def test_criterion_4_parallel_determinism():
    rng = random.Random(11)
    plans = [MethodPlan.karatsuba(workers=1, base_cutoff=8),
             MethodPlan.toom(3, workers=1, base_cutoff=8),
             MethodPlan.toom(4, workers=1, base_cutoff=8)]
    for i in range(100):
        n = rng.randint(1, 256)
        modulus = 4096 if i % 2 else None
        a = Polynomial.random(n, 4096, rng.randrange(2**63), modulus)
        b = Polynomial.random(n, 4096, rng.randrange(2**63), modulus)
        plan = plans[i % len(plans)]
        baseline, base_counter = parallel_mul(a, b, replace(plan, workers=1))
        for workers in (1, 2, 3, 5, 8):
            for _ in range(5):
                result, counter = parallel_mul(
                    a, b, replace(plan, workers=workers))
                assert result == baseline
                assert counter == base_counter
    return "100 inputs x workers {1,2,3,5,8} x 5 repeats"


@criterion(5, "low-load speedup orderings at degree 512")
def test_criterion_5_low_load_speedup():
    _gate(6, "low-load speedup")
    spec = BenchmarkSpec(
        degrees=(512,),
        plans=(KARATSUBA_SEQ, TOOM3_SEQ, TOOM3_PAR),
        load_levels_pct=(0,),
        loaded_workers=0,
        runs=10,
        seed=31,
        modulus=4096)
    stats = {(s.method, s.workers): s.mean_ns
             for s in aggregate(run_benchmark(spec))}
    par = stats[("toom", 5)]
    seq = stats[("toom", 1)]
    kar = stats[("karatsuba", 1)]
    assert par < seq, f"parallel {par:.0f}ns not faster than sequential {seq:.0f}ns"
    assert kar < seq, f"karatsuba {kar:.0f}ns not faster than toom-seq {seq:.0f}ns"
    return (f"toom3-w5 {par/1e6:.1f}ms < toom3-w1 {seq/1e6:.1f}ms, "
            f"karatsuba {kar/1e6:.1f}ms < toom3-w1")


@criterion(6, "crossover existence over the full load sweep")
def test_criterion_6_crossover_existence():
    _gate(6, "crossover sweep")
    spec = BenchmarkSpec(
        degrees=(512,),
        plans=(KARATSUBA_SEQ, TOOM3_SEQ, TOOM3_PAR),
        load_levels_pct=tuple(range(0, 91, 5)),
        loaded_workers=4,
        runs=10,
        seed=47,
        modulus=4096)
    table = calibrate(run_benchmark(spec), [(512, 512)])
    threshold = table.entries[0].threshold_parallel_vs_karatsuba_pct
    assert 0 < threshold < 100, \
        f"no interior crossover: threshold={threshold}"
    return f"observed threshold_parallel_vs_karatsuba = {threshold:.1f}%"


@criterion(7, "load generator accuracy within +/-10 points")
def test_criterion_7_loadgen_accuracy():
    _gate(2, "load generator accuracy")
    workers = min(4, CPU_COUNT - 1)
    for target in (10, 30, 50, 70, 90):
        handle = start_load(LoadProfile(workers, target))
        try:
            time.sleep(0.1)  # let the duty cycle settle
            achieved = measure_achieved_load(handle, 5_000)
        finally:
            handle.stop()
        for worker_pct in achieved:
            assert abs(worker_pct - target) <= 10, \
                f"target {target}%: worker achieved {worker_pct:.1f}%"
    return f"targets 10..90 on {workers} workers, 5s windows"


@criterion(8, "policy regret <= 10% on this machine's calibration")
def test_criterion_8_policy_regret(machine_sweep):
    spec, records, table, model = machine_sweep
    plans = list(spec.plans)
    worst = 0.0
    for load in spec.load_levels_pct:
        chosen = select_method(table, SystemState(512, load, 5))
        chosen_t = model.predict(chosen, 512, load)
        best_t = min(model.predict(p, 512, load) for p in plans)
        worst = max(worst, chosen_t / best_t - 1)
        assert chosen_t <= best_t * 1.10, \
            f"load {load}: chose {chosen.label} at {chosen_t:.0f}ns, " \
            f"best is {best_t:.0f}ns"
    for load in (0, 25, 50):
        plan = select_method(table, SystemState(512, load, 1))
        assert plan.method == "karatsuba" and plan.workers == 1
    return f"worst regret {worst * 100:.1f}%, single-core always karatsuba"


@criterion(9, "simulator: rule table dominates fixed plans on mixed load")
def test_criterion_9_simulator_dominance(machine_sweep):
    spec, records, table, model = machine_sweep
    scenario = load_scenario(SCENARIO_PATH)
    report = run_simulation(scenario, table, model)
    assert report == run_simulation(scenario, table, model)  # per-seed determinism
    assert report.total_handovers > 0
    from dataclasses import replace
    details = []
    for fixed in spec.plans:
        fixed_scenario = replace(scenario, policy_mode="fixed_plan",
                                 fixed_plan=fixed)
        fixed_report = run_simulation(fixed_scenario, None, model)
        assert report.mean_latency_ms <= fixed_report.mean_latency_ms * 1.10, \
            f"rule table {report.mean_latency_ms:.2f}ms worse than fixed " \
            f"{fixed.label} {fixed_report.mean_latency_ms:.2f}ms"
        details.append(f"{fixed.label} {fixed_report.mean_latency_ms:.1f}ms")
    return (f"rule {report.mean_latency_ms:.1f}ms <= " + ", ".join(details))


@criterion(10, "byte-identical save/load/save round-trips")
def test_criterion_10_round_trips(machine_sweep, tmp_path):
    _, records, table, _ = machine_sweep
    for fmt in ("csv", "json"):
        p1 = tmp_path / f"records1.{fmt}"
        p2 = tmp_path / f"records2.{fmt}"
        export_records(records, p1)
        export_records(import_records(p1), p2)
        assert p1.read_bytes() == p2.read_bytes(), f"records {fmt} round-trip"
    r1, r2 = tmp_path / "rules1.json", tmp_path / "rules2.json"
    save_rules(table, r1)
    save_rules(load_rules(r1), r2)
    assert r1.read_bytes() == r2.read_bytes(), "rule file round-trip"
    assert table_to_dict(load_rules(r1)) == table_to_dict(table)
    s1, s2 = tmp_path / "scenario1.json", tmp_path / "scenario2.json"
    save_scenario(load_scenario(SCENARIO_PATH), s1)
    save_scenario(load_scenario(s1), s2)
    assert s1.read_bytes() == s2.read_bytes(), "scenario round-trip"
    return "records csv+json, rule file, scenario file"
