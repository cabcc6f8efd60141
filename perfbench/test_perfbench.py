"""Tests of the benchmark's own correctness gate and metric list.

Run with ``python -m pytest perfbench``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import pytest  # noqa: E402
import workloads  # noqa: E402
from layers import (  # noqa: E402
    MIN_SAMPLES,
    measure,
    per_layer_spec,
    tracing_overhead,
)
from run import result_line  # noqa: E402

from pqmul import MethodPlan, Polynomial, multiply, schoolbook_mul  # noqa: E402


def one_engine_batch(monkeypatch, broken_multiply):
    monkeypatch.setattr(workloads, "multiply", broken_multiply)
    w = workloads.Engine(seed=3, nproc=1)
    w.setup(harness.NullTracer())
    op = next(op for op in w.round(0) if op[1] == 256)
    tally = harness.Tally()
    w.run(op, tally, harness.NullTracer())
    return tally


def test_corrupted_product_is_counted_as_failed_not_dropped(monkeypatch):
    calls = []

    def corrupt_third(a, b, plan, counter=None):
        out = multiply(a, b, plan, counter)
        calls.append(out)
        if len(calls) == 3:
            coeffs = list(out.coeffs)
            coeffs[0] += 1
            return Polynomial(coeffs, out.modulus)
        return out

    tally = one_engine_batch(monkeypatch, corrupt_third)
    assert tally.attempted == workloads.ENGINE_BATCH
    assert tally.failed == 1
    assert len(tally.samples) == workloads.ENGINE_BATCH
    result = result_line(tally.attempted, tally.failed, tally.end_to_end(), {
        "items_per_s": "items/s", "item_ms_p50": "ms", "item_ms_p90": "ms"})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (10, 1)


def test_raising_product_is_counted_as_failed(monkeypatch):
    calls = []

    def raise_on_fifth(a, b, plan, counter=None):
        calls.append(1)
        if len(calls) == 5:
            raise ArithmeticError("injected")
        return multiply(a, b, plan, counter)

    tally = one_engine_batch(monkeypatch, raise_on_fifth)
    assert (tally.attempted, tally.failed) == (workloads.ENGINE_BATCH, 1)
    assert "injected" in tally.errors[0]


def test_twisted_operands_multiply_to_twisted_product():
    a = [3, 1, 4, 1, 5]
    b = [9, 2, 6]
    c = schoolbook_mul(Polynomial(a, 8192), Polynomial(b, 8192)).coeffs
    for q in (4096, 8192):
        for sign in (1, -1):
            got = multiply(Polynomial(harness.twist(a, 5, sign, q), q),
                           Polynomial(harness.twist(b, 7, sign, q), q),
                           MethodPlan.karatsuba(base_cutoff=1))
            assert got.coeffs == tuple(harness.twist(c, 35, sign, q))


class OneOperationPerRound:
    def round(self, index):
        return [index]

    def run(self, op, tally, tracer):
        _, ns = tally.timed(lambda: op)
        tally.record(True, "", ns)


def test_a_pass_measures_at_least_min_samples_however_short():
    tally = harness.Tally()
    measure(OneOperationPerRound(), 0.0, tally, harness.NullTracer())
    assert len(tally.samples) >= MIN_SAMPLES


class SpanCostsAsMuchAsTheCall:
    seed = 0

    def round(self, index):
        return range(10)

    def run(self, op, tally, tracer):
        with tracer.span("op"):
            _, ns = tally.timed(lambda: time.sleep(0.002))
            if tracer.enabled:
                time.sleep(0.002)
        tally.record(True, "", ns)


def test_tracing_overhead_counts_time_spent_in_spans_outside_the_call():
    overhead = tracing_overhead(SpanCostsAsMuchAsTheCall(), 0.0,
                                harness.Tracer(), harness.Tally())
    assert 50 < overhead < 200


def test_discarded_reference_samples_take_no_part_in_the_speed_factor():
    factor = harness.REF_NOMINAL_MS / 0.25
    assert harness.speed_factors([0.25, None, 0.25]) == [factor] * 3
    with pytest.raises(RuntimeError):
        harness.speed_factors([None, None])


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == per_layer_spec()
