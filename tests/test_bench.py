"""Benchmark harness: grid execution, aggregation, record round-trips."""

import json
from dataclasses import astuple

import pytest

from pqmul import (
    BenchmarkRecord,
    BenchmarkSpec,
    CapacityError,
    InvalidInputError,
    MethodPlan,
    aggregate,
    export_records,
    host_metadata,
    import_records,
    predicted_mult_count,
    run_benchmark,
)
from pqmul.bench import CSV_COLUMNS
from pqmul.loadgen import usable_cpu_count


def small_spec(**overrides) -> BenchmarkSpec:
    base = dict(degrees=(48,),
                plans=(MethodPlan.karatsuba(base_cutoff=8),
                       MethodPlan.toom(3, base_cutoff=8)),
                load_levels_pct=(0, 50),
                loaded_workers=0,
                runs=2,
                seed=5)
    base.update(overrides)
    return BenchmarkSpec(**base)


def fake_record(load_pct=0, run_index=0, elapsed_ns=1_000_000, degree=512):
    return BenchmarkRecord(method="karatsuba", k=2, workers=1, base_cutoff=16,
                           degree=degree, load_pct=load_pct,
                           run_index=run_index, elapsed_ns=elapsed_ns,
                           mult_count=19683)


class TestSpecValidation:
    def test_empty_lists_rejected(self):
        with pytest.raises(InvalidInputError):
            small_spec(degrees=())
        with pytest.raises(InvalidInputError):
            small_spec(plans=())
        with pytest.raises(InvalidInputError):
            small_spec(load_levels_pct=())

    def test_runs_at_least_one(self):
        with pytest.raises(InvalidInputError):
            small_spec(runs=0)

    def test_load_range(self):
        with pytest.raises(InvalidInputError):
            small_spec(load_levels_pct=(0, 120))

    def test_default_runs_is_ten(self):
        spec = BenchmarkSpec(degrees=(8,), plans=(MethodPlan.schoolbook(),),
                             load_levels_pct=(0,))
        assert spec.runs == 10


class TestRunBenchmark:
    def test_record_shape_and_order(self):
        spec = small_spec()
        records = run_benchmark(spec)
        # degrees x loads x plans x runs, nested in that order
        assert len(records) == 1 * 2 * 2 * 2
        expected_keys = [(48, load, plan.method, run)
                         for load in (0, 50)
                         for plan in spec.plans
                         for run in (0, 1)]
        got_keys = [(r.degree, r.load_pct, r.method, r.run_index)
                    for r in records]
        assert got_keys == expected_keys
        assert all(r.elapsed_ns > 0 for r in records)

    def test_mult_count_matches_predictor_and_is_cell_constant(self):
        records = run_benchmark(small_spec())
        for r in records:
            assert r.mult_count == predicted_mult_count(r.plan, r.degree)

    def test_reruns_reproduce_counts_and_operands(self):
        first = run_benchmark(small_spec())
        second = run_benchmark(small_spec())
        strip = lambda r: (r.method, r.k, r.workers, r.base_cutoff, r.degree,
                           r.load_pct, r.run_index, r.mult_count)
        assert [strip(r) for r in first] == [strip(r) for r in second]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            run_benchmark(small_spec(loaded_workers=usable_cpu_count()))


class TestAggregate:
    def test_mean_min_max_over_known_values(self):
        records = [fake_record(run_index=i, elapsed_ns=ms * 1_000_000)
                   for i, ms in enumerate(range(1, 11))]
        (cell,) = aggregate(records)
        assert cell.mean_ns == pytest.approx(5.5e6)
        assert cell.min_ns == 1_000_000
        assert cell.max_ns == 10_000_000
        assert cell.runs == 10

    def test_single_record_zero_std(self):
        (cell,) = aggregate([fake_record()])
        assert cell.mean_ns == 1_000_000
        assert cell.std_ns == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate([])

    def test_one_row_per_cell(self):
        records = [fake_record(load_pct=l, run_index=i)
                   for l in (0, 10) for i in range(3)]
        cells = aggregate(records)
        assert [(c.load_pct, c.runs) for c in cells] == [(0, 3), (10, 3)]


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_save_load_save_byte_identical(self, fmt, tmp_path):
        records = [fake_record(load_pct=l, run_index=i, elapsed_ns=7_000 + i)
                   for l in (0, 25) for i in range(2)]
        p1 = tmp_path / f"r1.{fmt}"
        p2 = tmp_path / f"r2.{fmt}"
        export_records(records, p1)
        back = import_records(p1)
        assert back == records
        export_records(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        export_records([], path)
        content = path.read_bytes()
        assert content == b"method,k,workers,base_cutoff,degree,load_pct,run_index,elapsed_ns,mult_count\n"
        assert import_records(path) == []

    def test_columns_constant(self):
        assert CSV_COLUMNS == ("method", "k", "workers", "base_cutoff",
                               "degree", "load_pct", "run_index",
                               "elapsed_ns", "mult_count")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidInputError):
            import_records(path)

    @pytest.mark.parametrize("text", [
        "[[0",
        "[[0]]",
        json.dumps([dict(zip(CSV_COLUMNS, astuple(fake_record())), k=None)]),
        json.dumps([dict(zip(CSV_COLUMNS, astuple(fake_record())),
                         method=None)]),
        json.dumps([dict(zip(CSV_COLUMNS, astuple(fake_record())), k=2.7)]),
        json.dumps([dict(zip(CSV_COLUMNS, astuple(fake_record())),
                         workers=True)]),
        json.dumps([dict(zip(CSV_COLUMNS, astuple(fake_record())),
                         degree="512")]),
    ], ids=["invalid", "list_row", "null_field", "null_method", "float_k",
            "bool_workers", "string_degree"])
    def test_malformed_json_names_path(self, text, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="bad.json"):
            import_records(path)


def test_host_metadata_documents_core_count():
    meta = host_metadata()
    assert meta["cpu_count"] == usable_cpu_count()
    assert "platform" in meta and "python" in meta


def test_coarse_timer_is_an_environment_error(monkeypatch):
    import types

    import pqmul.bench as bench_mod
    from pqmul import TimerResolutionError

    fake = types.SimpleNamespace(resolution=1e-3)
    monkeypatch.setattr(bench_mod.time, "get_clock_info", lambda name: fake)
    with pytest.raises(TimerResolutionError):
        run_benchmark(small_spec())
