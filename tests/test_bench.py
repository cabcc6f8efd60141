"""Benchmark harness: grid execution, aggregation, record round-trips."""

import json
from dataclasses import asdict, replace

import pytest

from pqmul import (
    BenchmarkRecord,
    BenchmarkSpec,
    CapacityError,
    InvalidInputError,
    InvalidPlanError,
    MethodPlan,
    TimeModel,
    aggregate,
    calibrate,
    export_records,
    import_records,
    predicted_mult_count,
    run_benchmark,
)
from pqmul.bench import CSV_COLUMNS, host_metadata, write_metadata_sidecar
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


def json_rows(drop=None, **fields) -> str:
    """Three records as JSON; the last one's fields overridden, or with
    the field drop left out."""
    rows = [asdict(fake_record(run_index=i)) for i in range(3)]
    rows[2].update(fields)
    rows[2].pop(drop, None)
    return json.dumps(rows)


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

    def test_invalid_plan_raises_when_grouped(self):
        """import_records checks each record's plan; a record built in
        Python is checked when its cells are grouped."""
        records = [fake_record(), replace(fake_record(run_index=1), k=3)]
        for group in (aggregate, TimeModel.from_records,
                      lambda rs: calibrate(rs, [(512, 512)])):
            with pytest.raises(InvalidPlanError, match="requires k=2"):
                group(records)


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

    @pytest.mark.parametrize("text, where", [
        ("[[0", "not valid JSON"),
        ("[[0]]", r"records\[0\]\.method: missing"),
        (json_rows(k=None), r"records\[2\]\.k: expected int, got None"),
        (json_rows(method=None),
         r"records\[2\]\.method: expected str, got None"),
        (json_rows(k=2.7), r"records\[2\]\.k: expected int, got 2\.7"),
        (json_rows(workers=True),
         r"records\[2\]\.workers: expected int, got True"),
        (json_rows(degree="512"),
         r"records\[2\]\.degree: expected int, got '512'"),
        (json_rows(elapsed_ns=2.7),
         r"records\[2\]\.elapsed_ns: expected int, got 2\.7"),
        (json_rows(mult_count=None, drop="mult_count"),
         r"records\[2\]\.mult_count: missing"),
    ], ids=["invalid", "list_row", "null_field", "null_method", "float_k",
            "bool_workers", "string_degree", "float_elapsed_ns",
            "missing_mult_count"])
    def test_malformed_json_names_path(self, text, where, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=rf"bad\.json: {where}"):
            import_records(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("field, value, message", [
        ("load_pct", -1, r"\.load_pct: must be in \[0, 100\], got -1"),
        ("load_pct", 101, r"\.load_pct: must be in \[0, 100\], got 101"),
        ("elapsed_ns", 0, r"\.elapsed_ns: must be >= 1, got 0"),
        ("run_index", -1, r"\.run_index: must be >= 0, got -1"),
        ("degree", 0, r"\.degree: must be >= 1, got 0"),
        ("mult_count", 0, r"\.mult_count: must be >= 1, got 0"),
        ("method", "fft", r": unknown method 'fft'"),
        ("k", 3, r": Karatsuba requires k=2, got k=3"),
        ("workers", 0, r": workers must be >= 1, got 0"),
        ("base_cutoff", 0, r": base_cutoff must be >= 1, got 0"),
    ], ids=["load_pct_low", "load_pct_high", "elapsed_ns", "run_index",
            "degree", "mult_count", "method", "k", "workers", "base_cutoff"])
    def test_out_of_range_record_names_path_and_field(
            self, fmt, field, value, message, tmp_path):
        records = [fake_record(run_index=i) for i in range(3)]
        records[2] = replace(records[2], **{field: value})
        path = tmp_path / f"bad.{fmt}"
        export_records(records, path)
        with pytest.raises(InvalidInputError,
                           match=rf"bad\.{fmt}: records\[2\]{message}"):
            import_records(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_range_edges_accepted(self, fmt, tmp_path):
        records = [fake_record(load_pct=0, run_index=0, elapsed_ns=1,
                               degree=1),
                   replace(fake_record(load_pct=100), mult_count=1)]
        path = tmp_path / f"edges.{fmt}"
        export_records(records, path)
        assert import_records(path) == records


def test_metadata_sidecar_bytes_pinned(tmp_path):
    """Sorted keys, two-space indent, one trailing LF."""
    path = write_metadata_sidecar(tmp_path / "r.csv")
    assert path == f"{tmp_path / 'r.csv'}.meta.json"
    meta = host_metadata()
    assert list(meta) == sorted(meta)
    with open(path, "rb") as fh:
        assert fh.read() == (json.dumps(meta, indent=2, sort_keys=True)
                             + "\n").encode()


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
