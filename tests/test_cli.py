"""CLI: subcommand behavior, exit codes, file outputs."""

import json
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from pqmul import (
    BenchmarkRecord,
    MethodPlan,
    export_records,
    save_scenario,
)
from pqmul.cli import LiveTimer, _parse_plan, main
from pqmul.loadgen import usable_cpu_count
from pqmul.multipliers import DEFAULT_BASE_CUTOFF
from pqmul.simulator import MecNode, Scenario, run_simulation

KARATSUBA = MethodPlan.karatsuba(base_cutoff=16)
TOOM_SEQ = MethodPlan.toom(3, workers=1, base_cutoff=16)
TOOM_PAR = MethodPlan.toom(3, workers=5, base_cutoff=16)
README = Path(__file__).resolve().parent.parent / "README.md"


def synthetic_records_file(tmp_path, name="records.csv"):
    """Records with a parallel-vs-karatsuba crossover near 13."""
    records = []
    for plan, base, slope in ((KARATSUBA, 10e6, 0.02e6),
                              (TOOM_SEQ, 14e6, 0.02e6),
                              (TOOM_PAR, 5e6, 0.4e6)):
        for load in (0, 10, 20, 30, 40, 50):
            for i in range(2):
                records.append(BenchmarkRecord(
                    method=plan.method, k=plan.k, workers=plan.workers,
                    base_cutoff=plan.base_cutoff, degree=512, load_pct=load,
                    run_index=i, elapsed_ns=int(base + slope * load),
                    mult_count=1000))
    path = tmp_path / name
    export_records(records, path)
    return path


class TestMultiply:
    def test_schoolbook_example(self, capsys):
        assert main(["multiply", "--plan", "schoolbook",
                     "--a", "3,4", "--b", "1,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3,10,8"
        assert "fundamental_mults=4" in out[1]

    def test_karatsuba_three_mults(self, capsys):
        assert main(["multiply", "--plan", "karatsuba:c1",
                     "--a", "3,4", "--b", "1,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3,10,8"
        assert "fundamental_mults=3" in out[1]

    def test_json_format(self, capsys):
        assert main(["multiply", "--plan", "toom3:c1",
                     "--a", "1,1,1", "--b", "1,1,1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coeffs"] == [1, 2, 3, 2, 1]
        assert data["fundamental_mults"] == 5

    def test_modulus(self, capsys):
        assert main(["multiply", "--plan", "schoolbook", "--modulus", "7",
                     "--a", "6,6", "--b", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1,1"

    def test_file_operands(self, tmp_path, capsys):
        f = tmp_path / "a.txt"
        f.write_text("3\n4\n")
        assert main(["multiply", "--plan", "schoolbook",
                     "--a", f"@{f}", "--b", "1,2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "3,10,8"

    def test_bad_coefficients_exit_2(self, capsys):
        assert main(["multiply", "--plan", "schoolbook",
                     "--a", "3,x", "--b", "1"]) == 2

    def test_bad_plan_exit_2(self, capsys):
        for token in ("toom5", "toom9", "toom3:x1", "karatsuba:w0",
                      "toom3:c0"):
            assert main(["multiply", "--plan", token,
                         "--a", "1", "--b", "1"]) == 2, token
            assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_flag_rejected(self):
        # multiply draws nothing random, so it takes no --seed; the plan
        # token replaced --method, --k, --workers and --cutoff
        for extra in (["--frobnicate"], ["--seed", "0"], ["--cutoff", "1"],
                      ["--method", "schoolbook"], ["--k", "3"],
                      ["--workers", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["multiply", "--plan", "schoolbook", "--a", "1",
                      "--b", "1"] + extra)
            assert exc.value.code == 2

    @pytest.mark.parametrize("token", [
        "schoolbook", "karatsuba", "toom3", "toom4", "schoolbook:w2",
        "schoolbook:c5", "karatsuba:c1", "toom3:w2", "toom4:c2:w2"])
    def test_json_plan_is_the_parsed_token(self, token, capsys):
        assert main(["multiply", "--plan", token, "--a", "1,2,3,4,5",
                     "--b", "5,4,3,2,1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"] == _parse_plan(token).as_dict()
        assert data["coeffs"] == [5, 14, 26, 40, 55, 40, 26, 14, 5]

    def test_method_disagreement_exits_3(self, monkeypatch, capsys):
        import pqmul.cli as cli_mod
        from pqmul import Polynomial

        monkeypatch.setattr(cli_mod, "multiply",
                            lambda a, b, plan, counter: Polynomial([999]))
        assert main(["multiply", "--plan", "karatsuba",
                     "--a", "3,4", "--b", "1,2"]) == 3
        assert "self-check" in capsys.readouterr().err


class TestCountCheck:
    def test_karatsuba_lengths(self, capsys):
        assert main(["count-check", "--plan", "karatsuba:c1",
                     "--lengths", "2,64,512"]) == 0
        out = capsys.readouterr().out
        assert "N=512 measured=19683 predicted=19683 ok" in out

    def test_toom3(self, capsys):
        assert main(["count-check", "--plan", "toom3:c1",
                     "--lengths", "729"]) == 0
        assert "measured=15625 predicted=15625 ok" in capsys.readouterr().out

    def test_schoolbook_range(self, capsys):
        assert main(["count-check", "--plan", "schoolbook",
                     "--lengths", "1:8:1"]) == 0
        assert "N=8 measured=64 predicted=64 ok" in capsys.readouterr().out

    def test_honours_the_token_cutoff(self, capsys):
        # a cutoff above 1 stops the recursion at blocks of up to 16
        assert main(["count-check", "--plan", "karatsuba:c16",
                     "--lengths", "256,1000"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "N=256 measured=20736 predicted=20736 ok",
            "N=1000 measured=186624 predicted=186624 ok"]

    def test_workers_rejected(self, capsys):
        # the check runs the sequential engine, so :wN would go unused
        assert main(["count-check", "--plan", "toom3:w4",
                     "--lengths", "64"]) == 2
        assert ":wN" in capsys.readouterr().err

    def test_empty_range_exits_2(self, capsys):
        # a stop below the start names no length, so nothing is checked
        assert main(["count-check", "--plan", "karatsuba",
                     "--lengths", "5:1:1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "gives no values" in err

    def test_seed_and_modulus_rejected(self):
        # the counts follow from the lengths, so nothing random is exposed
        for extra in (["--seed", "5"], ["--modulus", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["count-check", "--plan", "schoolbook",
                      "--lengths", "4"] + extra)
            assert exc.value.code == 2


def test_readme_examples_print_what_they_show(capsys):
    """Each README multiply and count-check example prints the '# ' lines
    under it, so the docs cannot drift from the flags."""
    lines = README.read_text(encoding="utf-8").splitlines()
    seen = set()
    for i, line in enumerate(lines):
        if not line.startswith(("pqmul multiply ", "pqmul count-check ")):
            continue
        argv = shlex.split(line)[1:]
        shown = [out[2:] for out in
                 takewhile(lambda x: x.startswith("# "), lines[i + 1:])]
        assert shown, f"README shows no output for {line!r}"
        assert main(argv) == 0, line
        assert capsys.readouterr().out.splitlines() == shown, line
        seen.add(argv[0])
    assert seen == {"multiply", "count-check"}


@pytest.mark.parametrize("argv", [
    "bench --degrees 5x --out {tmp}/r.csv",
    "bench --plans karatsuba:wx --out {tmp}/r.csv",
    "count-check --plan karatsuba --lengths 1:x:1",
    "calibrate --records {records} --bands 10- --out {tmp}/rules.json",
])
def test_malformed_number_exits_2(argv, tmp_path, capsys):
    records = synthetic_records_file(tmp_path)
    assert main(argv.format(tmp=tmp_path, records=records).split()) == 2
    assert capsys.readouterr().err.startswith("error: bad integer")


class TestBench:
    def test_minimal_run_writes_records_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "recs.csv"
        assert main(["bench", "--degrees", "32", "--loads", "0",
                     "--loaded-workers", "0", "--runs", "1",
                     "--plans", "karatsuba:w1", "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "recs.csv.meta.json").exists()
        stdout = capsys.readouterr().out
        assert "karatsuba" in stdout and "wrote 1 records" in stdout

    def test_capacity_exit_4(self, tmp_path, capsys):
        out = tmp_path / "recs.csv"
        assert main(["bench", "--degrees", "16", "--loads", "0",
                     "--loaded-workers", str(usable_cpu_count()),
                     "--runs", "1", "--plans", "karatsuba:w1",
                     "--out", str(out)]) == 4

    def test_plan_token_parsing(self, tmp_path, capsys):
        out = tmp_path / "recs.json"
        assert main(["bench", "--degrees", "16", "--loads", "0",
                     "--loaded-workers", "0", "--runs", "1",
                     "--plans", "toom4:w2:c4,schoolbook",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert {(r["method"], r["workers"], r["base_cutoff"])
                for r in rows} == {("toom", 2, 4), ("schoolbook", 1, 1)}

    def test_format_flag_rejected(self, tmp_path):
        # the records format follows the --out name
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--format", "json", "--out",
                  str(tmp_path / "r.csv")])
        assert exc.value.code == 2

    def test_json_records_feed_calibrate(self, tmp_path, capsys):
        out = tmp_path / "recs.json"
        assert main(["bench", "--degrees", "16", "--loads", "0,10,20",
                     "--loaded-workers", "0", "--runs", "1",
                     "--plans", "karatsuba:w1,toom3:w1,toom3:w2",
                     "--out", str(out)]) == 0
        assert main(["calibrate", "--records", str(out),
                     "--out", str(tmp_path / "rules.json")]) == 0


class TestBenchDefaults:
    def test_defaults_reproduce_the_reference_grid_shape(self):
        """Default flags: degree 512, loads 0-90 step 5, 10 runs, 3 plans."""
        from pqmul.cli import _parse_int_list, build_parser

        args = build_parser().parse_args(["bench", "--out", "x.csv"])
        assert _parse_int_list(args.degrees) == [512]
        assert _parse_int_list(args.loads) == list(range(0, 91, 5))
        assert args.runs == 10
        assert args.loaded_workers == 4
        assert args.modulus == 4096
        plans = [_parse_plan(tok) for tok in args.plans.split(",")]
        c = DEFAULT_BASE_CUTOFF
        assert [(p.method, p.k, p.workers, p.base_cutoff) for p in plans] == \
            [("karatsuba", 2, 1, c), ("toom", 3, 1, c), ("toom", 3, 5, c)]


class TestCalibrateSelect:
    def test_pipeline(self, tmp_path, capsys):
        records = synthetic_records_file(tmp_path)
        rules = tmp_path / "rules.json"
        assert main(["calibrate", "--records", str(records),
                     "--out", str(rules)]) == 0
        assert rules.exists()
        capsys.readouterr()

        # single core: always sequential Karatsuba
        assert main(["select", "--rules", str(rules), "--degree", "512",
                     "--load", "0", "--cores", "1"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["method"] == "karatsuba" and plan["workers"] == 1

        # below the calibrated threshold: the parallel Toom plan
        assert main(["select", "--rules", str(rules), "--degree", "512",
                     "--load", "5", "--cores", "5"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan == {"method": "toom", "k": 3, "workers": 5,
                        "base_cutoff": 16}

        # above it: Karatsuba again
        assert main(["select", "--rules", str(rules), "--degree", "512",
                     "--load", "45", "--cores", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "karatsuba"

    def test_explicit_bands(self, tmp_path, capsys):
        records = synthetic_records_file(tmp_path)
        rules = tmp_path / "rules.json"
        assert main(["calibrate", "--records", str(records),
                     "--bands", "1-1024", "--out", str(rules)]) == 0
        data = json.loads(rules.read_text())
        assert data["entries"][0]["degree_band"] == {"min": 1, "max": 1024}

    @pytest.mark.parametrize("bands, message", [
        ("600-500", "--bands: band [600, 500] has min > max"),
        ("1-600,500-700", "--bands: band [500, 700] overlaps or is out of "
                          "order with [1, 600]"),
    ], ids=["reversed", "overlapping"])
    def test_bad_band_exit_2_before_records_read(self, bands, message,
                                                 tmp_path, capsys):
        # the records file does not exist: the band is rejected first
        assert main(["calibrate", "--records", str(tmp_path / "none.csv"),
                     "--bands", bands,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_insufficient_records_exit_5(self, tmp_path, capsys):
        records = []
        for load in (0, 10, 20):
            records.append(BenchmarkRecord(
                method="karatsuba", k=2, workers=1, base_cutoff=16,
                degree=512, load_pct=load, run_index=0,
                elapsed_ns=1000, mult_count=10))
        path = tmp_path / "only_karatsuba.csv"
        export_records(records, path)
        assert main(["calibrate", "--records", str(path),
                     "--out", str(tmp_path / "r.json")]) == 5


class TestSimulate:
    def make_files(self, tmp_path):
        records = synthetic_records_file(tmp_path)
        rules = tmp_path / "rules.json"
        assert main(["calibrate", "--records", str(records),
                     "--out", str(rules)]) == 0
        scenario = Scenario(
            mec_nodes=(MecNode(cores=5, load_trace=((0, 0), (20_000, 50))),),
            vehicles=4, handover_interval_ms=1_500.0, degree=512,
            duration_ms=40_000.0, seed=9)
        spath = tmp_path / "scenario.json"
        save_scenario(scenario, spath)
        return records, rules, spath

    def test_deterministic_json_output(self, tmp_path, capsys):
        records, rules, spath = self.make_files(tmp_path)
        capsys.readouterr()
        args = ["simulate", "--scenario", str(spath), "--rules", str(rules),
                "--records", str(records), "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["total_handovers"] > 0

    def test_seed_override_changes_report(self, tmp_path, capsys):
        records, rules, spath = self.make_files(tmp_path)
        capsys.readouterr()
        base = ["simulate", "--scenario", str(spath), "--rules", str(rules),
                "--records", str(records), "--format", "json"]
        assert main(base) == 0
        r1 = json.loads(capsys.readouterr().out)
        assert main(base + ["--seed", "1234"]) == 0
        r2 = json.loads(capsys.readouterr().out)
        assert r1 != r2

    def test_output_file(self, tmp_path, capsys):
        records, rules, spath = self.make_files(tmp_path)
        out = tmp_path / "report.json"
        assert main(["simulate", "--scenario", str(spath), "--rules",
                     str(rules), "--records", str(records),
                     "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["policy_mode"] == "rule_table"

    def test_needs_time_source_exit_2(self, tmp_path, capsys):
        _, rules, spath = self.make_files(tmp_path)
        assert main(["simulate", "--scenario", str(spath),
                     "--rules", str(rules)]) == 2

    def test_uncovered_degree_exit_5(self, tmp_path, capsys):
        records, rules, spath = self.make_files(tmp_path)
        scenario = Scenario(
            mec_nodes=(MecNode(cores=5, load_trace=((0, 0),)),),
            vehicles=2, handover_interval_ms=1_000.0, degree=99,
            duration_ms=10_000.0, seed=1)
        bad = tmp_path / "bad_scenario.json"
        save_scenario(scenario, bad)
        assert main(["simulate", "--scenario", str(bad), "--rules", str(rules),
                     "--records", str(records)]) == 5

    def test_missing_scenario_file_exit_2(self, tmp_path, capsys):
        records, rules, _ = self.make_files(tmp_path)
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--rules", str(rules), "--records", str(records)]) == 2

    LIVE_SCENARIO = Scenario(
        mec_nodes=(MecNode(cores=1, load_trace=((0, 0),)),
                   MecNode(cores=2, load_trace=((0, 50),))),
        vehicles=3, handover_interval_ms=1_000.0, degree=32,
        duration_ms=10_000.0, seed=4, policy_mode="fixed_plan",
        fixed_plan=MethodPlan.karatsuba(base_cutoff=8))

    def test_live_timer_runs_fixed_plan(self, tmp_path):
        scenario = self.LIVE_SCENARIO
        spath, out = tmp_path / "scenario.json", tmp_path / "report.json"
        save_scenario(scenario, spath)
        assert main(["simulate", "--scenario", str(spath), "--live",
                     "--format", "json", "--output", str(out)]) == 0
        live = json.loads(out.read_text())

        class Stub:
            def pricer(self, plan, degree):
                return lambda load_pct: 1.0

        # handover times come from the seed, never from the latencies
        model = run_simulation(scenario, None, Stub())
        assert live["total_handovers"] == model.total_handovers > 0
        assert [m["plan_counts"] for m in live["per_mec"]] == \
            [m.plan_counts for m in model.per_mec]

    def test_live_modulus_defaults_to_4096(self, tmp_path, monkeypatch):
        import pqmul.cli as cli_mod

        seen = []

        class Spy(cli_mod.LiveTimer):
            def __init__(self, seed, modulus):
                seen.append(modulus)
                super().__init__(seed, modulus)

        monkeypatch.setattr(cli_mod, "LiveTimer", Spy)
        spath = tmp_path / "scenario.json"
        save_scenario(self.LIVE_SCENARIO, spath)
        argv = ["simulate", "--scenario", str(spath), "--live",
                "--output", str(tmp_path / "report.txt")]
        assert main(argv) == 0
        assert main(argv + ["--modulus", "8192"]) == 0
        assert seen == [4096, 8192]

    def test_live_times_one_product_per_handover(self, tmp_path,
                                                   monkeypatch):
        import pqmul.cli as cli_mod

        products, multiply = [], cli_mod.multiply

        def counting(a, b, plan, *rest):
            products.append(plan)
            return multiply(a, b, plan, *rest)

        monkeypatch.setattr(cli_mod, "multiply", counting)
        spath, out = tmp_path / "scenario.json", tmp_path / "report.json"
        save_scenario(self.LIVE_SCENARIO, spath)
        assert main(["simulate", "--scenario", str(spath), "--live",
                     "--format", "json", "--output", str(out)]) == 0
        total = json.loads(out.read_text())["total_handovers"]
        assert len(products) == total > 0

    def test_live_pricer_times_every_call(self):
        # the same load twice is two products: a live price keeps no memo
        timer = LiveTimer(seed=1, modulus=4096)
        price = timer.pricer(MethodPlan.karatsuba(base_cutoff=8), 32)
        for calls, load in enumerate((10.0, 10.0, 10.0, 50.0), start=1):
            assert price(load) > 0
            assert timer._calls == calls

    def test_records_need_no_live(self, tmp_path, capsys):
        # a live run times real products, so records would go unused
        _, rules, spath = self.make_files(tmp_path)
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(spath), "--rules",
                     str(rules), "--live",
                     "--records", str(tmp_path / "nonexistent.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: simulate takes --live or --records, not both\n"

    def test_out_of_range_records_exit_2(self, tmp_path, capsys):
        _, rules, spath = self.make_files(tmp_path)
        bad = tmp_path / "bad.json"
        export_records([BenchmarkRecord(
            method="karatsuba", k=2, workers=1, base_cutoff=16, degree=512,
            load_pct=0, run_index=0, elapsed_ns=-110, mult_count=1000)], bad)
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(spath), "--rules",
                     str(rules), "--records", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: records[0].elapsed_ns: "
                                f"must be >= 1, got -110\n")

    def test_modulus_needs_live(self, tmp_path, capsys):
        # the time model never multiplies, so a modulus would go unused
        records, rules, spath = self.make_files(tmp_path)
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(spath), "--rules",
                     str(rules), "--records", str(records),
                     "--modulus", "4096"]) == 2
        assert capsys.readouterr().err == \
            "error: simulate --modulus needs --live\n"


class TestOutputPathChecked:
    """An output path in a missing directory, or naming a directory, exits
    2 and names the path before any work starts, and creates no file."""

    @staticmethod
    def bad_path(kind, tmp_path):
        if kind == "missing_dir":
            path = tmp_path / "nodir" / "out.json"
            return str(path), f"{path}: directory {path.parent} does not exist"
        return str(tmp_path), f"{tmp_path}: is a directory"

    @staticmethod
    def spy(monkeypatch, name):
        import pqmul.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, name, lambda *a, **kw: calls.append(a))
        return calls

    def check(self, argv, message, tmp_path, capsys):
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("kind", ["missing_dir", "is_a_dir"])
    def test_bench_out(self, kind, tmp_path, monkeypatch, capsys):
        calls = self.spy(monkeypatch, "run_benchmark")
        path, message = self.bad_path(kind, tmp_path)
        self.check(["bench", "--degrees", "16", "--loads", "0",
                    "--loaded-workers", "0", "--runs", "1",
                    "--plans", "karatsuba", "--out", path],
                   message, tmp_path, capsys)
        assert calls == []

    @pytest.mark.parametrize("kind", ["missing_dir", "is_a_dir"])
    def test_calibrate_out(self, kind, tmp_path, monkeypatch, capsys):
        records = synthetic_records_file(tmp_path)
        calls = self.spy(monkeypatch, "import_records")
        path, message = self.bad_path(kind, tmp_path)
        self.check(["calibrate", "--records", str(records), "--out", path],
                   message, tmp_path, capsys)
        assert calls == []

    @pytest.mark.parametrize("kind", ["missing_dir", "is_a_dir"])
    @pytest.mark.parametrize("live", [True, False], ids=["live", "records"])
    def test_simulate_output(self, kind, live, tmp_path, monkeypatch,
                             capsys):
        records, rules, spath = TestSimulate().make_files(tmp_path)
        save_scenario(TestSimulate.LIVE_SCENARIO, spath)
        calls = self.spy(monkeypatch, "run_simulation")
        path, message = self.bad_path(kind, tmp_path)
        source = ["--live"] if live else ["--records", str(records)]
        self.check(["simulate", "--scenario", str(spath), "--rules",
                    str(rules), *source, "--output", path],
                   message, tmp_path, capsys)
        assert calls == []


@pytest.mark.parametrize("modulus", ["1", "0"])
@pytest.mark.parametrize("argv", [
    "bench --degrees 16 --loads 0 --loaded-workers 0 --runs 1 "
    "--plans karatsuba --out {tmp}/r.csv --modulus {m}",
    "simulate --scenario {scenario} --live --modulus {m}",
], ids=["bench", "simulate_live"])
def test_modulus_below_2_exits_2(argv, modulus, tmp_path, capsys):
    """The error names the flag the user set, not the coefficient bound
    that the modulus also serves as."""
    scenario = README.parent / "scenarios" / "mixed_load.json"
    assert main(argv.format(tmp=tmp_path, scenario=scenario,
                            m=modulus).split()) == 2
    assert capsys.readouterr().err == \
        f"error: modulus must be >= 2, got {modulus}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv, name", [
    ("select --rules {tmp}/latin1.json --degree 1 --load 0 --cores 1",
     "latin1.json"),
    ("select --rules {tmp}/digits.json --degree 1 --load 0 --cores 1",
     "digits.json"),
    ("calibrate --records {tmp}/latin1.json --out {tmp}/r.json",
     "latin1.json"),
    ("calibrate --records {tmp}/latin1.csv --out {tmp}/r.json", "latin1.csv"),
    ("calibrate --records {tmp}/long.csv --out {tmp}/r.json", "long.csv"),
    ("calibrate --records {tmp}/digits.json --out {tmp}/r.json",
     "digits.json"),
    ("simulate --scenario {tmp}/latin1.json --live", "latin1.json"),
    ("simulate --scenario {tmp}/digits.json --live", "digits.json"),
    ("multiply --plan schoolbook --a @{tmp}/latin1.txt --b 1", "latin1.txt"),
], ids=["select", "select_digits", "calibrate_json", "calibrate_csv",
        "calibrate_long_field", "calibrate_digits", "simulate",
        "simulate_digits", "multiply"])
def test_unreadable_file_exits_2(argv, name, tmp_path, capsys):
    """A file that is not UTF-8, holds a JSON integer too long to parse or
    a CSV field longer than the csv module reads, is invalid input that
    names the file."""
    (tmp_path / "latin1.json").write_bytes(b'["caf\xe9"]')
    (tmp_path / "latin1.csv").write_bytes(b"caf\xe9\n")
    (tmp_path / "latin1.txt").write_bytes(b"1\n\xe9\n")
    (tmp_path / "digits.json").write_text('{"version": ' + "9" * 5000 + "}")
    (tmp_path / "long.csv").write_text("9" * 200_000 + "\n")
    assert main(argv.format(tmp=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
