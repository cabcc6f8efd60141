"""Handover simulator: determinism, conservation, policy behavior, I/O."""

import json
import math
import random
from dataclasses import replace

import pytest

from pqmul import (
    CoverageError,
    MecNode,
    Scenario,
    ScenarioError,
    SystemState,
    TimeModel,
    calibrate,
    load_scenario,
    render_report,
    run_simulation,
    save_scenario,
    select_method,
)
from pqmul.poly import derive_seed
from pqmul.simulator import report_to_dict, scenario_to_dict
from synthetic import (
    KARATSUBA,
    TOOM_PAR,
    TOOM_SEQ,
    linear_curves,
    records_from_curves,
)

LOADS = [0, 20, 40, 60, 80]

#: SHA-256 of the JSON report of make_scenario() under the calibrated
#: fixture: any change to the vehicle seeds, the selection or the report
#: format changes the bytes, and with them this digest.
REPORT_SHA256 = \
    "3d603082b0d180abb2b2083bab6a6f85509e4ec32567d405b9e57045f8ac2671"

#: SHA-256 of the JSON reports of trace_scenarios() under the calibrated
#: fixture, taken before the per-run plan memo: a fixed_plan run, and a
#: rule_table run over a 1000-breakpoint trace on two nodes of equal cores.
TRACE_REPORTS_SHA256 = \
    "97add919a98ecd9c78461df444a9264d6d20e473ecb1b33d7d94f35543d8d31c"


@pytest.fixture
def calibrated():
    records = records_from_curves(linear_curves(LOADS), runs=1)
    return calibrate(records, [(512, 512)]), TimeModel.from_records(records)


def make_scenario(**overrides):
    base = dict(
        mec_nodes=(MecNode(cores=5, load_trace=((0, 0), (30_000, 40),
                                                (60_000, 80))),
                   MecNode(cores=5, load_trace=((0, 10),))),
        vehicles=8,
        handover_interval_ms=2_000.0,
        degree=512,
        duration_ms=90_000.0,
        seed=3)
    base.update(overrides)
    return Scenario(**base)


class TestValidation:
    def test_trace_must_start_at_zero(self):
        with pytest.raises(ScenarioError):
            MecNode(cores=5, load_trace=((100, 0),))

    def test_trace_times_increase(self):
        with pytest.raises(ScenarioError):
            MecNode(cores=5, load_trace=((0, 0), (0, 10)))

    def test_trace_load_range(self):
        with pytest.raises(ScenarioError):
            MecNode(cores=5, load_trace=((0, 101),))

    def test_load_at_piecewise_constant(self):
        node = MecNode(cores=5, load_trace=((0, 0), (100, 50), (200, 80)))
        assert node.load_at(0) == 0
        assert node.load_at(99.9) == 0
        assert node.load_at(100) == 50
        assert node.load_at(1e9) == 80

    def test_vehicles_zero_allowed(self):
        make_scenario(vehicles=0)

    def test_negative_vehicles_rejected(self):
        with pytest.raises(ScenarioError):
            make_scenario(vehicles=-1)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    @pytest.mark.parametrize("field", ["handover_interval_ms", "duration_ms"])
    def test_non_finite_times_rejected(self, field, value):
        # an infinite interval divided by zero and an infinite duration
        # never ended the run; NaN returned an empty report
        with pytest.raises(ScenarioError, match=field):
            make_scenario(**{field: value})

    @pytest.mark.parametrize("trace", [
        ((0, 10), (math.nan, 20), (5, 30)),
        ((0, 10), (math.nan, 20)),
        ((0, 10), (math.inf, 20)),
    ])
    def test_non_finite_breakpoint_times_rejected(self, trace):
        # a NaN time passed the "times increase" check, and load_at then
        # bisected an unsorted tuple
        with pytest.raises(ScenarioError, match="finite"):
            MecNode(cores=2, load_trace=trace)

    @pytest.mark.parametrize("field, value", [
        ("vehicles", 2.5), ("vehicles", True), ("degree", 512.0),
        ("degree", True), ("mults_per_handover", math.inf),
        ("mults_per_handover", 10.0), ("mults_per_handover", False),
        ("seed", 2.5), ("seed", True),
    ])
    def test_non_int_counts_rejected(self, field, value):
        # vehicles=2.5 and seed=2.5 raised raw TypeErrors in run_simulation,
        # and an infinite mults_per_handover reported infinite latencies
        with pytest.raises(ScenarioError, match=field):
            make_scenario(**{field: value})

    @pytest.mark.parametrize("mode", ["rule_table", "fixed_plan"])
    def test_fixed_plan_must_be_a_plan(self, mode):
        with pytest.raises(ScenarioError, match="fixed_plan"):
            make_scenario(policy_mode=mode, fixed_plan="karatsuba")

    @pytest.mark.parametrize("cores", [2.5, True, "2"])
    def test_non_int_cores_rejected(self, cores):
        with pytest.raises(ScenarioError, match="cores"):
            MecNode(cores=cores, load_trace=((0, 0),))

    def test_bad_policy_mode(self):
        with pytest.raises(ScenarioError):
            make_scenario(policy_mode="oracle")

    def test_fixed_mode_needs_plan(self):
        with pytest.raises(ScenarioError):
            make_scenario(policy_mode="fixed_plan")

    def test_needs_a_mec(self):
        with pytest.raises(ScenarioError):
            make_scenario(mec_nodes=())


class TestRun:
    def test_no_vehicles_empty_report(self, calibrated):
        table, model = calibrated
        report = run_simulation(make_scenario(vehicles=0), table, model)
        assert report.total_handovers == 0
        assert report.mean_latency_ms == 0.0
        assert all(m.handovers == 0 and m.plan_counts == {}
                   for m in report.per_mec)
        json.loads(render_report(report, "json"))

    def test_deterministic_per_seed(self, calibrated):
        table, model = calibrated
        scenario = make_scenario()
        assert run_simulation(scenario, table, model) == \
            run_simulation(scenario, table, model)

    def test_seed_changes_outcome(self, calibrated):
        table, model = calibrated
        r1 = run_simulation(make_scenario(seed=1), table, model)
        r2 = run_simulation(make_scenario(seed=2), table, model)
        assert r1 != r2

    def test_conservation(self, calibrated):
        table, model = calibrated
        report = run_simulation(make_scenario(), table, model)
        assert report.total_handovers > 0
        assert sum(m.handovers for m in report.per_mec) == \
            report.total_handovers
        assert sum(v.handovers for v in report.per_vehicle) == \
            report.total_handovers

    def test_low_load_mec_selects_parallel_only(self, calibrated):
        table, model = calibrated
        scenario = make_scenario(
            mec_nodes=(MecNode(cores=5, load_trace=((0, 0),)),),
            vehicles=5, duration_ms=60_000.0)
        report = run_simulation(scenario, table, model)
        (mec,) = report.per_mec
        assert set(mec.plan_counts) == {"toom3-w5"}

    def test_fixed_plan_mode(self, calibrated):
        table, model = calibrated
        scenario = make_scenario(policy_mode="fixed_plan",
                                 fixed_plan=TOOM_SEQ)
        report = run_simulation(scenario, None, model)
        for m in report.per_mec:
            assert set(m.plan_counts) <= {"toom3-w1"}

    def test_rule_table_beats_fixed_plans_on_mixed_trace(self, calibrated):
        table, model = calibrated
        scenario = make_scenario()
        rule_mean = run_simulation(scenario, table, model).mean_latency_ms
        for fixed in (KARATSUBA, TOOM_SEQ, TOOM_PAR):
            fixed_scenario = make_scenario(policy_mode="fixed_plan",
                                           fixed_plan=fixed)
            fixed_mean = run_simulation(fixed_scenario, None,
                                        model).mean_latency_ms
            assert rule_mean <= fixed_mean * 1.10

    def test_coverage_error_carries_context(self, calibrated):
        table, _ = calibrated
        empty_model = TimeModel.from_records(records_from_curves(
            {KARATSUBA: {0: 1e6, 20: 1e6, 40: 1e6}}, runs=1))
        scenario = make_scenario(
            mec_nodes=(MecNode(cores=5, load_trace=((0, 0),)),), vehicles=1)
        with pytest.raises(CoverageError, match="vehicle 0"):
            run_simulation(scenario, table, empty_model)

    def test_unreached_uncovered_plan_does_not_fail_the_run(self,
                                                            calibrated):
        # the 5-core node's rule binds parallel Toom-Cook, which the model
        # does not cover, but its load never falls below the threshold
        table, _ = calibrated
        karatsuba_only = TimeModel.from_records(records_from_curves(
            {KARATSUBA: {0: 1e6, 20: 1e6, 40: 1e6}}, runs=1))
        scenario = make_scenario(mec_nodes=(
            MecNode(cores=5, load_trace=((0, 90), (40_000, 60))),
            MecNode(cores=1, load_trace=((0, 0),))), vehicles=3)
        report = run_simulation(scenario, table, karatsuba_only)
        assert report.total_handovers > 0
        assert {label for m in report.per_mec for label in m.plan_counts} \
            == {KARATSUBA.label}

    def test_single_core_node_runs_its_bands_karatsuba_plan(self):
        """Karatsuba c16 calibrated at degree 256 and c48 at 512: a
        single-core node at degree 512 runs c48, the only Karatsuba plan the
        model prices there, so the run completes and prices every handover
        as a fixed c48 run does."""
        c48 = replace(KARATSUBA, base_cutoff=48)
        curves = linear_curves(LOADS)
        records = records_from_curves(curves, degree=256)
        curves[c48] = curves.pop(KARATSUBA)
        records += records_from_curves(curves, degree=512)
        table = calibrate(records, [(256, 256), (512, 512)])
        model = TimeModel.from_records(records)
        scenario = make_scenario(mec_nodes=(
            MecNode(cores=1, load_trace=((0, 0), (30_000, 50))),))
        report = run_simulation(scenario, table, model)
        fixed = run_simulation(
            replace(scenario, policy_mode="fixed_plan", fixed_plan=c48),
            None, model)
        assert report.total_handovers == fixed.total_handovers > 0
        assert report.mean_latency_ms == fixed.mean_latency_ms


class TestRender:
    def test_json_byte_identical(self, calibrated):
        table, model = calibrated
        report = run_simulation(make_scenario(), table, model)
        text = render_report(report, "json")
        assert render_report(report, "json") == text
        assert json.loads(text)["total_handovers"] == report.total_handovers

    def test_text_one_line_per_mec_plus_aggregate(self, calibrated):
        table, model = calibrated
        report = run_simulation(make_scenario(), table, model)
        text = render_report(report, "text")
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("mec ")) == 2
        assert any(l.startswith("total handovers:") for l in lines)
        assert any(l.startswith("mean latency:") for l in lines)

    def test_report_dict_mirrors_fields(self, calibrated):
        table, model = calibrated
        report = run_simulation(make_scenario(), table, model)
        d = report_to_dict(report)
        assert d["total_handovers"] == report.total_handovers
        assert len(d["per_vehicle"]) == len(report.per_vehicle)

    def test_report_dict_is_the_json_report(self, calibrated):
        table, model = calibrated
        report = run_simulation(make_scenario(), table, model)
        assert report_to_dict(report) == \
            json.loads(render_report(report, "json"))

    def test_unknown_format(self, calibrated):
        from pqmul import InvalidInputError
        table, model = calibrated
        report = run_simulation(make_scenario(vehicles=0), table, model)
        with pytest.raises(InvalidInputError):
            render_report(report, "yaml")


class TestScenarioFiles:
    def test_save_load_save_byte_identical(self, tmp_path):
        scenario = make_scenario()
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        save_scenario(scenario, p1)
        loaded = load_scenario(p1)
        assert loaded == scenario
        save_scenario(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bundled_scenario_loads(self):
        from pathlib import Path
        path = Path(__file__).parent.parent / "scenarios" / "mixed_load.json"
        scenario = load_scenario(path)
        assert scenario.policy_mode == "rule_table"
        assert scenario.degree == 512
        trace = scenario.mec_nodes[0].load_trace
        assert trace[0][1] == 0 and trace[-1][1] == 80

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "s.json"
        data = scenario_to_dict(make_scenario())
        del data["degree"]
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="degree"):
            load_scenario(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    @pytest.mark.parametrize("field, value", [
        ("cores", "2"),
        ("background_load_trace", [["a", 5]]),
        ("background_load_trace", [5]),
        ("fixed_plan", {"method": "toom", "k": "x", "workers": 1,
                        "base_cutoff": 16}),
        ("fixed_plan", [1]),
        ("cores", 2.5),
        ("cores", True),
        ("background_load_trace", [[False, True]]),
        ("background_load_trace", [[0, 5, 1]]),
        ("fixed_plan", {"method": "toom", "k": 3.9, "workers": 1,
                        "base_cutoff": 16}),
        ("fixed_plan", {"method": "toom", "k": 3, "workers": True,
                        "base_cutoff": 16}),
        ("fixed_plan", {"method": "toom", "k": 3, "workers": 1,
                        "base_cutoff": "16"}),
        ("vehicles", 2.5),
        ("degree", True),
        ("seed", 7.9),
        ("duration_ms", math.inf),
        ("handover_interval_ms", math.nan),
    ])
    def test_malformed_value_exits_2(self, field, value, tmp_path, capsys):
        from pqmul.cli import main
        data = scenario_to_dict(make_scenario())
        node_field = field in ("cores", "background_load_trace")
        (data["mec_nodes"][0] if node_field else data)[field] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=field):
            load_scenario(path)
        assert main(["simulate", "--scenario", str(path), "--live"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fixed_plan_round_trip(self, tmp_path):
        scenario = make_scenario(policy_mode="fixed_plan", fixed_plan=TOOM_PAR)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        assert load_scenario(path).fixed_plan == TOOM_PAR


def linear_load_at(trace, t_ms):
    """The original linear scan over the breakpoints (test-side oracle)."""
    current = trace[0][1]
    for bt, load in trace:
        if bt <= t_ms:
            current = load
        else:
            break
    return current


def test_load_at_matches_linear_scan():
    rng = random.Random(31)
    for _ in range(60):
        times = [0.0] + sorted(rng.sample(range(1, 100_000),
                                          rng.randint(0, 60)))
        node = MecNode(cores=2, load_trace=[(t, rng.uniform(0, 100))
                                            for t in times])
        between = [(x + y) / 2 for x, y in zip(times, times[1:])]
        after = [times[-1] + 0.5, 1e12]
        for t in times + between + after + [-1.0]:
            assert node.load_at(t) == linear_load_at(node.load_trace, t), t


def test_json_report_bytes_pinned(calibrated):
    """The JSON report of a fixed multi-vehicle scenario is byte-identical
    across versions: same seeds, same mixer, same latencies and counts."""
    import hashlib

    table, model = calibrated
    report = run_simulation(make_scenario(), table, model)
    assert report.total_handovers > 0 and len(report.per_vehicle) == 8
    text = render_report(report, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


def walk_trace(seed, length, duration_ms):
    """A seeded random walk of loads in [0, 80] over duration_ms."""
    rng = random.Random(seed)
    load, trace = 40.0, []
    for i in range(length):
        load = min(80.0, max(0.0, load + rng.uniform(-15, 15)))
        trace.append((i * duration_ms / length, round(load, 1)))
    return tuple(trace)


def trace_scenarios():
    """A rule_table scenario whose long trace drives a 5-core and a 1-core
    node, beside a 5-core node on a short one; and a fixed_plan one."""
    long_trace = walk_trace(7, 1000, 90_000.0)
    rule = make_scenario(mec_nodes=(
        MecNode(cores=5, load_trace=long_trace),
        MecNode(cores=5, load_trace=walk_trace(8, 9, 90_000.0)),
        MecNode(cores=1, load_trace=long_trace)), vehicles=12, seed=11)
    fixed = make_scenario(policy_mode="fixed_plan", fixed_plan=TOOM_PAR,
                          seed=5)
    return rule, fixed


def test_trace_reports_bytes_pinned(calibrated):
    """fixed_plan and long-trace rule_table reports stay byte-identical."""
    import hashlib

    table, model = calibrated
    rule, fixed = trace_scenarios()
    text = (render_report(run_simulation(rule, table, model), "json")
            + render_report(run_simulation(fixed, None, model), "json"))
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_REPORTS_SHA256


def oracle_handovers(scenario, table):
    """(per-vehicle, per-MEC) handover counts drawn with the generator's own
    randrange and expovariate, and per-MEC plan counts with each plan
    chosen by select_method at the target's load (test-side oracle)."""
    nodes, rate = scenario.mec_nodes, 1.0 / scenario.handover_interval_ms
    n_mecs = len(nodes)
    per_vehicle, per_mec = [], [0] * n_mecs
    plan_counts = [{} for _ in range(n_mecs)]
    for v in range(scenario.vehicles):
        rng = random.Random(derive_seed(scenario.seed, v))
        current, count = rng.randrange(n_mecs), 0
        t = rng.expovariate(rate)
        while t < scenario.duration_ms:
            if n_mecs > 1:
                target = rng.randrange(n_mecs - 1)
                current = target + (target >= current)
            node = nodes[current]
            plan = select_method(table, SystemState(
                scenario.degree, node.load_at(t), node.cores)) \
                if scenario.policy_mode == "rule_table" else scenario.fixed_plan
            counts = plan_counts[current]
            counts[plan.label] = counts.get(plan.label, 0) + 1
            per_mec[current] += 1
            count += 1
            t += rng.expovariate(rate)
        per_vehicle.append(count)
    return per_vehicle, per_mec, plan_counts


@pytest.mark.parametrize("n_mecs", [1, 2, 3, 4, 5, 8])
def test_draws_follow_the_generator_stream(calibrated, n_mecs):
    """run_simulation's inlined draws consume each vehicle's stream as
    randrange and expovariate do.  The pinned digests cover 2 and 3 nodes
    only; at 5 nodes the target draw rejects half its candidates."""
    table, model = calibrated
    nodes = tuple(MecNode(cores=1 + i % 5, load_trace=((0, 10 * i),))
                  for i in range(n_mecs))
    scenario = make_scenario(mec_nodes=nodes, vehicles=6, seed=17)
    report = run_simulation(scenario, table, model)
    per_vehicle, per_mec, _ = oracle_handovers(scenario, table)
    assert [s.handovers for s in report.per_vehicle] == per_vehicle
    assert [m.handovers for m in report.per_mec] == per_mec


class CountingModel:
    """A time model that counts its pricer bindings and priced calls."""

    def __init__(self, model):
        self.model, self.calls, self.bound = model, 0, []

    def pricer(self, plan, degree):
        self.bound.append(plan)
        price = self.model.pricer(plan, degree)

        def counted(load_pct):
            self.calls += 1
            return price(load_pct)

        return counted


class TestDecisionsPerRun:
    @pytest.mark.parametrize("mode", ["rule_table", "fixed_plan"])
    def test_predict_runs_once_per_handover(self, calibrated, mode):
        # a live timer times a fresh product on every call
        table, model = calibrated
        rule, fixed = trace_scenarios()
        scenario = rule if mode == "rule_table" else fixed
        counting = CountingModel(model)
        report = run_simulation(scenario, table, counting)
        assert report.total_handovers > 0
        assert counting.calls == report.total_handovers

    def test_pricer_bound_once_per_plan(self, calibrated):
        # the 5-core rule's Karatsuba is the 1-core nodes' default plan
        table, model = calibrated
        rule, fixed = trace_scenarios()
        for scenario, plans in ((rule, {TOOM_PAR, KARATSUBA}),
                                (fixed, {TOOM_PAR})):
            counting = CountingModel(model)
            for _ in range(2):     # each run binds its own pricers
                counting.bound.clear()
                run_simulation(scenario, table, counting)
                assert len(counting.bound) == len(plans)
                assert set(counting.bound) == plans

    def test_rule_once_per_core_count(self, calibrated, monkeypatch):
        import pqmul.simulator as simulator

        table, model = calibrated
        rule, calls = simulator._rule, []

        def counting_rule(table_, degree, cores):
            calls.append(cores)
            return rule(table_, degree, cores)

        monkeypatch.setattr(simulator, "_rule", counting_rule)
        # two 5-core nodes, one sharing its long trace with a 1-core node
        scenario, fixed = trace_scenarios()
        report = run_simulation(scenario, table, model)
        assert report.total_handovers > 0
        assert sorted(calls) == [1, 5]
        calls.clear()
        assert run_simulation(scenario, table, model) == report
        assert sorted(calls) == [1, 5]      # each run derives afresh
        calls.clear()
        run_simulation(fixed, None, model)
        assert calls == []


def mixed_nodes(n_mecs):
    """n_mecs nodes cycling through 1 core, too few cores for the parallel
    plan, and enough cores, on random-walk traces that cross the
    threshold."""
    return tuple(MecNode(cores=(1, 3, 5, 8)[i % 4],
                         load_trace=walk_trace(20 + i, 40 + 60 * i, 90_000.0))
                 for i in range(n_mecs))


def assert_plans_follow_select_method(scenario, table, model):
    report = run_simulation(scenario, table, model)
    per_vehicle, per_mec, plan_counts = oracle_handovers(scenario, table)
    assert [s.handovers for s in report.per_vehicle] == per_vehicle
    assert [m.handovers for m in report.per_mec] == per_mec
    assert [m.plan_counts for m in report.per_mec] == plan_counts
    return report


@pytest.mark.parametrize("which", ["rule_table", "fixed_plan"])
def test_trace_scenario_plans_follow_select_method(calibrated, which):
    table, model = calibrated
    rule, fixed = trace_scenarios()
    scenario = rule if which == "rule_table" else fixed
    assert_plans_follow_select_method(scenario, table, model)


@pytest.mark.parametrize("n_mecs", range(1, 9))
def test_mixed_core_plans_follow_select_method(calibrated, n_mecs):
    """Each handover's plan is the one select_method gives at the target's
    load and cores, on nodes of 1, 3, 5 and 8 cores (parallel needs 5)."""
    table, model = calibrated
    scenario = make_scenario(mec_nodes=mixed_nodes(n_mecs), vehicles=6,
                             seed=23 + n_mecs)
    report = assert_plans_follow_select_method(scenario, table, model)
    labels = {label for m in report.per_mec for label in m.plan_counts}
    assert labels == ({KARATSUBA.label, TOOM_PAR.label} if n_mecs >= 3
                      else {KARATSUBA.label})


def test_threshold_boundary(calibrated):
    """A load exactly at the calibrated threshold picks Karatsuba, and the
    float just below it picks parallel Toom-Cook, as select_method does.
    Calibrated thresholds are interpolated floats, so the pinned digests
    never land on one."""
    table, model = calibrated
    (entry,) = table.entries
    threshold = entry.threshold_parallel_vs_karatsuba_pct
    below = math.nextafter(threshold, 0)
    assert 0 < below < threshold < 100
    assert select_method(table, SystemState(512, threshold, 5)) == KARATSUBA
    assert select_method(table, SystemState(512, below, 5)) == TOOM_PAR
    node = MecNode(cores=5, load_trace=((0, threshold), (45_000, below)))
    scenario = make_scenario(mec_nodes=(node,), vehicles=4)
    report = assert_plans_follow_select_method(scenario, table, model)
    (mec,) = report.per_mec
    assert set(mec.plan_counts) == {KARATSUBA.label, TOOM_PAR.label}
