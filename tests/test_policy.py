"""Rule-table calibration, method selection, time model, persistence."""

import json
import random

import pytest

from pqmul import (
    BenchmarkRecord,
    CalibrationError,
    CoverageError,
    InvalidInputError,
    MethodPlan,
    SystemState,
    TimeModel,
    aggregate,
    calibrate,
    load_rules,
    save_rules,
    select_method,
)
from pqmul.policy import HYSTERESIS_PCT, RuleEntry, RuleTable, table_to_dict

KARATSUBA = MethodPlan.karatsuba(base_cutoff=16)
TOOM_SEQ = MethodPlan.toom(3, workers=1, base_cutoff=16)
TOOM_PAR = MethodPlan.toom(3, workers=5, base_cutoff=16)


def records_from_curves(curves: dict[MethodPlan, dict[int, float]],
                        degree: int = 512, runs: int = 2):
    """Build records whose per-load means are exactly the given curves."""
    records = []
    for plan, curve in curves.items():
        for load, mean_ns in curve.items():
            for i in range(runs):
                records.append(BenchmarkRecord(
                    method=plan.method, k=plan.k, workers=plan.workers,
                    base_cutoff=plan.base_cutoff, degree=degree,
                    load_pct=load, run_index=i, elapsed_ns=int(mean_ns),
                    mult_count=1000))
    return records


def linear_curves(loads, kar_base=10e6, kar_slope=0.02e6,
                  seq_base=14e6, seq_slope=0.02e6,
                  par_base=5e6, par_slope=0.4e6):
    return {
        KARATSUBA: {l: kar_base + kar_slope * l for l in loads},
        TOOM_SEQ: {l: seq_base + seq_slope * l for l in loads},
        TOOM_PAR: {l: par_base + par_slope * l for l in loads},
    }


LOADS = [0, 10, 20, 30, 40, 50]


class TestCalibrate:
    def test_interpolated_crossovers_exact(self):
        table = calibrate(records_from_curves(linear_curves(LOADS)),
                          [(512, 512)])
        (entry,) = table.entries
        # parallel meets karatsuba where 5e6 + 0.4e6 L = 10e6 + 0.02e6 L
        assert entry.threshold_parallel_vs_karatsuba_pct == \
            pytest.approx(5e6 / 0.38e6)
        assert entry.threshold_parallel_vs_sequential_pct == \
            pytest.approx(9e6 / 0.38e6)
        assert entry.min_cores == 5

    def test_crossover_near_25(self):
        # parallel faster below ~25, slower above: threshold lands at 25
        curves = linear_curves(LOADS, par_base=5e6, par_slope=0.2e6)
        table = calibrate(records_from_curves(curves), [(512, 512)])
        assert table.entries[0].threshold_parallel_vs_karatsuba_pct == \
            pytest.approx(5e6 / 0.18e6)  # 27.8

    def test_parallel_always_fastest_gives_100(self):
        curves = linear_curves(LOADS, par_base=1e6, par_slope=0.0)
        table = calibrate(records_from_curves(curves), [(512, 512)])
        assert table.entries[0].threshold_parallel_vs_karatsuba_pct == 100.0
        assert table.entries[0].threshold_parallel_vs_sequential_pct == 100.0

    def test_parallel_never_wins_gives_0(self):
        curves = linear_curves(LOADS, par_base=20e6, par_slope=0.0)
        table = calibrate(records_from_curves(curves), [(512, 512)])
        assert table.entries[0].threshold_parallel_vs_karatsuba_pct == 0.0

    def test_fig4b_like_double_crossover(self):
        # karatsuba overtakes parallel at exactly 5, sequential at 60
        loads = list(range(0, 95, 5))

        def par(l):
            return 48e6 + 0.4e6 * l + 4.8e6 * max(0, l - 50)

        curves = {
            KARATSUBA: {l: 50e6 for l in loads},
            TOOM_SEQ: {l: 120e6 for l in loads},
            TOOM_PAR: {l: par(l) for l in loads},
        }
        assert par(5) == 50e6 and par(60) == 120e6
        table = calibrate(records_from_curves(curves, degree=821),
                          [(821, 821)])
        (entry,) = table.entries
        assert entry.threshold_parallel_vs_karatsuba_pct == pytest.approx(5.0)
        assert entry.threshold_parallel_vs_sequential_pct == pytest.approx(60.0)

    def test_missing_plan_role(self):
        curves = linear_curves(LOADS)
        del curves[TOOM_SEQ]
        with pytest.raises(CalibrationError, match="sequential"):
            calibrate(records_from_curves(curves), [(512, 512)])

    def test_too_few_load_levels(self):
        with pytest.raises(CalibrationError, match=r"\[512, 512\]"):
            calibrate(records_from_curves(linear_curves([0, 10])),
                      [(512, 512)])

    def test_missing_zero_load(self):
        with pytest.raises(CalibrationError):
            calibrate(records_from_curves(linear_curves([10, 20, 30])),
                      [(512, 512)])

    def test_missing_cells_named(self):
        curves = linear_curves(LOADS)
        curves[TOOM_PAR] = {l: 5e6 for l in [0, 10]}  # gaps at 20..50
        with pytest.raises(CalibrationError, match="toom3-w5.*load 20"):
            calibrate(records_from_curves(curves), [(512, 512)])

    @pytest.mark.parametrize("bands, message", [
        ([(600, 500)], r"band \[600, 500\] has min > max"),
        ([(500, 700), (1, 600)],
         r"band \[500, 700\] overlaps .* \[1, 600\]"),
    ], ids=["reversed", "overlapping"])
    def test_bad_band_is_invalid_input_before_records(self, bands, message):
        for records in (records_from_curves(linear_curves(LOADS)), []):
            with pytest.raises(InvalidInputError, match=message) as exc:
                calibrate(records, bands)
            assert not isinstance(exc.value, CalibrationError)

    def test_ambiguous_role_rejected(self):
        curves = linear_curves(LOADS)
        other_par = MethodPlan.toom(4, workers=3, base_cutoff=16)
        curves[other_par] = {l: 6e6 for l in LOADS}
        with pytest.raises(CalibrationError, match="two distinct parallel"):
            calibrate(records_from_curves(curves), [(512, 512)])

    def test_band_of_two_degrees_pools_every_record(self):
        """A plan's time at a load is the mean over every record of the
        band, not the mean of its per-degree cell means."""
        runs = {  # plan -> load -> {degree: elapsed_ns of each run}
            TOOM_PAR: {l: {512: (10, 10), 520: (10,)} for l in (0, 10, 20)},
            TOOM_SEQ: {l: {512: (100,), 520: (100,)} for l in (0, 10, 20)},
            KARATSUBA: {0: {512: (20,), 520: (20, 20, 20)},
                        10: {512: (2,), 520: (14, 14, 14)},
                        20: {512: (2,), 520: (2, 2, 2)}}}
        records = [
            BenchmarkRecord(method=plan.method, k=plan.k,
                            workers=plan.workers,
                            base_cutoff=plan.base_cutoff, degree=degree,
                            load_pct=load, run_index=i, elapsed_ns=ns,
                            mult_count=1000)
            for plan, by_load in runs.items()
            for load, by_degree in by_load.items()
            for degree, times in by_degree.items()
            for i, ns in enumerate(times)]
        (entry,) = calibrate(records, [(500, 600)]).entries
        # Karatsuba minus parallel: 10, 11 - 10 = 1 and -8 ns at loads 0,
        # 10 and 20, so the crossover is 1/9 of the way from 10 to 20.  The
        # mean of the cell means at load 10, (2 + 14) / 2 = 8, would put
        # it at 10 * 10/12, and either degree alone at 10 * 10/18 or
        # 10 + 10 * 4/12.
        assert entry.threshold_parallel_vs_karatsuba_pct == 10 + 10 * (1 / 9)
        assert entry.threshold_parallel_vs_sequential_pct == 100.0
        random.Random(1).shuffle(records)
        assert calibrate(records, [(500, 600)]).entries == (entry,)

    def test_monotone_response_to_slower_parallel(self):
        """Scaling every parallel time up never raises the thresholds."""
        rng = random.Random(0)
        for _ in range(20):
            par_base = rng.uniform(2e6, 12e6)
            par_slope = rng.uniform(0.05e6, 0.5e6)
            curves = linear_curves(LOADS, par_base=par_base,
                                   par_slope=par_slope)
            t1 = calibrate(records_from_curves(curves), [(512, 512)])
            factor = rng.uniform(1.0, 3.0)
            curves[TOOM_PAR] = {l: v * factor
                                for l, v in curves[TOOM_PAR].items()}
            t2 = calibrate(records_from_curves(curves), [(512, 512)])
            assert t2.entries[0].threshold_parallel_vs_karatsuba_pct <= \
                t1.entries[0].threshold_parallel_vs_karatsuba_pct + 1e-9
            assert t2.entries[0].threshold_parallel_vs_sequential_pct <= \
                t1.entries[0].threshold_parallel_vs_sequential_pct + 1e-9


def make_entry(**overrides):
    base = dict(degree_min=256, degree_max=1024, min_cores=5,
                threshold_parallel_vs_karatsuba_pct=25.0,
                threshold_parallel_vs_sequential_pct=45.0,
                parallel_plan=TOOM_PAR, karatsuba_plan=KARATSUBA,
                sequential_plan=TOOM_SEQ)
    base.update(overrides)
    return RuleEntry(**base)


def make_table(entries=None):
    return RuleTable(entries=tuple(entries or [make_entry()]),
                     default_plan=KARATSUBA)


class TestRuleTableValidation:
    def test_default_plan_must_be_sequential_karatsuba(self):
        from pqmul import RuleTableError
        with pytest.raises(RuleTableError, match="default_plan"):
            RuleTable(entries=(make_entry(),), default_plan=TOOM_SEQ)

    def test_overlapping_bands_named(self):
        from pqmul import RuleTableError
        e1 = make_entry(degree_min=1, degree_max=600)
        e2 = make_entry(degree_min=500, degree_max=1024)
        with pytest.raises(RuleTableError, match=r"\[500, 1024\].*\[1, 600\]"):
            make_table([e1, e2])

    def test_reversed_band_named(self):
        from pqmul import RuleTableError
        with pytest.raises(RuleTableError, match=r"entries\[1\]\.degree_band: "
                           r"band \[1025, 1024\] has min > max"):
            make_table([make_entry(), make_entry(degree_min=1025)])

    def test_threshold_range(self):
        from pqmul import RuleTableError
        with pytest.raises(RuleTableError, match="120"):
            make_table([make_entry(
                threshold_parallel_vs_karatsuba_pct=120.0)])

    def test_threshold_ordering_when_both_interior(self):
        from pqmul import RuleTableError
        with pytest.raises(RuleTableError, match="thresholds"):
            make_table([make_entry(
                threshold_parallel_vs_karatsuba_pct=50.0,
                threshold_parallel_vs_sequential_pct=20.0)])

    def test_boundary_thresholds_exempt_from_ordering(self):
        make_table([make_entry(threshold_parallel_vs_karatsuba_pct=100.0,
                               threshold_parallel_vs_sequential_pct=30.0)])

    def test_plan_roles_enforced(self):
        from pqmul import RuleTableError
        with pytest.raises(RuleTableError, match="parallel"):
            make_table([make_entry(parallel_plan=TOOM_SEQ)])
        with pytest.raises(RuleTableError, match="karatsuba"):
            make_table([make_entry(karatsuba_plan=TOOM_SEQ)])


class TestSelectMethod:
    def test_single_core_always_karatsuba(self):
        table = make_table()
        for load in (0, 25, 99.5):
            plan = select_method(table, SystemState(512, load, 1))
            assert plan == KARATSUBA

    def test_below_threshold_parallel(self):
        plan = select_method(make_table(), SystemState(512, 10, 5))
        assert plan == TOOM_PAR

    def test_above_threshold_karatsuba(self):
        plan = select_method(make_table(), SystemState(512, 50, 5))
        assert plan == KARATSUBA

    def test_at_threshold_karatsuba(self):
        plan = select_method(make_table(), SystemState(512, 25, 5))
        assert plan == KARATSUBA

    def test_between_thresholds_karatsuba_never_sequential(self):
        plan = select_method(make_table(), SystemState(512, 30, 5))
        assert plan == KARATSUBA

    def test_beyond_sequential_threshold_still_karatsuba(self):
        plan = select_method(make_table(), SystemState(512, 90, 5))
        assert plan == KARATSUBA

    def test_no_matching_band_default(self):
        plan = select_method(make_table(), SystemState(2000, 0, 5))
        assert plan == KARATSUBA

    def test_too_few_cores_for_parallel(self):
        plan = select_method(make_table(), SystemState(512, 0, 3))
        assert plan == KARATSUBA

    def test_deterministic(self):
        table = make_table()
        state = SystemState(512, 24.9, 5)
        assert all(select_method(table, state) == TOOM_PAR for _ in range(5))

    def test_hysteresis_holds_previous_parallel(self):
        table = make_table()
        # just above the hard threshold: a parallel incumbent survives
        state = SystemState(512, 27, 5)
        assert select_method(table, state) == KARATSUBA
        assert select_method(table, state, previous=TOOM_PAR) == TOOM_PAR
        # but far above, it does not
        assert select_method(table, SystemState(512, 35, 5),
                             previous=TOOM_PAR) == KARATSUBA

    def test_hysteresis_holds_previous_karatsuba(self):
        table = make_table()
        state = SystemState(512, 23, 5)
        assert select_method(table, state) == TOOM_PAR
        assert select_method(table, state, previous=KARATSUBA) == KARATSUBA

    @pytest.mark.parametrize("previous, flip_at", [
        (TOOM_PAR, 25.0 + HYSTERESIS_PCT),
        (KARATSUBA, 25.0 - HYSTERESIS_PCT),
    ])
    def test_hysteresis_margin_boundary(self, previous, flip_at):
        # the widened threshold is exclusive for parallel, like the hard one
        table = make_table()
        assert select_method(table, SystemState(512, flip_at - 0.01, 5),
                             previous=previous) == TOOM_PAR
        assert select_method(table, SystemState(512, flip_at, 5),
                             previous=previous) == KARATSUBA


class TestTimeModel:
    def test_exact_at_sampled_loads(self):
        records = records_from_curves(linear_curves(LOADS))
        model = TimeModel.from_records(records)
        assert model.predict(KARATSUBA, 512, 0) == 10e6
        assert model.predict(KARATSUBA, 512, 50) == 10e6 + 0.02e6 * 50

    def test_exact_at_interior_sample_with_inexact_means(self):
        """Means 13/3, 37/3 and 20 ns: interpolating up to load 10 from
        load 0 gives 12.333333333333332, not the sample's own 37/3."""
        times = {0: (4, 4, 5), 10: (12, 12, 13), 20: (20, 20, 20)}
        model = TimeModel.from_records([
            BenchmarkRecord(method=KARATSUBA.method, k=KARATSUBA.k,
                            workers=1, base_cutoff=KARATSUBA.base_cutoff,
                            degree=512, load_pct=load, run_index=i,
                            elapsed_ns=ns, mult_count=1000)
            for load, run in times.items() for i, ns in enumerate(run)])
        assert [model.predict(KARATSUBA, 512, load)
                for load in (0, 10, 20)] == [13 / 3, 37 / 3, 20.0]

    def test_exact_at_samples_is_the_aggregate_mean(self):
        """At every sampled cell, predict equals aggregate's mean_ns, on
        uneven cells of one to four runs whose means are not integers."""
        rng = random.Random(23)
        records = [
            BenchmarkRecord(method=plan.method, k=plan.k,
                            workers=plan.workers,
                            base_cutoff=plan.base_cutoff, degree=degree,
                            load_pct=load, run_index=i,
                            elapsed_ns=rng.randrange(10**6, 10**7),
                            mult_count=1000)
            for plan in (KARATSUBA, TOOM_SEQ, TOOM_PAR)
            for degree in (256, 512) for load in LOADS
            for i in range(rng.randint(1, 4))]
        rng.shuffle(records)
        model, stats = TimeModel.from_records(records), aggregate(records)
        assert len(stats) == 3 * 2 * len(LOADS)
        assert len({s.runs for s in stats}) == 4
        assert any(s.mean_ns != int(s.mean_ns) for s in stats)
        for s in stats:
            plan = MethodPlan(s.method, s.k, s.workers, s.base_cutoff)
            assert model.predict(plan, s.degree, s.load_pct) == s.mean_ns

    def test_linear_midpoint(self):
        records = records_from_curves({
            KARATSUBA: {0: 10e6, 10: 20e6},
            TOOM_SEQ: {0: 1e6, 10: 1e6},
            TOOM_PAR: {0: 1e6, 10: 1e6}})
        model = TimeModel.from_records(records)
        assert model.predict(KARATSUBA, 512, 5) == pytest.approx(15e6)

    def test_clamps_outside_sweep(self):
        records = records_from_curves(linear_curves(LOADS))
        model = TimeModel.from_records(records)
        assert model.predict(KARATSUBA, 512, 80) == \
            model.predict(KARATSUBA, 512, 50)

    def test_coverage_error(self):
        model = TimeModel.from_records(
            records_from_curves(linear_curves(LOADS)))
        with pytest.raises(CoverageError):
            model.predict(KARATSUBA, 821, 0)
        with pytest.raises(CoverageError):
            model.predict(MethodPlan.toom(4, base_cutoff=16), 512, 0)


def inexact_model():
    """A model whose cell means are inexact, from three runs per cell."""
    rng = random.Random(5)
    return TimeModel.from_records([
        BenchmarkRecord(method=plan.method, k=plan.k, workers=plan.workers,
                        base_cutoff=plan.base_cutoff, degree=512,
                        load_pct=load, run_index=i,
                        elapsed_ns=rng.randrange(10**6, 10**7),
                        mult_count=1000)
        for plan in (KARATSUBA, TOOM_SEQ, TOOM_PAR)
        for load in LOADS for i in range(3)])


class TestPricer:
    #: sampled, interior and clamped loads, the zeros of either sign
    PROBE_LOADS = [0, 10.0, 50, 0.5, 13.37, 49.999, -0.0, 50.001, 80.0, 100]

    def test_equals_predict_also_on_repeated_loads(self):
        model = inexact_model()
        for plan in (KARATSUBA, TOOM_SEQ, TOOM_PAR):
            price = model.pricer(plan, 512)
            for load in self.PROBE_LOADS + self.PROBE_LOADS[::-1]:
                assert price(load) == model.predict(plan, 512, load), load

    def test_memo_per_priced_function(self, monkeypatch):
        import pqmul.policy as policy

        model, interpolate, interpolated = \
            inexact_model(), policy._interpolate, []

        def counting(loads, times, load_pct):
            interpolated.append(load_pct)
            return interpolate(loads, times, load_pct)

        monkeypatch.setattr(policy, "_interpolate", counting)
        distinct = len({*self.PROBE_LOADS})   # -0.0 == 0
        for _ in range(2):   # a second function starts with an empty memo
            interpolated.clear()
            price = model.pricer(KARATSUBA, 512)
            for load in self.PROBE_LOADS * 3:
                price(load)
            assert len(interpolated) == distinct

    def test_coverage_error_only_when_called(self):
        model = inexact_model()
        for plan, degree in ((KARATSUBA, 821),
                             (MethodPlan.toom(4, base_cutoff=16), 512)):
            price = model.pricer(plan, degree)      # binding never raises
            for _ in range(2):   # and a failure is not memoised
                with pytest.raises(CoverageError, match="no calibration"):
                    price(10.0)


class TestRegret:
    def test_selected_plan_near_best_on_synthetic_data(self):
        records = records_from_curves(linear_curves(LOADS))
        table = calibrate(records, [(512, 512)])
        model = TimeModel.from_records(records)
        plans = [KARATSUBA, TOOM_SEQ, TOOM_PAR]
        for load in LOADS:
            chosen = select_method(table, SystemState(512, load, 5))
            chosen_t = model.predict(chosen, 512, load)
            best_t = min(model.predict(p, 512, load) for p in plans)
            assert chosen_t <= best_t * 1.10


class TestPersistence:
    def test_round_trip_equal_and_byte_identical(self, tmp_path):
        table = calibrate(records_from_curves(linear_curves(LOADS)),
                          [(512, 512)])
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_rules(table, p1)
        loaded = load_rules(p1)
        assert loaded == table
        save_rules(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "rules.json"
        save_rules(make_table(), path)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        (entry,) = data["entries"]
        assert entry["degree_band"] == {"min": 256, "max": 1024}
        assert set(entry["thresholds"]) == {"parallel_vs_karatsuba_pct",
                                            "parallel_vs_sequential_pct"}
        assert set(entry["plans"]) == {"parallel", "karatsuba", "sequential"}
        assert set(entry["plans"]["parallel"]) == {"method", "k", "workers",
                                                   "base_cutoff"}

    def test_threshold_out_of_range_rejected_with_path(self, tmp_path):
        from pqmul import RuleTableError
        path = tmp_path / "rules.json"
        save_rules(make_table(), path)
        data = json.loads(path.read_text())
        data["entries"][0]["thresholds"]["parallel_vs_karatsuba_pct"] = 120
        path.write_text(json.dumps(data))
        with pytest.raises(RuleTableError, match="parallel_vs_karatsuba_pct"):
            load_rules(path)

    def test_overlapping_bands_rejected_on_load(self, tmp_path):
        from pqmul import RuleTableError
        path = tmp_path / "rules.json"
        data = table_to_dict(make_table())
        data["entries"].append(json.loads(json.dumps(data["entries"][0])))
        path.write_text(json.dumps(data))
        with pytest.raises(RuleTableError, match="overlaps"):
            load_rules(path)

    def test_missing_field_named(self, tmp_path):
        from pqmul import RuleTableError
        path = tmp_path / "rules.json"
        save_rules(make_table(), path)
        data = json.loads(path.read_text())
        del data["entries"][0]["min_cores"]
        path.write_text(json.dumps(data))
        with pytest.raises(RuleTableError, match=r"entries\[0\].min_cores"):
            load_rules(path)

    def test_invalid_json_rejected(self, tmp_path):
        from pqmul import RuleTableError
        path = tmp_path / "rules.json"
        path.write_text("{nope")
        with pytest.raises(RuleTableError, match="JSON"):
            load_rules(path)
