"""Load-aware method selection: calibrated rule table + time model.

Calibration turns benchmark records into per-degree-band load thresholds:
the load at which sequential Karatsuba's mean time first beats parallel
Toom-Cook's (linear interpolation between sampled loads), and likewise for
sequential Toom-Cook vs its parallel variant.  A plan's time at a load is
bench._cell_ns of its records in the band, over every degree there; the
TimeModel's curves read one cell each through the same function, so a
cell's time is computed in bench alone.  Selection is then a pure
table lookup.  At one degree and core count the rule is a threshold with
one plan below it and one at or above it: parallel Toom-Cook below the
first threshold and Karatsuba above it, or Karatsuba at every load on a
single core, on too few cores or at a degree no band covers.  Hysteresis
then widens the threshold in favor of the previous plan.  Sequential
Toom-Cook is calibrated and reported but never selected - at one worker it
is dominated by Karatsuba.

The rule file is JSON (schema in table_to_dict), read and written through
jsonfile, and survives save -> load -> save byte-identically.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

from .bench import BenchmarkRecord, _cell_ns, _cells
from .errors import (
    CalibrationError,
    CoverageError,
    InvalidInputError,
    InvalidPlanError,
    RuleTableError,
)
from .jsonfile import _need, read_json, write_json
from .multipliers import KARATSUBA, TOOMCOOK, MethodPlan

RULE_FILE_VERSION = 1

#: Load points by which select_method widens the threshold in favor of the
#: previously selected plan.
HYSTERESIS_PCT = 5.0


@dataclass(frozen=True)
class SystemState:
    """What the selector sees about a node at decision time."""

    degree: int
    load_pct: float
    available_cores: int

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidInputError(f"degree must be >= 1, got {self.degree}")
        if not 0 <= self.load_pct <= 100:
            raise InvalidInputError(
                f"load_pct must be in [0, 100], got {self.load_pct}")
        if self.available_cores < 1:
            raise InvalidInputError(
                f"available_cores must be >= 1, got {self.available_cores}")


@dataclass(frozen=True)
class RuleEntry:
    """Thresholds and candidate plans for one degree band (inclusive)."""

    degree_min: int
    degree_max: int
    min_cores: int
    threshold_parallel_vs_karatsuba_pct: float
    threshold_parallel_vs_sequential_pct: float
    parallel_plan: MethodPlan
    karatsuba_plan: MethodPlan
    sequential_plan: MethodPlan

    def covers(self, degree: int) -> bool:
        return self.degree_min <= degree <= self.degree_max


def _check_bands(bands: list[tuple[int, int]], where: str, error) -> None:
    """Raise error unless each degree band (min, max) has min <= max and
    starts after the band before it ends.  where.format(i=i) names band i."""
    for i, (lo, hi) in enumerate(bands):
        if lo > hi:
            raise error(f"{where.format(i=i)}: band [{lo}, {hi}] has min > max")
        if i and lo <= bands[i - 1][1]:
            raise error(
                f"{where.format(i=i)}: band [{lo}, {hi}] overlaps or is out "
                f"of order with [{bands[i - 1][0]}, {bands[i - 1][1]}]")


@dataclass(frozen=True)
class RuleTable:
    """The persisted decision table: ordered disjoint degree bands."""

    entries: tuple[RuleEntry, ...]
    default_plan: MethodPlan

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        self.validate()

    def validate(self) -> None:
        if self.default_plan.method != KARATSUBA or self.default_plan.workers != 1:
            raise RuleTableError(
                f"default_plan must be sequential Karatsuba, got "
                f"{self.default_plan.label}")
        _check_bands([(e.degree_min, e.degree_max) for e in self.entries],
                     "entries[{i}].degree_band", RuleTableError)
        for i, e in enumerate(self.entries):
            where = f"entries[{i}]"
            for name, thr in (
                    ("parallel_vs_karatsuba_pct",
                     e.threshold_parallel_vs_karatsuba_pct),
                    ("parallel_vs_sequential_pct",
                     e.threshold_parallel_vs_sequential_pct)):
                if not 0 <= thr <= 100:
                    raise RuleTableError(
                        f"{where}.thresholds.{name}: {thr} outside [0, 100]")
            pk = e.threshold_parallel_vs_karatsuba_pct
            ps = e.threshold_parallel_vs_sequential_pct
            if 0 < pk < 100 and 0 < ps < 100 and pk > ps:
                raise RuleTableError(
                    f"{where}.thresholds: parallel loses to Karatsuba at {pk} "
                    f"but to sequential Toom-Cook already at {ps}")
            if e.min_cores < 1:
                raise RuleTableError(f"{where}.min_cores: must be >= 1")
            if e.parallel_plan.workers < 2:
                raise RuleTableError(
                    f"{where}.plans.parallel: needs workers >= 2")
            if e.karatsuba_plan.method != KARATSUBA or e.karatsuba_plan.workers != 1:
                raise RuleTableError(
                    f"{where}.plans.karatsuba: must be sequential Karatsuba")
            if e.sequential_plan.method != TOOMCOOK or e.sequential_plan.workers != 1:
                raise RuleTableError(
                    f"{where}.plans.sequential: must be sequential Toom-Cook")

    def entry_for(self, degree: int) -> RuleEntry | None:
        for e in self.entries:
            if e.covers(degree):
                return e
        return None


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _first_crossover(loads: list[int], parallel: dict[int, float],
                     rival: dict[int, float]) -> float:
    """First load at which the rival's mean time beats the parallel plan's.

    Linear interpolation between the adjacent sampled loads; 100 if the
    parallel plan wins everywhere in the sweep, 0 if it never wins.
    """
    diffs = [rival[l] - parallel[l] for l in loads]  # > 0: parallel wins
    if diffs[0] < 0:
        return 0.0
    for i in range(1, len(loads)):
        if diffs[i] < 0:
            lo, hi = loads[i - 1], loads[i]
            frac = diffs[i - 1] / (diffs[i - 1] - diffs[i])
            return lo + frac * (hi - lo)
    return 100.0


#: The role of each calibrated plan, by (method, workers > 1).
_ROLES = {(KARATSUBA, False): "karatsuba", (TOOMCOOK, True): "parallel",
          (TOOMCOOK, False): "sequential"}


def calibrate(records: list[BenchmarkRecord],
              degree_bands: list[tuple[int, int]]) -> RuleTable:
    """Build a rule table from benchmark records.

    A reversed or overlapping band raises InvalidInputError before any
    record is looked at.  Each band needs all three candidate plans
    (sequential Karatsuba, sequential Toom-Cook, parallel Toom-Cook)
    measured at three or more common load levels including 0.
    """
    bands = sorted(degree_bands)
    _check_bands(bands, "degree bands", InvalidInputError)
    if not records:
        raise CalibrationError("no benchmark records supplied")
    if not bands:
        raise CalibrationError("no degree bands supplied")
    cells = _cells(records)
    entries = []
    for lo, hi in bands:
        pooled: dict[tuple, dict[int, list]] = {}   # plan -> load -> records
        for (*plan, degree, load), rs in cells.items():
            if lo <= degree <= hi:
                by_load = pooled.setdefault(tuple(plan), {})
                by_load[load] = by_load.get(load, []) + rs
        plans, curves = {}, {}   # role -> its plan, its time per load
        for key, by_load in pooled.items():
            role = _ROLES.get((key[0], key[2] > 1))
            if role is None:
                continue
            plan = MethodPlan(*key)
            if role in plans:
                raise CalibrationError(
                    f"band [{lo}, {hi}]: two distinct {role} plans in the "
                    f"records ({plans[role].label} and {plan.label})")
            plans[role] = plan
            curves[role] = {load: _cell_ns(rs) for load, rs in by_load.items()}

        missing = [role for role in ("karatsuba", "parallel", "sequential")
                   if role not in plans]
        if missing:
            raise CalibrationError(
                f"band [{lo}, {hi}]: no records for plan(s) {missing}")
        common = sorted(set.intersection(*map(set, curves.values())))
        if len(common) < 3 or 0 not in common:
            gaps = []
            for role in ("karatsuba", "parallel", "sequential"):
                have = set(curves[role])
                want = set().union(*(set(c) for c in curves.values())) | {0}
                for load in sorted(want - have):
                    gaps.append(f"([{lo}, {hi}], {plans[role].label}, "
                                f"load {load})")
            raise CalibrationError(
                f"band [{lo}, {hi}]: need >= 3 common load levels including 0, "
                f"got {common}; missing cells: {', '.join(gaps) or 'none'}")

        entries.append(RuleEntry(
            degree_min=lo, degree_max=hi,
            min_cores=plans["parallel"].workers,
            threshold_parallel_vs_karatsuba_pct=_first_crossover(
                common, curves["parallel"], curves["karatsuba"]),
            threshold_parallel_vs_sequential_pct=_first_crossover(
                common, curves["parallel"], curves["sequential"]),
            parallel_plan=plans["parallel"],
            karatsuba_plan=plans["karatsuba"],
            sequential_plan=plans["sequential"]))
    try:
        return RuleTable(entries=tuple(entries),
                         default_plan=entries[0].karatsuba_plan)
    except RuleTableError as exc:
        raise CalibrationError(f"records produce an invalid table: {exc}") from exc


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def _rule(table: RuleTable, degree: int,
          cores: int) -> tuple[float, MethodPlan, MethodPlan]:
    """select_method's decision at one degree and core count, as
    (threshold, below, above): the plan is below at loads under the
    threshold and above at loads at or above it.
    """
    entry = table.entry_for(degree)
    if cores == 1 or entry is None:
        return 0.0, table.default_plan, table.default_plan
    if cores < entry.min_cores:
        return 0.0, entry.karatsuba_plan, entry.karatsuba_plan
    return (entry.threshold_parallel_vs_karatsuba_pct,
            entry.parallel_plan, entry.karatsuba_plan)


def select_method(table: RuleTable, state: SystemState,
                  previous: MethodPlan | None = None) -> MethodPlan:
    """Pick the plan for the given system state (total, deterministic).

    The rule at the state's degree and cores (_rule) gives a threshold and
    the plans below and at or above it; sequential Toom-Cook is never
    selected.  Passing the previously selected plan widens the threshold
    by HYSTERESIS_PCT in its favor, where the two plans differ, so a load
    hovering at the boundary does not flap.
    """
    threshold, below, above = _rule(table, state.degree,
                                    state.available_cores)
    if previous == below != above:
        threshold += HYSTERESIS_PCT
    elif previous == above != below:
        threshold -= HYSTERESIS_PCT
    return above if state.load_pct >= threshold else below


def _interpolate(loads: tuple, times: tuple, load_pct: float) -> float:
    """The curve's time at load_pct: linear between the sampled loads,
    exact at them, clamped to the nearest endpoint outside the sweep."""
    i = bisect_right(loads, load_pct)   # loads[i-1] <= load_pct < loads[i]
    if i == 0:
        return times[0]
    if i == len(loads):
        return times[-1]
    l0, t0 = loads[i - 1], times[i - 1]
    return t0 + (load_pct - l0) / (loads[i] - l0) * (times[i] - t0)


class TimeModel:
    """Piecewise-linear mean-time curves per (plan, degree), from records."""

    def __init__(self, curves: dict[tuple, tuple[tuple, tuple]]):
        self._curves = curves   # key -> (sorted loads, their mean times)

    @classmethod
    def from_records(cls, records: list[BenchmarkRecord]) -> "TimeModel":
        curves: dict[tuple, dict[int, float]] = {}
        for (*plan_degree, load), rs in _cells(records).items():
            curves.setdefault(tuple(plan_degree), {})[load] = _cell_ns(rs)
        return cls({key: tuple(zip(*sorted(curve.items())))
                    for key, curve in curves.items()})

    def _curve(self, plan: MethodPlan, degree: int) -> tuple | None:
        return self._curves.get(
            (plan.method, plan.k, plan.workers, plan.base_cutoff, degree))

    def predict(self, plan: MethodPlan, degree: int, load_pct: float) -> float:
        """Estimated mean duration (ns); exact at sampled loads.

        Loads outside the sampled sweep clamp to the nearest endpoint.
        """
        curve = self._curve(plan, degree)
        if curve is None:
            raise CoverageError(
                f"no calibration data for plan {plan.label} at degree {degree}")
        return _interpolate(*curve, load_pct)

    def pricer(self, plan: MethodPlan, degree: int):
        """predict at this plan and degree, as a function of load alone.

        The curve is looked up once.  A node's load is a step function of
        time, so the function memoises its results by load, in a dict that
        lives as long as the function does.  An uncovered plan raises
        predict's CoverageError when the function is called, not here, so
        binding a plan that a run never reaches is harmless.
        """
        curve = self._curve(plan, degree)
        if curve is None:
            return partial(self.predict, plan, degree)
        loads, times = curve
        memo: dict[float, float] = {}

        def price(load_pct: float) -> float:
            ns = memo.get(load_pct)
            if ns is None:
                ns = memo[load_pct] = _interpolate(loads, times, load_pct)
            return ns

        return price


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _entry_to_dict(e: RuleEntry) -> dict:
    return {
        "degree_band": {"min": e.degree_min, "max": e.degree_max},
        "min_cores": e.min_cores,
        "thresholds": {
            "parallel_vs_karatsuba_pct": e.threshold_parallel_vs_karatsuba_pct,
            "parallel_vs_sequential_pct": e.threshold_parallel_vs_sequential_pct,
        },
        "plans": {
            "parallel": e.parallel_plan.as_dict(),
            "karatsuba": e.karatsuba_plan.as_dict(),
            "sequential": e.sequential_plan.as_dict(),
        },
    }


def table_to_dict(table: RuleTable) -> dict:
    return {
        "version": RULE_FILE_VERSION,
        "default_plan": table.default_plan.as_dict(),
        "entries": [_entry_to_dict(e) for e in table.entries],
    }


def save_rules(table: RuleTable, path) -> None:
    write_json(table_to_dict(table), path)


def _plan_at(obj: dict, key: str, where: str,
             error=RuleTableError) -> MethodPlan:
    """The plan descriptor obj[key], read strictly; errors name its path."""
    d = _need(obj, key, dict, where, error)
    where = f"{where}.{key}"
    try:
        return MethodPlan(
            method=_need(d, "method", str, where, error),
            k=_need(d, "k", int, where, error),
            workers=_need(d, "workers", int, where, error),
            base_cutoff=_need(d, "base_cutoff", int, where, error))
    except InvalidPlanError as exc:
        raise error(f"{where}: {exc}") from exc


def table_from_dict(data: dict) -> RuleTable:
    version = _need(data, "version", int, "rules")
    if version != RULE_FILE_VERSION:
        raise RuleTableError(
            f"rules.version: unsupported version {version}")
    default_plan = _plan_at(data, "default_plan", "rules")
    entries = []
    raw_entries = _need(data, "entries", list, "rules")
    for i, raw in enumerate(raw_entries):
        ew = f"rules.entries[{i}]"
        band = _need(raw, "degree_band", dict, ew)
        thresholds = _need(raw, "thresholds", dict, ew)
        plans = _need(raw, "plans", dict, ew)
        entries.append(RuleEntry(
            degree_min=_need(band, "min", int, f"{ew}.degree_band"),
            degree_max=_need(band, "max", int, f"{ew}.degree_band"),
            min_cores=_need(raw, "min_cores", int, ew),
            threshold_parallel_vs_karatsuba_pct=_need(
                thresholds, "parallel_vs_karatsuba_pct", float,
                f"{ew}.thresholds"),
            threshold_parallel_vs_sequential_pct=_need(
                thresholds, "parallel_vs_sequential_pct", float,
                f"{ew}.thresholds"),
            parallel_plan=_plan_at(plans, "parallel", f"{ew}.plans"),
            karatsuba_plan=_plan_at(plans, "karatsuba", f"{ew}.plans"),
            sequential_plan=_plan_at(plans, "sequential", f"{ew}.plans")))
    return RuleTable(entries=tuple(entries), default_plan=default_plan)


def load_rules(path) -> RuleTable:
    """Read and fully validate a rule file; errors name the offending field."""
    return read_json(path, table_from_dict, RuleTableError)
