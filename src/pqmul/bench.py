"""Monte Carlo timing harness: (method, degree, load) grid under live load.

For each cell the harness starts the load profile, does two untimed warm-up
multiplications, then times `runs` multiplications of freshly sampled
operands on the monotonic clock.  Cells run strictly sequentially; fresh
operands per run are derived deterministically from the spec seed and the
cell indices, so two runs of the same spec produce identical operands and
identical mult_count columns (only the timings differ).

_cells groups records into cells keyed by (plan, degree, load_pct), the
plan a MethodPlan, and _cell_ns gives the time of a cell as calibrate and
TimeModel read it; aggregate's table reads the same cells.

Records files are CSV, or JSON (through jsonfile, each field read by
_need).  Every record read from either is range-checked by _check_records,
so a negative time or a load above 100 is invalid input, not a result.
"""

from __future__ import annotations

import csv
import math
import platform
import statistics
import time
from dataclasses import asdict, astuple, dataclass, fields

from .errors import InvalidInputError, InvalidPlanError, TimerResolutionError
from .jsonfile import _need, read_json, write_json
from .loadgen import LoadProfile, start_load, usable_cpu_count
from .multipliers import MethodPlan, multiply
from .poly import OperationCounter, Polynomial, _check_modulus, derive_seed

#: Coefficient bound for generated operands when no modulus is given,
#: and the CLI's default modulus.
DEFAULT_COEFF_BOUND = 4096

#: Untimed multiplications per cell before the timed runs.
WARMUP_RUNS = 2

@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark campaign: the full grid plus sampling parameters."""

    degrees: tuple[int, ...]
    plans: tuple[MethodPlan, ...]
    load_levels_pct: tuple[int, ...]
    loaded_workers: int = 4
    runs: int = 10
    seed: int = 0
    modulus: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        object.__setattr__(self, "plans", tuple(self.plans))
        object.__setattr__(self, "load_levels_pct", tuple(self.load_levels_pct))
        if not self.degrees or not self.plans or not self.load_levels_pct:
            raise InvalidInputError(
                "degrees, plans and load_levels_pct must all be non-empty")
        if any(d < 1 for d in self.degrees):
            raise InvalidInputError("degrees must be >= 1")
        if any(not 0 <= l <= 100 for l in self.load_levels_pct):
            raise InvalidInputError("load levels must be in [0, 100]")
        if self.loaded_workers < 0:
            raise InvalidInputError("loaded_workers must be >= 0")
        if self.runs < 1:
            raise InvalidInputError("runs must be >= 1")
        if self.modulus is not None:
            _check_modulus(self.modulus)


@dataclass(frozen=True)
class BenchmarkRecord:
    """One timed multiplication."""

    method: str
    k: int
    workers: int
    base_cutoff: int
    degree: int
    load_pct: int
    run_index: int
    elapsed_ns: int
    mult_count: int

    @property
    def plan(self) -> MethodPlan:
        return MethodPlan(method=self.method, k=self.k, workers=self.workers,
                          base_cutoff=self.base_cutoff)


CSV_COLUMNS = tuple(f.name for f in fields(BenchmarkRecord))


@dataclass(frozen=True)
class CellStats:
    """Aggregate statistics for one (plan, degree, load) cell."""

    method: str
    k: int
    workers: int
    base_cutoff: int
    degree: int
    load_pct: int
    runs: int
    mean_ns: float
    std_ns: float
    min_ns: int
    max_ns: int
    mult_count: int


def _check_timer() -> None:
    info = time.get_clock_info("perf_counter")
    if info.resolution > 1e-6:
        raise TimerResolutionError(
            f"perf_counter resolution {info.resolution}s is coarser than 1 us")


def run_benchmark(spec: BenchmarkSpec) -> list[BenchmarkRecord]:
    """Execute the whole grid and return one record per timed run.

    Record order is deterministic: degrees x loads x plans x runs, nested in
    that order.  The load profile is started before and stopped after each
    cell; only the multiplication call itself is timed.  A host that cannot
    keep a core free of the loaded workers raises CapacityError from the
    first cell's start_load, before any product runs.
    """
    _check_timer()
    bound = spec.modulus if spec.modulus is not None else DEFAULT_COEFF_BOUND
    records = []
    for di, degree in enumerate(spec.degrees):
        for li, load in enumerate(spec.load_levels_pct):
            for pi, plan in enumerate(spec.plans):
                handle = start_load(LoadProfile(spec.loaded_workers, load))
                try:
                    # runs below 0 are the untimed warm-up
                    for run in range(-WARMUP_RUNS, spec.runs):
                        a = Polynomial.random(degree, bound, derive_seed(
                            spec.seed, di, li, pi, run, 0), spec.modulus)
                        b = Polynomial.random(degree, bound, derive_seed(
                            spec.seed, di, li, pi, run, 1), spec.modulus)
                        counter = OperationCounter()
                        t0 = time.perf_counter_ns()
                        multiply(a, b, plan, counter)
                        elapsed = time.perf_counter_ns() - t0
                        if run < 0:
                            continue
                        records.append(BenchmarkRecord(
                            **plan.as_dict(), degree=degree,
                            load_pct=load, run_index=run,
                            elapsed_ns=max(elapsed, 1),
                            mult_count=counter.fundamental_mults))
                finally:
                    handle.stop()
    return records


def _cells(records: list[BenchmarkRecord]) -> dict[tuple, list]:
    """The records of each (plan, degree, load_pct) cell in first-appearance
    order, each distinct plan built (and so checked) once as a MethodPlan."""
    cells: dict[tuple, list[BenchmarkRecord]] = {}
    for r in records:   # a field tuple hashes in C, a MethodPlan in Python
        key = (r.method, r.k, r.workers, r.base_cutoff, r.degree, r.load_pct)
        cells.setdefault(key, []).append(r)
    plans = {fields: MethodPlan(*fields)
             for fields in dict.fromkeys(key[:4] for key in cells)}
    return {(plans[key[:4]], *key[4:]): rs for key, rs in cells.items()}


def _cell_ns(records: list[BenchmarkRecord]) -> float:
    """The time of a cell (or of cells pooled), as calibrate and TimeModel
    read it: the median of elapsed_ns, which a run that lost its core for
    one busy phase of the load generator does not move."""
    return float(statistics.median(r.elapsed_ns for r in records))


def aggregate(records: list[BenchmarkRecord]) -> list[CellStats]:
    """Per-cell mean/std/min/max of elapsed_ns, in first-appearance order."""
    if not records:
        raise InvalidInputError("no records to aggregate")
    out = []
    for (plan, degree, load), rs in _cells(records).items():
        times = [r.elapsed_ns for r in rs]
        out.append(CellStats(
            **plan.as_dict(), degree=degree, load_pct=load, runs=len(rs),
            mean_ns=statistics.fmean(times), std_ns=statistics.pstdev(times),
            min_ns=min(times), max_ns=max(times), mult_count=rs[0].mult_count))
    return out


def format_aggregate_table(stats: list[CellStats]) -> str:
    header = (f"{'method':<12} {'k':>2} {'w':>2} {'cut':>4} {'degree':>6} "
              f"{'load%':>5} {'runs':>4} {'mean_ms':>10} {'std_ms':>9} "
              f"{'min_ms':>9} {'max_ms':>9} {'mults':>10}")
    lines = [header, "-" * len(header)]
    for s in stats:
        lines.append(
            f"{s.method:<12} {s.k:>2} {s.workers:>2} {s.base_cutoff:>4} "
            f"{s.degree:>6} {s.load_pct:>5} {s.runs:>4} "
            f"{s.mean_ns / 1e6:>10.3f} {s.std_ns / 1e6:>9.3f} "
            f"{s.min_ns / 1e6:>9.3f} {s.max_ns / 1e6:>9.3f} {s.mult_count:>10}")
    return "\n".join(lines)


def export_records(records: list[BenchmarkRecord], path) -> None:
    """Write records as JSON if the path ends in .json, else as CSV (fixed
    column order, LF endings)."""
    if str(path).endswith(".json"):
        write_json([asdict(r) for r in records], path)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(r) for r in records)


def import_records(path) -> list[BenchmarkRecord]:
    """Read records written by export_records: JSON if the path ends in
    .json, else CSV.  Every record read is checked by _check_records."""
    if str(path).endswith(".json"):
        return read_json(path, _records_from_json, InvalidInputError)
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(CSV_COLUMNS):
                raise InvalidInputError(
                    f"unexpected CSV header {reader.fieldnames}")
            return _check_records([_record_from_row(row, f"records[{i}]")
                                   for i, row in enumerate(reader)])
        except (UnicodeDecodeError, csv.Error) as exc:
            # bad UTF-8, or a field longer than csv.field_size_limit()
            raise InvalidInputError(f"{path}: unreadable: {exc}") from exc
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc


def _record_from_row(row: dict, where: str) -> BenchmarkRecord:
    """A record from a row of CSV strings, the fields after method parsed
    with int()."""
    try:
        method, *ints = [row[col] for col in CSV_COLUMNS]
        return BenchmarkRecord(method, *map(int, ints))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{where}: bad record row {row!r}: {exc}") from exc


def _records_from_json(rows) -> list[BenchmarkRecord]:
    """Records from a JSON array, each field read by _need: the method a
    string, every other field an int."""
    if not isinstance(rows, list):
        raise InvalidInputError("expected a JSON array of records")
    return _check_records([
        BenchmarkRecord(*(_need(row, col, str if col == "method" else int,
                                f"records[{i}]", InvalidInputError)
                          for col in CSV_COLUMNS))
        for i, row in enumerate(rows)])


#: The inclusive range of each count and measurement in a record read from
#: a file; run_benchmark writes elapsed_ns >= 1.
_RECORD_RANGES = {"degree": (1, math.inf), "load_pct": (0, 100),
                  "run_index": (0, math.inf), "elapsed_ns": (1, math.inf),
                  "mult_count": (1, math.inf)}


def _check_records(records: list[BenchmarkRecord]) -> list[BenchmarkRecord]:
    """records, if each has its fields in _RECORD_RANGES and a valid plan;
    else InvalidInputError naming the first bad field."""
    for i, r in enumerate(records):
        for name, (low, high) in _RECORD_RANGES.items():
            value = getattr(r, name)
            if not low <= value <= high:
                bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
                raise InvalidInputError(
                    f"records[{i}].{name}: must be {bound}, got {value}")
        try:
            r.plan
        except InvalidPlanError as exc:
            raise InvalidInputError(f"records[{i}]: {exc}") from exc
    return records


def host_metadata() -> dict:
    """Host facts recorded next to benchmark results (cannot enforce
    idleness), keys in sorted order."""
    return {
        "cpu_count": usable_cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def write_metadata_sidecar(records_path) -> str:
    """Write host_metadata() next to the records; returns the path."""
    path = f"{records_path}.meta.json"
    write_json(host_metadata(), path)
    return path
