"""Command-line entry point.

Subcommands: multiply, count-check, bench, calibrate, select, simulate.

multiply --plan, count-check --plan and bench --plans name a computation by
a plan token: schoolbook | karatsuba | toom3 | toom4, then optional :wN
(workers) and :cN (base cutoff), e.g. toom3:w2:c1.  _parse_plan is the one
reader of that grammar.

Exit codes: 0 success, 2 invalid input/plan/file, 3 self-check failure
(methods disagree), 4 capacity or environment error, 5 calibration/coverage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .bench import (
    DEFAULT_COEFF_BOUND,
    BenchmarkSpec,
    aggregate,
    export_records,
    format_aggregate_table,
    import_records,
    run_benchmark,
    write_metadata_sidecar,
)
from .errors import (
    CalibrationError,
    CapacityError,
    CoverageError,
    InvalidInputError,
    PqmulError,
    ResourceError,
    TimerResolutionError,
)
from .multipliers import (
    DEFAULT_BASE_CUTOFF,
    MethodPlan,
    multiply,
    predicted_mult_count,
)
from .policy import TimeModel, calibrate, load_rules, save_rules, select_method
from .policy import SystemState, _check_bands
from .poly import (
    OperationCounter,
    Polynomial,
    _check_modulus,
    derive_seed,
    schoolbook_mul,
)
from .simulator import load_scenario, render_report, run_simulation

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SELF_CHECK = 3
EXIT_CAPACITY = 4
EXIT_COVERAGE = 5


def _parse_poly(text: str, modulus: int | None) -> Polynomial:
    """Inline "3,10,8" (lowest degree first) or @file with one value per line."""
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                values = [line.strip() for line in fh if line.strip()]
        else:
            values = text.split(",")
        coeffs = [int(v) for v in values]
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{text[1:]}: not UTF-8: {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(f"bad coefficient in {text!r}: {exc}") from exc
    return Polynomial(coeffs, modulus)


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"bad integer {text!r} in {where!r}") from None


def _parse_int_list(text: str) -> list[int]:
    """"0:90:5" inclusive range or "0,5,25" comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_int(p, text) for p in parts)
        if step < 1:
            raise InvalidInputError("range step must be >= 1")
        values = list(range(start, stop + 1, step))
    else:
        values = [_int(v, text) for v in text.split(",")]
    if not values:
        raise InvalidInputError(f"{text!r} gives no values")
    return values


def _parse_plan(token: str) -> MethodPlan:
    """A plan token: schoolbook | karatsuba | toom3 | toom4, then optional
    :wN (workers) and :cN (base cutoff, default DEFAULT_BASE_CUTOFF;
    schoolbook ignores it)."""
    name, *extras = token.split(":")
    workers, cutoff = 1, DEFAULT_BASE_CUTOFF
    for extra in extras:
        if extra.startswith("w"):
            workers = _int(extra[1:], token)
        elif extra.startswith("c"):
            cutoff = _int(extra[1:], token)
        else:
            raise InvalidInputError(f"bad plan modifier {extra!r} in {token!r}")
    if name == "schoolbook":
        return MethodPlan.schoolbook(workers=workers)
    if name == "karatsuba":
        return MethodPlan.karatsuba(workers=workers, base_cutoff=cutoff)
    if name in ("toom3", "toom4"):
        return MethodPlan.toom(k=int(name[-1]), workers=workers,
                               base_cutoff=cutoff)
    raise InvalidInputError(f"unknown plan {name!r}")


def _parse_bands(text: str) -> list[tuple[int, int]]:
    """The bands of --bands, sorted, once calibrate's band check passes."""
    bands = []
    for token in text.split(","):
        lo, sep, hi = token.partition("-")
        if not sep:
            raise InvalidInputError(f"band must be min-max, got {token!r}")
        bands.append((_int(lo, token), _int(hi, token)))
    bands.sort()
    _check_bands(bands, "--bands", InvalidInputError)
    return bands


def _check_output(path: str | None) -> None:
    """Raise InvalidInputError if the output file path (None: stdout) is in
    a directory that does not exist, or is a directory.  Commands call this
    before any work, so a bad path costs no run and creates no file."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise InvalidInputError(f"{path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise InvalidInputError(f"{path}: is a directory")


class LiveTimer:
    """A time model whose pricer multiplies and times a real product.

    Each call of a priced function draws fresh operands, seeded by the
    timer's seed and its call count, and times one product: there is no
    memo, so every handover of a live run pays for its own product.
    """

    def __init__(self, seed: int, modulus: int):
        _check_modulus(modulus)
        self._seed = seed
        self._modulus = modulus
        self._calls = 0

    def pricer(self, plan: MethodPlan, degree: int):
        q = self._modulus

        def price(load_pct: float) -> float:
            self._calls += 1
            a = Polynomial.random(degree, q,
                                  derive_seed(self._seed, self._calls, 0), q)
            b = Polynomial.random(degree, q,
                                  derive_seed(self._seed, self._calls, 1), q)
            t0 = time.perf_counter_ns()
            multiply(a, b, plan)
            return float(time.perf_counter_ns() - t0)

        return price


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_multiply(args) -> int:
    plan = _parse_plan(args.plan)
    a = _parse_poly(args.a, args.modulus)
    b = _parse_poly(args.b, args.modulus)
    counter = OperationCounter()
    result = multiply(a, b, plan, counter)
    reference = schoolbook_mul(a, b)
    if result != reference:
        print(f"self-check failure: {plan.label} disagrees with schoolbook",
              file=sys.stderr)
        return EXIT_SELF_CHECK
    if args.format == "json":
        print(json.dumps({
            "coeffs": list(result.coeffs),
            "fundamental_mults": counter.fundamental_mults,
            "fundamental_adds": counter.fundamental_adds,
            "plan": plan.as_dict()}))
    else:
        print(",".join(str(c) for c in result.coeffs))
        print(f"fundamental_mults={counter.fundamental_mults} "
              f"fundamental_adds={counter.fundamental_adds}")
    return EXIT_OK


def cmd_count_check(args) -> int:
    """Verify measured base-case multiplication counts against the formulas.

    The counts follow from the operand lengths alone, so the operands are
    fixed draws."""
    failures = 0
    lengths = _parse_int_list(args.lengths)
    plan = _parse_plan(args.plan)
    if plan.workers != 1:
        raise InvalidInputError(
            f"count-check runs the sequential engine; drop :wN from "
            f"{args.plan!r} (the counts do not depend on the workers)")
    for n in lengths:
        a = Polynomial.random(n, 64, derive_seed(0, n, 0))
        b = Polynomial.random(n, 64, derive_seed(0, n, 1))
        counter = OperationCounter()
        multiply(a, b, plan, counter)
        predicted = predicted_mult_count(plan, n)
        ok = counter.fundamental_mults == predicted
        failures += 0 if ok else 1
        print(f"N={n} measured={counter.fundamental_mults} "
              f"predicted={predicted} {'ok' if ok else 'MISMATCH'}")
    return EXIT_OK if failures == 0 else EXIT_SELF_CHECK


def cmd_bench(args) -> int:
    _check_output(args.out)   # the metadata sidecar goes beside it
    plans = tuple(_parse_plan(tok) for tok in args.plans.split(","))
    spec = BenchmarkSpec(
        degrees=tuple(_parse_int_list(args.degrees)),
        plans=plans,
        load_levels_pct=tuple(_parse_int_list(args.loads)),
        loaded_workers=args.loaded_workers,
        runs=args.runs,
        seed=args.seed,
        modulus=args.modulus)
    records = run_benchmark(spec)
    export_records(records, args.out)
    meta = write_metadata_sidecar(args.out)
    print(format_aggregate_table(aggregate(records)))
    print(f"wrote {len(records)} records to {args.out} (metadata: {meta})")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _check_output(args.out)
    bands = _parse_bands(args.bands) if args.bands else None
    records = import_records(args.records)
    if bands is None:
        bands = [(d, d) for d in sorted({r.degree for r in records})]
    table = calibrate(records, bands)
    save_rules(table, args.out)
    for e in table.entries:
        print(f"band [{e.degree_min}, {e.degree_max}]: "
              f"parallel_vs_karatsuba={e.threshold_parallel_vs_karatsuba_pct:.1f}% "
              f"parallel_vs_sequential={e.threshold_parallel_vs_sequential_pct:.1f}%")
    print(f"wrote rules to {args.out}")
    return EXIT_OK


def cmd_select(args) -> int:
    table = load_rules(args.rules)
    plan = select_method(table, SystemState(
        degree=args.degree, load_pct=args.load,
        available_cores=args.cores))
    print(json.dumps(plan.as_dict()))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_output(args.output)
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace
        scenario = replace(scenario, seed=args.seed)
    table = load_rules(args.rules) if args.rules else None
    if args.modulus is not None and not args.live:
        raise InvalidInputError("simulate --modulus needs --live")
    if args.live and args.records:
        raise InvalidInputError(
            "simulate takes --live or --records, not both")
    if args.live:
        modulus = (DEFAULT_COEFF_BOUND if args.modulus is None
                   else args.modulus)
        model = LiveTimer(seed=scenario.seed, modulus=modulus)
    elif args.records:
        model = TimeModel.from_records(import_records(args.records))
    else:
        raise InvalidInputError("simulate needs --records or --live")
    text = render_report(run_simulation(scenario, table, model), args.format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqmul",
        description="Polynomial multiplication back ends, benchmarks under "
                    "synthetic CPU load, and load-aware method selection.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("multiply", help="multiply two polynomials")
    p.add_argument("--plan", required=True,
                   help="schoolbook | karatsuba | toom3 | toom4, then optional "
                        ":wN (workers) and :cN (base cutoff, default "
                        f"{DEFAULT_BASE_CUTOFF}), e.g. toom3:w2:c1")
    p.add_argument("--a", required=True,
                   help="coefficients '3,4' (lowest first) or @file")
    p.add_argument("--b", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--modulus", type=int, default=None,
                   help="coefficient modulus q; omit for signed integers")
    p.set_defaults(func=cmd_multiply)

    p = subs.add_parser("count-check",
                        help="verify operation counts against the formulas")
    p.add_argument("--plan", required=True,
                   help="plan token, as for multiply --plan")
    p.add_argument("--lengths", required=True,
                   help="lengths to check, e.g. '4,64,512' or '1:64:1'")
    p.set_defaults(func=cmd_count_check)

    p = subs.add_parser("bench", help="run the Monte Carlo benchmark grid")
    p.add_argument("--degrees", default="512")
    p.add_argument("--loads", default="0:90:5")
    p.add_argument("--loaded-workers", type=int, default=4, dest="loaded_workers")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--plans", default="karatsuba:w1,toom3:w1,toom3:w5",
                   help="comma-separated plan tokens (see multiply --plan)")
    p.add_argument("--out", required=True,
                   help="records file to write: JSON if it ends in .json, "
                        "else CSV")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed (default 0)")
    p.add_argument("--modulus", type=int, default=DEFAULT_COEFF_BOUND,
                   help=f"coefficient modulus q (default {DEFAULT_COEFF_BOUND})")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("calibrate", help="build a rule table from records")
    p.add_argument("--records", required=True)
    p.add_argument("--bands", default=None,
                   help="degree bands 'min-max,min-max'; default: one band "
                        "per distinct degree")
    p.add_argument("--out", required=True, help="rules file to write")
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("select", help="pick a plan for a system state")
    p.add_argument("--rules", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--load", type=float, required=True)
    p.add_argument("--cores", type=int, required=True)
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("simulate", help="run the handover simulator")
    p.add_argument("--scenario", required=True)
    p.add_argument("--rules", default=None)
    p.add_argument("--records", default=None,
                   help="benchmark records for the time model")
    p.add_argument("--live", action="store_true",
                   help="time real multiplications instead of the model")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default=None, help="write report here")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--modulus", type=int, default=None,
                   help="coefficient modulus q of the --live products "
                        f"(default {DEFAULT_COEFF_BOUND})")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, ResourceError, TimerResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (CalibrationError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except (PqmulError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
