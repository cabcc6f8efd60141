"""pqmul benchmark: end-to-end figures per workload, per-layer figures from a
separate traced run.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload grid --seed 1 --trace 1

The program is imported from ``src/`` of the checkout this file sits in.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A result
file (and, for a traced run, the spans) is written under perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up runs at least SETUP_MIN times and until SETUP_BUDGET_S seconds
#: have gone into it (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 25, 1.0

END_TO_END_UNITS = {"items_per_s": "items/s", "item_ms_p50": "ms",
                    "item_ms_p90": "ms", "setup_s": "s"}

#: The per-item names of the end-to-end metrics: what an item is in each
#: workload.  A name whose workload has no such item prints as n/a.
ITEMS = {"engine": "product", "parallel": "product", "handover": "handover",
         "grid": "cell"}


def import_program():
    """Import pqmul from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pqmul
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pqmul from {src}: {exc}")
    if Path(pqmul.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: pqmul was imported from {pqmul.__file__}, "
                         f"not from {src}")
    from pqmul.loadgen import usable_cpu_count
    return usable_cpu_count()


def untraced_run(name: str, seed: int, seconds: float, nproc: int):
    from harness import NullTracer, SpeedGauge, Tally, speed_factors
    from layers import measure
    from workloads import WORKLOADS

    gauge = SpeedGauge()  # sampled right before and right after each set-up
    raw_setups = []
    while True:
        w = WORKLOADS[name](seed, nproc)
        gauge.sample()
        t0 = time.perf_counter()
        w.setup(NullTracer())
        raw_setups.append(time.perf_counter() - t0)
        gauge.sample()
        if len(raw_setups) >= SETUP_MAX or (
                len(raw_setups) >= SETUP_MIN
                and sum(raw_setups) >= SETUP_BUDGET_S):
            break
        w.teardown()
    f = speed_factors(gauge.ref_ms)
    setups = [t * (f[2 * i] + f[2 * i + 1]) / 2
              for i, t in enumerate(raw_setups)]
    gc.collect()
    tally = Tally()
    try:
        measure(w, seconds, tally, NullTracer())
    finally:
        w.teardown()
    metrics = tally.end_to_end()
    metrics["setup_s"] = statistics.median(setups)
    raw = tally.end_to_end(raw=True)
    raw["setup_s"] = statistics.median(raw_setups)
    return metrics, raw, tally, dict(w.shares(), setups=len(setups))


def print_workload(name: str, metrics: dict, raw: dict, tally,
                   shares: dict) -> None:
    item = ITEMS[name]
    aliases = {f"{item}s_per_s": ("items_per_s", f"{item}s/s")}
    if item == "product":
        aliases["product_ms_p50"] = ("item_ms_p50", "ms")
        aliases["product_ms_p90"] = ("item_ms_p90", "ms")
    print(f"[{name}] {len(tally.samples)} samples, {tally.items} {item}s, "
          f"{tally.attempted} checked operations")
    print(f"  setup_s = {metrics['setup_s']:.6g} s")
    for alias in ("products_per_s", "product_ms_p50", "product_ms_p90",
                  "handovers_per_s", "cells_per_s"):
        if alias in aliases:
            key, unit = aliases[alias]
            print(f"  {alias} = {metrics[key]:.6g} {unit}")
        else:
            print(f"  {alias} = n/a (no such item in this workload)")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  failed_share = {share:.6g} failed/attempted "
          f"({tally.failed}/{tally.attempted})")
    for key in ("items_per_s", "item_ms_p50", "item_ms_p90"):
        print(f"  {key} = {metrics[key]:.6g} {END_TO_END_UNITS[key]}")
    print("  as measured, before host-speed normalisation: " + ", ".join(
        f"{k} = {v:.6g} {END_TO_END_UNITS[k]}" for k, v in raw.items()))
    ref = [ms for ms in tally.gauge.ref_ms if ms is not None]
    quartiles = ", ".join(f"{q:.4g}" for q in statistics.quantiles(ref, n=4))
    print(f"  reference_work: median {statistics.median(ref):.4g} ms, "
          f"quartiles {quartiles} ms over {len(ref)} samples, "
          f"{tally.gauge.discarded()} discarded while a program process ran")
    print(f"  input shares: {json.dumps(shares, sort_keys=True)}")
    for err in tally.errors:
        print(f"  FAILED: {err}")


def result_line(attempted: int, failed: int, metrics: dict,
                units: dict) -> dict:
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def write_out(stem: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def trace_main(first: str, seed: int, seconds: float, nproc: int) -> dict:
    from harness import Tracer
    from hostinfo import host_facts
    from layers import per_layer_spec, traced_run

    tracer = Tracer()
    t0 = time.perf_counter()
    metrics, checks, shares = traced_run(first, seed, seconds, nproc, tracer)
    wall = time.perf_counter() - t0
    units = {m["name"]: m["unit"] for m in per_layer_spec()}
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: per-layer metrics missing: "
                         f"{sorted(missing)}")
    result = result_line(checks.attempted, checks.failed,
                         {k: metrics[k] for k in units}, units)
    facts = host_facts(nproc)
    stem = f"trace-{first}-seed{seed}"
    write_out(stem, {"host": facts, "shares": shares, "wall_s": wall,
                     "self_ms_by_span": tracer.self_ms_by_name(),
                     "errors": checks.errors, "result": result})
    with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    for key, unit in units.items():
        print(f"{key} = {metrics[key]:.6g} {unit}")
    for err in checks.errors:
        print(f"FAILED: {err}")
    print(f"host: {json.dumps(facts, sort_keys=True)}")
    return result


def untraced_main(names: list, seed: int, seconds: float, nproc: int) -> dict:
    from hostinfo import host_facts

    attempted = failed = 0
    combined, results = {}, []
    for name in names:
        metrics, raw, tally, shares = untraced_run(name, seed, seconds, nproc)
        print_workload(name, metrics, raw, tally, shares)
        attempted += tally.attempted
        failed += tally.failed
        combined.update({f"{name}.{k}": v for k, v in metrics.items()})
        results.append((f"result-{name}-seed{seed}", {
            "shares": shares, "errors": tally.errors, "as_measured": raw,
            "reference_ms": tally.gauge.ref_ms, "samples": len(tally.samples),
            "reference_discarded": tally.gauge.discarded(),
            "result": result_line(tally.attempted, tally.failed, metrics,
                                  END_TO_END_UNITS)}))
    facts = host_facts(nproc)
    print(f"host: {json.dumps(facts, sort_keys=True)}")
    for stem, payload in results:
        write_out(stem, dict(payload, host=facts))
    if len(names) == 1:
        return result_line(attempted, failed, metrics, END_TO_END_UNITS)
    units = {k: END_TO_END_UNITS[k.split(".", 1)[1]] for k in combined}
    return result_line(attempted, failed, combined, units)


def main(argv=None) -> int:
    names = ("engine", "parallel", "handover", "grid")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    nproc = import_program()
    from pqmul import shutdown_pools

    # --workload all starts with workload (seed mod 4), so that across seeds
    # each workload runs first equally often.
    start = args.seed % len(names)
    order = [args.workload] if args.workload != "all" else \
        list(names[start:] + names[:start])
    try:
        if args.trace:
            result = trace_main(order[0], args.seed, args.seconds, nproc)
        else:
            result = untraced_main(order, args.seed, args.seconds, nproc)
    except RuntimeError as exc:  # set-up or normalisation cannot go on
        raise SystemExit(f"perfbench: {exc}")
    finally:
        shutdown_pools()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
