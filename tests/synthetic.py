"""Synthetic benchmark records for the policy, simulator and CLI tests:
three cutoff-16 plans whose mean times are linear in the load."""

from pqmul import BenchmarkRecord, MethodPlan

KARATSUBA = MethodPlan.karatsuba(base_cutoff=16)
TOOM_SEQ = MethodPlan.toom(3, workers=1, base_cutoff=16)
TOOM_PAR = MethodPlan.toom(3, workers=5, base_cutoff=16)


def linear_curves(loads, kar_base=10e6, kar_slope=0.02e6,
                  seq_base=14e6, seq_slope=0.02e6,
                  par_base=5e6, par_slope=0.4e6):
    """plan -> load -> mean ns; parallel Toom-Cook meets Karatsuba at
    load 5e6 / 0.38e6 (about 13) with the defaults."""
    return {
        KARATSUBA: {l: kar_base + kar_slope * l for l in loads},
        TOOM_SEQ: {l: seq_base + seq_slope * l for l in loads},
        TOOM_PAR: {l: par_base + par_slope * l for l in loads},
    }


def records_from_curves(curves: dict[MethodPlan, dict[int, float]],
                        degree: int = 512, runs: int = 2):
    """Records whose per-load means are exactly the given curves, with
    runs records per cell, in curve order."""
    return [BenchmarkRecord(**plan.as_dict(), degree=degree, load_pct=load,
                            run_index=i, elapsed_ns=int(mean_ns),
                            mult_count=1000)
            for plan, curve in curves.items()
            for load, mean_ns in curve.items() for i in range(runs)]
