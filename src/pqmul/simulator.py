"""Discrete-event handover simulation over MEC nodes.

Vehicles hand over between MEC nodes with exponentially distributed
intervals; every handover triggers a secure-session re-establishment whose
cost is mults_per_handover polynomial multiplications on the target node.
The plan for those multiplications comes either from the rule table (reading
the node's instantaneous background load off its trace) or from a fixed
plan, and the latency is taken from the calibrated time model, which keeps
runs fast and machine-reproducible.  Everything is deterministic for a
fixed seed.  Scenario files are read and written through jsonfile, and the
JSON report is dataclasses.asdict of the SimReport.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

from .errors import CoverageError, InvalidInputError, ScenarioError
from .jsonfile import _need, read_json, write_json
from .multipliers import MethodPlan
from .policy import RuleTable, _plan_at, _rule
from .poly import derive_seed

POLICY_MODES = ("rule_table", "fixed_plan")


def _check_int(value, name: str) -> None:
    """Raise ScenarioError unless value is an int (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class MecNode:
    """One edge node: its core count and a piecewise-constant load trace."""

    cores: int
    load_trace: tuple[tuple[float, float], ...]  # (time_ms, load_pct)
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _loads: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "load_trace",
                           tuple((float(t), float(l)) for t, l in self.load_trace))
        object.__setattr__(self, "_times", tuple(t for t, _ in self.load_trace))
        object.__setattr__(self, "_loads", tuple(l for _, l in self.load_trace))
        _check_int(self.cores, "mec cores")
        if self.cores < 1:
            raise ScenarioError(f"mec cores must be >= 1, got {self.cores}")
        if not self.load_trace:
            raise ScenarioError("load trace must have at least one breakpoint")
        if self.load_trace[0][0] != 0:
            raise ScenarioError(
                f"load trace must start at time 0, got {self.load_trace[0][0]}")
        prev_t = -1.0
        for t, load in self.load_trace:
            if not prev_t < t < math.inf:   # also rejects NaN
                raise ScenarioError(
                    f"load trace times must be finite and increase, got {t}")
            if not 0 <= load <= 100:
                raise ScenarioError(f"trace load {load} outside [0, 100]")
            prev_t = t

    def load_at(self, t_ms: float) -> float:
        """Load of the last breakpoint at or before t_ms (first if none)."""
        i = bisect_right(self._times, t_ms)
        return self._loads[i - 1] if i else self._loads[0]


@dataclass(frozen=True)
class Scenario:
    """Everything a simulation run depends on, seed included."""

    mec_nodes: tuple[MecNode, ...]
    vehicles: int
    handover_interval_ms: float
    degree: int
    duration_ms: float
    seed: int = 0
    mults_per_handover: int = 10
    policy_mode: str = "rule_table"
    fixed_plan: MethodPlan | None = None

    def __post_init__(self):
        object.__setattr__(self, "mec_nodes", tuple(self.mec_nodes))
        if not self.mec_nodes:
            raise ScenarioError("at least one MEC node is required")
        for name in ("vehicles", "degree", "mults_per_handover", "seed"):
            _check_int(getattr(self, name), name)
        if self.vehicles < 0:
            raise ScenarioError(f"vehicles must be >= 0, got {self.vehicles}")
        if not 0 < self.handover_interval_ms < math.inf:
            raise ScenarioError(
                "handover_interval_ms must be finite and > 0, got "
                f"{self.handover_interval_ms}")
        if self.degree < 1:
            raise ScenarioError(f"degree must be >= 1, got {self.degree}")
        if not 0 < self.duration_ms < math.inf:
            raise ScenarioError(
                f"duration_ms must be finite and > 0, got {self.duration_ms}")
        if self.mults_per_handover < 1:
            raise ScenarioError("mults_per_handover must be >= 1")
        if self.policy_mode not in POLICY_MODES:
            raise ScenarioError(
                f"policy_mode must be one of {POLICY_MODES}, got "
                f"{self.policy_mode!r}")
        if self.policy_mode == "fixed_plan" and self.fixed_plan is None:
            raise ScenarioError("fixed_plan mode needs a fixed_plan descriptor")
        if not isinstance(self.fixed_plan, (MethodPlan, type(None))):
            raise ScenarioError(
                f"fixed_plan must be a MethodPlan, got {self.fixed_plan!r}")


@dataclass(frozen=True)
class VehicleStats:
    vehicle: int
    handovers: int
    mean_latency_ms: float
    p95_latency_ms: float


@dataclass(frozen=True)
class MecStats:
    mec: int
    handovers: int
    plan_counts: dict[str, int]


@dataclass(frozen=True)
class SimReport:
    policy_mode: str
    total_handovers: int
    mean_latency_ms: float
    p95_latency_ms: float
    per_mec: list[MecStats]
    per_vehicle: list[VehicleStats]


def _p95(sorted_values: list[float]) -> float:
    if not sorted_values:
        return 0.0
    rank = math.ceil(0.95 * len(sorted_values))
    return sorted_values[rank - 1]


def _plan_counts(rule: tuple, counts: list[int]) -> dict[str, int]:
    """Handovers by plan label, sorted, from a rule (threshold, below,
    above) and the handovers counted [below, above] its threshold."""
    by_label: dict[str, int] = {}
    for plan, count in zip(rule[1:], counts):
        if count:
            by_label[plan.label] = by_label.get(plan.label, 0) + count
    return dict(sorted(by_label.items()))


def run_simulation(scenario: Scenario, table: RuleTable | None,
                   time_model) -> SimReport:
    """Simulate the scenario and report handover crypto latencies.

    time_model is anything with pricer(plan, degree) -> price, where
    price(load_pct) -> ns (the calibrated TimeModel, or a live runner).
    The degree is fixed, so a node's plan is a step function of its load:
    the rule table's rule (policy._rule) gives a threshold and the plans
    below and at or above it, taken once per distinct core count per run; a
    fixed plan is the rule (0.0, plan, plan).  One pricer is bound per
    distinct plan in those rules, so a memo the pricer keeps (TimeModel's
    does) serves every node on that plan, for this run only.  Each handover
    then bisects its node's breakpoint times, makes one comparison with the
    threshold and calls one price; a live runner times a fresh product on
    each call.  Handovers are counted per node and per side of the
    threshold, and folded into plan_counts by label at the end.

    Deterministic per seed.  Each handover draws straight from its
    vehicle's generator, because randrange and expovariate are pure-Python
    frames that cost about a quarter of a handover: the target is
    getrandbits(k) redrawn while it is >= n_mecs - 1, with k the bit length
    of n_mecs - 1, which is exactly randrange(n_mecs - 1), and the interval
    is -log(1.0 - random()) / rate, exactly expovariate(rate).  So the
    Mersenne Twister stream, and every report, is as with those calls.
    """
    if scenario.policy_mode == "rule_table" and table is None:
        raise InvalidInputError("rule_table mode needs a rule table")
    nodes, degree, fixed_plan = \
        scenario.mec_nodes, scenario.degree, scenario.fixed_plan
    duration_ms, mults = scenario.duration_ms, scenario.mults_per_handover
    rate = 1.0 / scenario.handover_interval_ms
    rule_table = scenario.policy_mode == "rule_table"
    log = math.log
    n_mecs = len(nodes)
    others = n_mecs - 1
    bits = others.bit_length()
    # per core count: (threshold, below, above), taken once this run
    rules = {cores: _rule(table, degree, cores) if rule_table
             else (0.0, fixed_plan, fixed_plan)
             for cores in dict.fromkeys(node.cores for node in nodes)}
    plans = dict.fromkeys(plan for rule in rules.values() for plan in rule[1:])
    pricers = {plan: time_model.pricer(plan, degree) for plan in plans}
    # per node: handovers counted [below, above] its threshold
    counts = [[0, 0] for _ in nodes]
    # per node: breakpoint times and loads, threshold, both prices, counts
    per_node = []
    for node, sides in zip(nodes, counts):
        threshold, below, above = rules[node.cores]
        per_node.append((node._times, node._loads, threshold,
                         pricers[below], pricers[above], sides))
    per_vehicle = []
    all_latencies: list[float] = []

    for v in range(scenario.vehicles):
        rng = random.Random(derive_seed(scenario.seed, v))
        getrandbits, uniform = rng.getrandbits, rng.random
        current = rng.randrange(n_mecs)
        latencies: list[float] = []
        t = -log(1.0 - uniform()) / rate
        while t < duration_ms:
            if others:
                target = getrandbits(bits)
                while target >= others:
                    target = getrandbits(bits)
                if target >= current:
                    target += 1
            else:
                target = current
            times, loads, threshold, below, above, sides = per_node[target]
            # t >= 0 and every trace starts at time 0, so bisect gives >= 1
            load = loads[bisect_right(times, t) - 1]
            try:
                if load >= threshold:
                    sides[1] += 1
                    per_mult_ns = above(load)
                else:
                    sides[0] += 1
                    per_mult_ns = below(load)
            except CoverageError as exc:
                raise CoverageError(
                    f"vehicle {v} handover at t={t:.1f}ms to mec {target}: "
                    f"{exc}") from exc
            latencies.append(mults * per_mult_ns / 1e6)
            current = target
            t += -log(1.0 - uniform()) / rate
        latencies_sorted = sorted(latencies)
        per_vehicle.append(VehicleStats(
            vehicle=v, handovers=len(latencies),
            mean_latency_ms=(sum(latencies) / len(latencies)) if latencies else 0.0,
            p95_latency_ms=_p95(latencies_sorted)))
        all_latencies.extend(latencies)

    all_sorted = sorted(all_latencies)
    return SimReport(
        policy_mode=scenario.policy_mode,
        total_handovers=len(all_latencies),
        mean_latency_ms=(sum(all_latencies) / len(all_latencies))
        if all_latencies else 0.0,
        p95_latency_ms=_p95(all_sorted),
        per_mec=[MecStats(mec=i, handovers=sum(sides),
                          plan_counts=_plan_counts(rules[node.cores], sides))
                 for i, (node, sides) in enumerate(zip(nodes, counts))],
        per_vehicle=per_vehicle)


#: SimReport and its stats list their fields in the JSON report's key order.
report_to_dict = asdict


def render_report(report: SimReport, fmt: str = "text") -> str:
    """The report as text or canonical JSON.

    Rendering the same report twice yields byte-identical output.
    """
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if fmt != "text":
        raise InvalidInputError(f"unknown report format {fmt!r}")
    lines = [f"policy_mode: {report.policy_mode}"]
    for m in report.per_mec:
        plans = " ".join(f"{label}={count}"
                         for label, count in m.plan_counts.items())
        lines.append(f"mec {m.mec}: handovers={m.handovers} {plans}".rstrip())
    lines.append(f"total handovers: {report.total_handovers}")
    lines.append(f"mean latency: {report.mean_latency_ms:.3f} ms")
    lines.append(f"p95 latency: {report.p95_latency_ms:.3f} ms")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario persistence
# ---------------------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    return {
        "mec_nodes": [{"cores": n.cores,
                       "background_load_trace": [[t, l] for t, l in n.load_trace]}
                      for n in s.mec_nodes],
        "vehicles": s.vehicles,
        "handover_interval_ms": s.handover_interval_ms,
        "mults_per_handover": s.mults_per_handover,
        "degree": s.degree,
        "duration_ms": s.duration_ms,
        "seed": s.seed,
        "policy_mode": s.policy_mode,
        "fixed_plan": s.fixed_plan.as_dict() if s.fixed_plan else None,
    }


#: Values of the optional scenario fields when the file omits them.
_SCENARIO_DEFAULTS = {f.name: f.default for f in fields(Scenario)
                      if f.default is not MISSING}

_need_field = partial(_need, error=ScenarioError)


def scenario_from_dict(data: dict) -> Scenario:
    """Read a scenario with the rule file's strict field reader: every
    field must have its JSON type, and errors name the field path."""
    if isinstance(data, dict):
        data = {**_SCENARIO_DEFAULTS, **data}
    nodes = []
    for i, raw in enumerate(_need_field(data, "mec_nodes", list, "scenario")):
        nw = f"scenario.mec_nodes[{i}]"
        trace = []
        for j, bp in enumerate(_need_field(raw, "background_load_trace",
                                           list, nw)):
            bw = f"{nw}.background_load_trace[{j}]"
            if not isinstance(bp, list) or len(bp) != 2:
                raise ScenarioError(
                    f"{bw}: expected [time_ms, load_pct], got {bp!r}")
            point = dict(zip(("time_ms", "load_pct"), bp))
            trace.append((_need_field(point, "time_ms", float, bw),
                          _need_field(point, "load_pct", float, bw)))
        nodes.append(MecNode(cores=_need_field(raw, "cores", int, nw),
                             load_trace=tuple(trace)))
    fixed_plan = None
    if data["fixed_plan"] is not None:
        fixed_plan = _plan_at(data, "fixed_plan", "scenario", ScenarioError)
    return Scenario(
        mec_nodes=tuple(nodes),
        vehicles=_need_field(data, "vehicles", int, "scenario"),
        handover_interval_ms=_need_field(data, "handover_interval_ms", float,
                                         "scenario"),
        mults_per_handover=_need_field(data, "mults_per_handover", int,
                                       "scenario"),
        degree=_need_field(data, "degree", int, "scenario"),
        duration_ms=_need_field(data, "duration_ms", float, "scenario"),
        seed=_need_field(data, "seed", int, "scenario"),
        policy_mode=_need_field(data, "policy_mode", str, "scenario"),
        fixed_plan=fixed_plan)


def load_scenario(path) -> Scenario:
    return read_json(path, scenario_from_dict, ScenarioError)


def save_scenario(scenario: Scenario, path) -> None:
    write_json(scenario_to_dict(scenario), path)
