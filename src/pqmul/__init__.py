"""Polynomial multiplication back ends with load-aware method selection.

The pieces, bottom up: dense integer polynomials and the schoolbook oracle
(poly), Karatsuba/Toom-Cook recursive multipliers with exact operation-count
predictors, which run a plan's independent top-level subproducts on its
worker processes (multipliers), the worker-process pool (parallel), a
synthetic duty-cycle CPU load generator (loadgen), a Monte Carlo timing
harness (bench), rule-table calibration and method selection (policy), and
a handover simulator that exercises the decision loop end to end
(simulator).  `pqmul` on the command line wires them together.
"""

from .bench import (
    BenchmarkRecord,
    BenchmarkSpec,
    aggregate,
    export_records,
    import_records,
    run_benchmark,
)
from .errors import (
    CalibrationError,
    CapacityError,
    CoverageError,
    InternalArithmeticError,
    InvalidInputError,
    InvalidPlanError,
    PqmulError,
    ResourceError,
    RingMismatchError,
    RuleTableError,
    ScenarioError,
    TimerResolutionError,
)
from .loadgen import LoadProfile, measure_achieved_load, start_load, stop_load
from .multipliers import (
    MethodPlan,
    evaluate_parts,
    interpolate,
    multiply,
    parallel_mul,
    predicted_mult_count,
    recursion_depth,
    split,
)
from .parallel import shutdown_pools
from .policy import (
    SystemState,
    TimeModel,
    calibrate,
    load_rules,
    save_rules,
    select_method,
)
from .poly import OperationCounter, Polynomial, schoolbook_mul
from .simulator import (
    MecNode,
    Scenario,
    load_scenario,
    render_report,
    run_simulation,
    save_scenario,
)

__version__ = "0.1.0"
