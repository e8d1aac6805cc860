"""Stock-flow simulation toolkit for a vinasse treatment pond.

The package layers cleanly: `expr` and `model` define equations and
structure, `engine` integrates them, `language` reads and writes the text
format, `plant` assembles the treatment pond model, `scenarios` runs
what-if comparisons, policy search, sweeps, and calibration, and `charts`
renders SVG. The `sfdsim` console script exposes all of it.
"""

from .engine import EventRecord, SimConfig, Trajectory, run_simulation
from .errors import (
    ClampError,
    CycleError,
    DuplicateNameError,
    EventGridError,
    InvalidParameterError,
    ModelError,
    NoFeasiblePolicyError,
    NonFiniteError,
    NotRecordedError,
    ParseError,
    SfdError,
    SimulationError,
    UnitError,
    UnknownSymbolError,
)
from .language import format_model, lint_model, parse_expression, parse_model
from .model import (
    AuxDef,
    EventAction,
    EventDef,
    FlowDef,
    ModelSpec,
    ParamDef,
    StockDef,
    ValidatedModel,
    validate_model,
)
from .plant import (
    CostReport,
    build_baseline,
    cost_breakdown,
    peak_sludge,
    pickup_summary,
    saturation_time,
    summarize,
    temperature,
)
from .scenarios import (
    CalibrationProblem,
    CalibrationResult,
    PolicyGrid,
    PolicyRow,
    PolicySearchResult,
    Scenario,
    ScenarioResult,
    SweepResult,
    apply_scenario,
    calibrate,
    compare_to_baseline,
    format_scenario,
    optimize_transport_policy,
    parse_scenario,
    run_sweep,
)
from .charts import render_chart

__version__ = "0.1.0"

__all__ = [
    "AuxDef",
    "CalibrationProblem",
    "CalibrationResult",
    "CostReport",
    "ClampError",
    "CycleError",
    "DuplicateNameError",
    "EventAction",
    "EventDef",
    "EventGridError",
    "EventRecord",
    "FlowDef",
    "InvalidParameterError",
    "ModelError",
    "ModelSpec",
    "NoFeasiblePolicyError",
    "NonFiniteError",
    "NotRecordedError",
    "ParamDef",
    "ParseError",
    "PolicyGrid",
    "PolicyRow",
    "PolicySearchResult",
    "Scenario",
    "ScenarioResult",
    "SfdError",
    "SimConfig",
    "SimulationError",
    "StockDef",
    "SweepResult",
    "Trajectory",
    "UnitError",
    "UnknownSymbolError",
    "ValidatedModel",
    "apply_scenario",
    "build_baseline",
    "calibrate",
    "compare_to_baseline",
    "cost_breakdown",
    "format_model",
    "format_scenario",
    "lint_model",
    "optimize_transport_policy",
    "parse_expression",
    "parse_model",
    "parse_scenario",
    "peak_sludge",
    "pickup_summary",
    "render_chart",
    "run_simulation",
    "run_sweep",
    "saturation_time",
    "summarize",
    "temperature",
    "validate_model",
]
