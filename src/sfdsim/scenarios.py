"""Scenario definitions and decision-support tooling.

A Scenario is a named bundle of overrides applied to a model before
simulation: parameter values, stock initial values, and event reschedules.
Scenarios stack left to right, so combined interventions are expressed by
applying several in order.

On top of plain scenario runs this module provides:

* `compare_to_baseline`: run scenarios next to the unmodified model and
  report metric deltas.
* `optimize_transport_policy`: exhaustive search over a pickup-policy grid
  with deterministic ranking.
* `calibrate`: coordinate pattern search fitting chosen parameters to an
  observed series.
* `run_sweep`: one-parameter sweeps, one run per value in input order.

Scenarios apply to a `ModelSpec`, and the scenario comparison, policy
search, calibration and sweeps take one. Each scenario, grid point,
evaluation or value is run as a variant of that spec
(`ModelSpec.with_params`, `ModelSpec.with_initial`,
`ModelSpec.with_event_schedule`).
The variants share one validation, their evaluation order and generated
code, and each study checks them before its first run (`_checked_runs`).
Calibration runs each distinct point once.

Scenario files use a small text format sharing the expression-language
lexer; semicolons between directives are optional:

    scenario DoubleDose {
      description "thicker dosing with an earlier pickup cadence"
      set Dose = 30;
      initial AccumulatedSludge = 500
      event pickup every 15 start 15
    }
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterable

from .engine import (
    SimConfig,
    Trajectory,
    _event_schedule,
    _row_times,
    _time_index,
    run_simulation,
)
from .errors import NoFeasiblePolicyError, NotRecordedError, UnknownSymbolError
from .expr import format_number
from .language import _check_names, _Parser
from .model import ModelSpec, _variant_checked, validate_model
from .plant import STUDY_READS, summarize


@dataclass(frozen=True)
class Scenario:
    """Named set of overrides; empty dicts leave the model unchanged."""

    name: str
    params: dict[str, float] = field(default_factory=dict)
    initials: dict[str, float] = field(default_factory=dict)
    # event name -> (start or None, interval or None)
    events: dict[str, tuple[float | None, float | None]] = field(default_factory=dict)
    description: str = ""


def apply_scenario(spec: ModelSpec, scenario: Scenario) -> ModelSpec:
    """Model copy with one scenario's overrides applied."""
    out = spec
    if scenario.params:
        out = out.with_params(scenario.params)
    if scenario.initials:
        out = out.with_initial(scenario.initials)
    for name, (start, interval) in scenario.events.items():
        out = out.with_event_schedule(name, start=start, interval=interval)
    return out


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's trajectory and metrics, with deltas against the
    baseline run (absent for the baseline entry itself)."""

    name: str
    trajectory: Trajectory
    metrics: dict[str, float | None]
    deltas: dict[str, float] = field(default_factory=dict)


def compare_to_baseline(
    spec: ModelSpec,
    scenarios: list[Scenario] | tuple[Scenario, ...],
    config: SimConfig,
) -> list[ScenarioResult]:
    """Run the unmodified model plus each scenario.

    Returns the baseline result first, then one result per scenario in
    input order, each carrying metric deltas relative to the baseline. The
    scenarios are applied and checked before the first run (`_checked_runs`).
    """
    runs = _checked_runs("scenario comparison", spec, config,
                         chain((spec,), (apply_scenario(spec, sc) for sc in scenarios)),
                         STUDY_READS["summary"])
    results: list[ScenarioResult] = []
    for name, variant in zip(["baseline", *(sc.name for sc in scenarios)], runs):
        traj = run_simulation(variant, config)
        metrics = summarize(traj)
        base = results[0].metrics if results else {}
        deltas = {key: value - base[key] for key, value in metrics.items()
                  if isinstance(value, float) and isinstance(base.get(key), float)}
        results.append(ScenarioResult(name, traj, metrics, deltas))
    return results


def _checked_runs(study: str, spec: ModelSpec, config: SimConfig, runs: Iterable[ModelSpec],
                  reads: tuple[tuple[str, str], ...] = (), column: str | None = None,
                  times: tuple[float, ...] = ()) -> list[ModelSpec]:
    """`runs`, the variants of `spec` that a study will run, as a list,
    after every check that the runs and the study's reads of them would
    make, with their errors: `validate_model(spec)`; each of `reads` (a
    `plant.STUDY_READS` entry) defined, else UnknownSymbolError naming
    `study`; each run, as it is built, by `model._variant_checked` and
    `engine._event_schedule`; and `times` and `column` as `Trajectory.at`
    reads them. So a bad study fails with no run."""
    validate_model(spec)
    defined = {"column": {d.name for d in (*spec.stocks, *spec.flows, *spec.auxiliaries)},
               "parameter": {p.name for p in spec.parameters},
               "event": {e.name for e in spec.events}}
    for kind, name in reads:
        if name not in defined[kind]:
            raise UnknownSymbolError(f"{study} needs {kind} '{name}'")
    steps, checked = config.step_count(), []
    for variant in runs:
        if not _variant_checked(variant, spec):
            validate_model(variant)
        if all(variant.events is not other.events for other in checked):
            _event_schedule(variant, config, steps)
        checked.append(variant)
    recorded = _row_times(config) if times else []
    for t in times:
        _time_index(recorded, t)
    if column is not None and column not in defined["column"]:
        raise NotRecordedError(f"no recorded column '{column}'")
    return checked


# --- transport policy search ------------------------------------------------


@dataclass(frozen=True, slots=True)
class PolicyGrid:
    """Candidate pickup policies: the cross product of the three axes.

    A policy is feasible when peak sludge stays at or below
    `sludge_limit_kg` and total cost stays at or below the model's
    CostThreshold parameter.
    """

    intervals: tuple[float, ...] = (15.0, 30.0, 45.0, 60.0)
    truck_capacities: tuple[float, ...] = (3000.0, 6000.0)
    truck_counts: tuple[float, ...] = (1.0, 2.0)
    sludge_limit_kg: float = 6000.0


@dataclass(frozen=True, slots=True)
class PolicyRow:
    interval: float
    truck_capacity_kg: float
    trucks: float
    feasible: bool
    total_cost: float
    peak_sludge: float


@dataclass(frozen=True)
class PolicySearchResult:
    best: PolicyRow
    rows: tuple[PolicyRow, ...]

    def to_csv(self) -> str:
        lines = ["interval,truckKg,trucks,feasible,totalCost,peakSludge"]
        for r in self.rows:
            lines.append(
                f"{r.interval:.6f},{r.truck_capacity_kg:.6f},{r.trucks:.6f},"
                f"{int(r.feasible)},{r.total_cost:.6f},{r.peak_sludge:.6f}"
            )
        return "\n".join(lines) + "\n"


def optimize_transport_policy(
    spec: ModelSpec, grid: PolicyGrid, config: SimConfig
) -> PolicySearchResult:
    """Exhaustively evaluate the policy grid and rank deterministically.

    Rows are ordered feasible first, then by (total cost, interval, truck
    capacity, truck count); ties cannot reorder nondeterministically since
    the key includes every axis. ValueError for an empty axis or a
    non-finite limit, then every candidate is checked before the first run
    (`_checked_runs`). NoFeasiblePolicyError if no point is feasible.
    """
    for axis in ("intervals", "truck_capacities", "truck_counts"):
        if not getattr(grid, axis):
            raise ValueError(f"policy grid axis '{axis}' is empty")
    if not math.isfinite(grid.sludge_limit_kg):
        raise ValueError(f"sludge limit must be finite, got {grid.sludge_limit_kg:g}")
    threshold, capacity, trucks, pickup, sludge, cost_column = (
        name for _, name in STUDY_READS["policy"])
    candidates = _checked_runs("policy search", spec, config, (
        variant.with_params({capacity: truck, trucks: count})
        for variant in (spec.with_event_schedule(pickup, start=interval, interval=interval)
                        for interval in grid.intervals)
        for truck in grid.truck_capacities for count in grid.truck_counts),
        STUDY_READS["policy"])
    limit = spec.param(threshold)
    rows: list[PolicyRow] = []
    points = product(grid.intervals, grid.truck_capacities, grid.truck_counts)
    for (interval, truck, count), candidate in zip(points, candidates):
        traj = run_simulation(candidate, config)
        peak = traj.peak(sludge)
        cost = traj.final(cost_column)
        rows.append(PolicyRow(float(interval), float(truck), float(count),
                              peak <= grid.sludge_limit_kg and cost <= limit, cost, peak))
    rows.sort(key=lambda r: (
        not r.feasible, r.total_cost, r.interval, r.truck_capacity_kg, r.trucks,
    ))
    if not rows[0].feasible:
        raise NoFeasiblePolicyError(
            f"no policy keeps peak sludge within {grid.sludge_limit_kg:g} kg "
            f"and cost within {limit:g}"
        )
    return PolicySearchResult(best=rows[0], rows=tuple(rows))


# --- calibration ------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationProblem:
    """Fit `param_names` so `column` tracks the observed series.

    Observations must lie on the recorded time grid. Bounds are inclusive;
    the search never leaves them.
    """

    param_names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]
    column: str
    observed_times: tuple[float, ...]
    observed_values: tuple[float, ...]


@dataclass(frozen=True)
class CalibrationResult:
    params: dict[str, float]
    sse: float
    passes: int
    evaluations: int


def calibrate(
    spec: ModelSpec,
    problem: CalibrationProblem,
    config: SimConfig,
    tol: float = 1e-6,
    max_passes: int = 200,
) -> CalibrationResult:
    """Coordinate pattern search minimizing the sum of squared errors.

    From the center of the bounds, each pass tries one step up then down in
    every coordinate, keeping the first strict improvement. When a whole
    pass improves nothing, all steps are halved. The search stops when
    every step is below tol times its coordinate's range, or after
    `max_passes`. ValueError for a mismatched problem, a parameter named
    twice, or an observation or bound that is not finite. Then the two
    corners of the bounds, all low and all high, the column and the
    observed times are checked before the first run (`_checked_runs`);
    the search never leaves the bounds.

    `evaluations` counts the points tried. A step often returns to a point
    tried before; its SSE is looked up, not run again.
    """
    if not all(map(math.isfinite, (*problem.observed_times, *problem.observed_values,
                                   *(b for pair in problem.bounds for b in pair)))):
        raise ValueError("observed times, observed values and bounds must be finite")
    if len(problem.param_names) != len(problem.bounds):
        raise ValueError("one bounds pair is required per parameter")
    for k, name in enumerate(problem.param_names):
        if name in problem.param_names[:k]:
            raise ValueError(f"parameter '{name}' is named twice")
    if len(problem.observed_times) != len(problem.observed_values):
        raise ValueError("observed times and values must pair up")
    ranges = [hi - lo for lo, hi in problem.bounds]
    if any(r <= 0 for r in ranges):
        raise ValueError("each bounds pair must satisfy lo < hi")
    _checked_runs("calibration", spec, config, (
        spec.with_params(dict(zip(problem.param_names, corner)))
        for corner in zip(*problem.bounds)), column=problem.column,
        times=problem.observed_times)

    evaluations = 0
    # SSE by point, as the float.hex of each coordinate: -0.0 is not 0.0.
    seen: dict[tuple[str, ...], float] = {}

    def objective(point: list[float]) -> float:
        nonlocal evaluations
        evaluations += 1
        key = tuple(float(v).hex() for v in point)
        if key not in seen:
            overrides = dict(zip(problem.param_names, point))
            traj = run_simulation(spec.with_params(overrides), config)
            sse = 0.0
            for t_obs, v_obs in zip(problem.observed_times, problem.observed_values):
                err = traj.at(problem.column, t_obs) - v_obs
                sse += err * err
            seen[key] = sse
        return seen[key]

    point = [(lo + hi) / 2 for lo, hi in problem.bounds]
    steps = [0.25 * r for r in ranges]
    best = objective(point)

    passes = 0
    while passes < max_passes:
        passes += 1
        improved = False
        for i in range(len(point)):
            lo, hi = problem.bounds[i]
            for direction in (+1.0, -1.0):
                trial = min(hi, max(lo, point[i] + direction * steps[i]))
                if trial == point[i]:
                    continue
                candidate = list(point)
                candidate[i] = trial
                value = objective(candidate)
                if value < best:
                    best = value
                    point = candidate
                    improved = True
                    break
        if not improved:
            steps = [s / 2 for s in steps]
            if all(s <= tol * r for s, r in zip(steps, ranges)):
                break

    return CalibrationResult(
        params=dict(zip(problem.param_names, point)),
        sse=best,
        passes=passes,
        evaluations=evaluations,
    )


# --- parameter sweeps ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepRow:
    value: float
    total_cost: float
    peak_sludge: float
    saturation_day: float | None
    final_vinasse: float
    final_sludge: float


@dataclass(frozen=True)
class SweepResult:
    param: str
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = ["value,totalCost,peakSludge,saturationDay,finalVinasse,finalSludge"]
        for r in self.rows:
            sat = "" if r.saturation_day is None else f"{r.saturation_day:.6f}"
            lines.append(
                f"{r.value:.6f},{r.total_cost:.6f},{r.peak_sludge:.6f},"
                f"{sat},{r.final_vinasse:.6f},{r.final_sludge:.6f}"
            )
        return "\n".join(lines) + "\n"


def run_sweep(
    spec: ModelSpec,
    param: str,
    values: list[float] | tuple[float, ...],
    config: SimConfig,
) -> SweepResult:
    """Simulate once per value of `param`; rows come back in input order.
    Every value is checked before the first run (`_checked_runs`)."""
    variants = _checked_runs("sweep", spec, config,
                             (spec.with_params({param: value}) for value in values),
                             STUDY_READS["summary"])
    rows = []
    for value, variant in zip(values, variants):
        metrics = summarize(run_simulation(variant, config))
        rows.append(SweepRow(float(value), metrics["total_cost"], metrics["peak_sludge_kg"],
                             metrics["saturation_day"], metrics["final_vinasse_m3"],
                             metrics["final_sludge_kg"]))
    return SweepResult(param=param, rows=tuple(rows))


# --- scenario text format -----------------------------------------------------


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; see the module docstring for the format."""
    parser = _Parser(text)
    if not parser.take_keyword("scenario"):
        raise parser.fail("expected 'scenario'")
    name = parser.expect_ident("scenario name").text
    parser.expect_punct("{")
    params: dict[str, float] = {}
    initials: dict[str, float] = {}
    events: dict[str, tuple[float | None, float | None]] = {}
    description = ""
    while not parser.at_punct("}"):
        if parser.take_keyword("set"):
            pname = parser.expect_ident("parameter name").text
            parser.expect_punct("=")
            params[pname] = parser.number()
        elif parser.take_keyword("initial"):
            sname = parser.expect_ident("stock name").text
            parser.expect_punct("=")
            initials[sname] = parser.number()
        elif parser.take_keyword("event"):
            ename = parser.expect_ident("event name").text
            interval = None
            start = None
            if parser.take_keyword("every"):
                interval = parser.number()
            if parser.take_keyword("start"):
                start = parser.number()
            if interval is None and start is None:
                raise parser.fail("expected 'every' or 'start'")
            if start is None:
                start = interval
            events[ename] = (start, interval)
        elif parser.take_keyword("description"):
            description = parser.string("description")
        else:
            raise parser.fail("expected 'set', 'initial', 'event', or 'description'")
        parser.take_punct(";")
    parser.expect_punct("}")
    if parser.peek().kind != "eof":
        raise parser.fail("expected end of input after scenario")
    return Scenario(name=name, params=params, initials=initials,
                    events=events, description=description)


def format_scenario(scenario: Scenario) -> str:
    """Render a Scenario as canonical text.

    `parse_scenario` reads the text back as an equal Scenario. Raises
    ValueError for what the text format cannot say: a name the text cannot
    read back, a non-finite value, a description with double quotes or
    newlines, and an event reschedule that keeps the event's start (start
    None), since a bare `every N` starts at N.
    """
    _check_names([scenario.name, *scenario.params, *scenario.initials, *scenario.events])
    lines = [f"scenario {scenario.name} {{"]
    if scenario.description:
        if '"' in scenario.description or "\n" in scenario.description:
            raise ValueError("description cannot contain double quotes or newlines")
        lines.append(f'  description "{scenario.description}"')
    for name, value in scenario.params.items():
        lines.append(f"  set {name} = {format_number(value)}")
    for name, value in scenario.initials.items():
        lines.append(f"  initial {name} = {format_number(value)}")
    for name, (start, interval) in scenario.events.items():
        if start is None:
            raise ValueError(f"event '{name}': the format cannot keep the event's start")
        parts = [f"  event {name}"]
        if interval is not None:
            parts.append(f"every {format_number(interval)}")
        if start != interval:
            parts.append(f"start {format_number(start)}")
        lines.append(" ".join(parts))
    lines.append("}")
    return "\n".join(lines) + "\n"
