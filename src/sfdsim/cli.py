"""Command-line interface.

Subcommands: simulate, sweep, optimize, calibrate, lint, fmt, plot. Given
--out, simulate, sweep, optimize and calibrate also write
`<out>.manifest.json` recording the exact invocation, resolved
configuration, and output paths, with no timestamps, so reruns can be
reproduced and diffed byte for byte; plot writes none.

Exit codes: 0 success; 1 file I/O failure; 2 parse, validation, or usage
errors (lint violations included); 3 integration failures (non-finite
values, a conserving clamp that does not converge); 4 no feasible policy in
an optimization grid. Errors go to stderr, colored when attached to a
terminal unless SFDSIM_NO_COLOR is set.

`main` parses with one parser per process, built by `build_parser` on the
first call and reused, so repeated in-process calls do not pay for it
again. Usage errors and `--version` still write to the `sys.stderr` and
`sys.stdout` current at each call. `build_parser` returns a fresh parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .engine import METHODS, SimConfig, run_simulation
from .errors import (
    NoFeasiblePolicyError,
    NotRecordedError,
    ParseError,
    SfdError,
    SimulationError,
)
from .charts import render_chart
from .language import format_model, lint_model, parse_model
from .model import ModelSpec
from .plant import build_baseline
from .scenarios import (
    CalibrationProblem,
    PolicyGrid,
    Scenario,
    apply_scenario,
    calibrate,
    optimize_transport_policy,
    parse_scenario,
    run_sweep,
)


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("SFDSIM_NO_COLOR")


def _error(message: str) -> None:
    if _use_color():
        sys.stderr.write(f"\x1b[31merror:\x1b[0m {message}\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def _load(args) -> tuple[ModelSpec, str, list[Scenario]]:
    """The model with the --scenario files applied in order, so a later
    file's value wins, its source, and the scenarios."""
    if args.model:
        spec, source = parse_model(Path(args.model).read_text()), args.model
    else:
        spec, source = build_baseline(), "builtin"
    scenarios = [parse_scenario(Path(path).read_text()) for path in args.scenario or []]
    for scenario in scenarios:
        spec = apply_scenario(spec, scenario)
    return spec, source, scenarios


def _float_list(text: str) -> tuple[float, ...]:
    """Comma-separated numbers; empty items are skipped."""
    return tuple(float(v) for v in text.split(",") if v.strip())


def _config(args) -> SimConfig:
    return SimConfig(
        t_start=args.t_start,
        t_end=args.t_end,
        dt=args.dt,
        method=args.method,
        seed=args.seed,
        record_every=args.record_every,
    )


def _manifest_path(out: str) -> str:
    return str(Path(out).with_suffix("")) + ".manifest.json"


def _distinct_outputs(out: str | None, *named: tuple[str, str | None]) -> None:
    """ValueError if two of --out `out`, the set (name, path) outputs and
    the manifest resolve to the same file: the later write would replace
    the earlier one. Without --out a command writes at most one file."""
    if not out:
        return
    seen: dict[str, str] = {}
    for flag, path in (("--out", out), *named, ("the manifest", _manifest_path(out))):
        if path:
            resolved = os.path.realpath(path)
            if resolved in seen:
                raise ValueError(f"{seen[resolved]} and {flag} both name {path}")
            seen[resolved] = flag


def _write_out(args, command: str, spec: ModelSpec, source: str, scenarios: list[Scenario],
               text: str, written: tuple[str | None, ...] = ()) -> None:
    """Write `text` to --out, then `<out>.manifest.json`, which lists it and
    the paths in `written` that are set, and print `wrote <path>` for each
    of these in turn, the manifest last."""
    Path(args.out).write_text(text)
    outputs = [path for path in (args.out, *written) if path]
    manifest = {
        "argv": args._argv,
        "command": command,
        "config": dataclasses.asdict(_config(args)),
        "model": {
            "name": spec.name,
            "source": source,
            "parameters": {p.name: p.value for p in spec.parameters},
        },
        "scenarios": [s.name for s in scenarios],
        "outputs": sorted(outputs),
        "version": __version__,
    }
    manifest_path = _manifest_path(args.out)
    Path(manifest_path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for path in (*outputs, manifest_path):
        print(f"wrote {path}")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    defaults = SimConfig()
    p.add_argument("--model", help="model file; the built-in treatment pond when omitted")
    p.add_argument("--scenario", action="append", metavar="FILE",
                   help="scenario file; repeatable, applied in order")
    p.add_argument("--t-start", type=float, default=defaults.t_start, dest="t_start")
    p.add_argument("--t-end", type=float, default=defaults.t_end, dest="t_end")
    p.add_argument("--dt", type=float, default=defaults.dt)
    p.add_argument("--method", choices=METHODS, default=defaults.method)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--record-every", type=int, default=defaults.record_every,
                   dest="record_every")


def cmd_simulate(args) -> int:
    _distinct_outputs(args.out, ("--events-out", args.events_out))
    spec, source, scenarios = _load(args)
    traj = run_simulation(spec, _config(args))
    csv_text = traj.to_csv()
    if args.events_out:
        Path(args.events_out).write_text(traj.events_to_csv())
    if not args.out:
        sys.stdout.write(csv_text)
        return 0
    _write_out(args, "simulate", spec, source, scenarios, csv_text, (args.events_out,))
    return 0


def cmd_sweep(args) -> int:
    _distinct_outputs(args.out)
    effective, source, scenarios = _load(args)
    if not args.values:
        raise ValueError("--values must list at least one number")
    result = run_sweep(effective, args.param, args.values, _config(args))
    csv_text = result.to_csv()
    if not args.out:
        sys.stdout.write(csv_text)
        return 0
    _write_out(args, "sweep", effective, source, scenarios, csv_text)
    return 0


def cmd_optimize(args) -> int:
    _distinct_outputs(args.out)
    effective, source, scenarios = _load(args)
    grid = PolicyGrid(
        intervals=args.intervals,
        truck_capacities=args.trucks,
        truck_counts=args.counts,
        sludge_limit_kg=args.sludge_limit,
    )
    result = optimize_transport_policy(effective, grid, _config(args))
    best = result.best
    print(
        f"best: interval={best.interval:g} truckKg={best.truck_capacity_kg:g} "
        f"trucks={best.trucks:g} totalCost={best.total_cost:.6f} "
        f"peakSludge={best.peak_sludge:.6f}"
    )
    if args.out:
        _write_out(args, "optimize", effective, source, scenarios, result.to_csv())
    return 0


def _read_observed(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    times: list[float] = []
    values: list[float] = []
    first = True
    for i, line in enumerate(Path(path).read_text().splitlines()):
        line = line.strip()
        if not line:
            continue
        header, first = first, False  # only the first non-blank row
        parts = line.split(",")
        if len(parts) < 2:
            raise ParseError("expected 't,value' rows", i + 1, 1)
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            if header:
                continue  # header row
            raise ParseError("expected numeric 't,value' rows", i + 1, 1) from None
        times.append(t)
        values.append(v)
    if not times:
        raise ParseError("no observations found", 1, 1)
    return tuple(times), tuple(values)


def cmd_calibrate(args) -> int:
    _distinct_outputs(args.out)
    effective, source, scenarios = _load(args)
    names: list[str] = []
    bounds: list[tuple[float, float]] = []
    for item in args.param:
        parts = item.split(":")
        if len(parts) != 3:
            raise ValueError(f"--param must be NAME:LO:HI, got {item!r}")
        names.append(parts[0])
        bounds.append((float(parts[1]), float(parts[2])))
    times, values = _read_observed(args.observed)
    problem = CalibrationProblem(
        param_names=tuple(names),
        bounds=tuple(bounds),
        column=args.column,
        observed_times=times,
        observed_values=values,
    )
    result = calibrate(effective, problem, _config(args),
                       tol=args.tol, max_passes=args.max_passes)
    payload = {
        "params": result.params,
        "sse": result.sse,
        "passes": result.passes,
        "evaluations": result.evaluations,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_out(args, "calibrate", effective, source, scenarios, text)
    return 0


def cmd_lint(args) -> int:
    issues = lint_model(Path(args.file).read_text())
    for issue in issues:
        print(f"{args.file}:{issue}")
    return 2 if issues else 0


def cmd_fmt(args) -> int:
    text = format_model(parse_model(Path(args.file).read_text()))
    if args.write:
        Path(args.file).write_text(text)
        print(f"wrote {args.file}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_plot(args) -> int:
    spec, _source, _scenarios = _load(args)
    traj = run_simulation(spec, _config(args))
    if args.columns:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    else:
        columns = [s.name for s in spec.stocks]
    svg = render_chart(traj, columns, title=args.title)
    if args.out:
        Path(args.out).write_text(svg)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfdsim",
        description="Stock-flow simulation of a vinasse treatment pond, "
                    "plus model language tooling.",
    )
    parser.add_argument("--version", action="version", version=f"sfdsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a model and emit trajectory CSV")
    _add_sim_flags(p)
    p.add_argument("--out", help="trajectory CSV path; stdout when omitted")
    p.add_argument("--events-out", dest="events_out", help="event log CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulate across values of one parameter")
    _add_sim_flags(p)
    p.add_argument("--param", required=True, help="parameter name to sweep")
    p.add_argument("--values", required=True, type=_float_list,
                   help="comma-separated values")
    p.add_argument("--out", help="sweep CSV path; stdout when omitted")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="search sludge pickup policies")
    _add_sim_flags(p)
    grid = PolicyGrid()
    p.add_argument("--intervals", type=_float_list, default=grid.intervals,
                   help="days between pickups")
    p.add_argument("--trucks", type=_float_list, default=grid.truck_capacities,
                   help="truck capacities in kg")
    p.add_argument("--counts", type=_float_list, default=grid.truck_counts,
                   help="trucks per pickup")
    p.add_argument("--sludge-limit", type=float, default=grid.sludge_limit_kg,
                   dest="sludge_limit", help="feasibility cap on peak sludge in kg")
    p.add_argument("--out", help="ranked policy CSV path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("calibrate", help="fit parameters to an observed series")
    _add_sim_flags(p)
    p.add_argument("--param", action="append", required=True, metavar="NAME:LO:HI",
                   help="parameter and bounds; repeatable")
    p.add_argument("--column", required=True, help="trajectory column to match")
    p.add_argument("--observed", required=True, help="CSV of t,value observations")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-passes", type=int, default=200, dest="max_passes")
    p.add_argument("--out", help="result JSON path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("lint", help="check a model file's naming conventions")
    p.add_argument("file")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("fmt", help="canonically format a model file")
    p.add_argument("file")
    p.add_argument("--write", action="store_true", help="rewrite the file in place")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("plot", help="render trajectory columns as an SVG chart")
    _add_sim_flags(p)
    p.add_argument("--columns", help="comma-separated columns; stocks when omitted")
    p.add_argument("--title", help="chart title")
    p.add_argument("--out", help="SVG path; stdout when omitted")
    p.set_defaults(func=cmd_plot)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    effective = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(effective)
    args._argv = effective
    try:
        return args.func(args)
    except SimulationError as err:
        _error(str(err))
        return 3
    except NoFeasiblePolicyError as err:
        _error(str(err))
        return 4
    except NotRecordedError as err:
        # An unknown column or time; a KeyError prints its message quoted.
        _error(err.args[0])
        return 2
    except (SfdError, ValueError) as err:
        _error(str(err))
        return 2
    except OSError as err:
        _error(str(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())
