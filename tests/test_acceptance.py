"""Acceptance gate: the eight release criteria, one test per criterion.

Each test records one `[AC#] <label>: PASS|FAIL` verdict; conftest prints
the collected verdicts in the terminal summary, after capture is released.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from sfdsim import (
    CalibrationProblem,
    PolicyGrid,
    SimConfig,
    build_baseline,
    calibrate,
    format_model,
    format_scenario,
    lint_model,
    optimize_transport_policy,
    parse_model,
    parse_scenario,
    run_simulation,
    run_sweep,
    saturation_time,
    summarize,
)
from sfdsim.scenarios import SweepRow
from sfdsim.cli import main as cli_main

import vinasse_oracle as oracle
from modelgen import generate_model

YEAR = SimConfig(t_end=365.0)

VERDICTS: list[str] = []


def _verdict(tag: str, label: str, ok: bool) -> bool:
    line = f"[{tag}] {label}: {'PASS' if ok else 'FAIL'}"
    VERDICTS.append(line)
    print(line)
    return ok


def test_ac1_baseline_year():
    problems = []
    spec = build_baseline()
    started = time.perf_counter()
    traj = run_simulation(spec, YEAR)
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"year run took {elapsed:.3f}s")

    vinasse = traj.series("AccumulatedVinasse")
    if not all(v <= 18000.0 for v in vinasse):
        problems.append(f"capacity exceeded: max {max(vinasse)}")

    pickups = [e for e in traj.events if e.target == "AccumulatedSludge"]
    if len(pickups) != 12:
        problems.append(f"expected 12 pickups, saw {len(pickups)}")
    if not all(e.amount <= 3000.0 for e in pickups):
        problems.append("a pickup removed more than one truckload")
    gaps = {b.t - a.t for a, b in zip(pickups, pickups[1:])}
    if gaps != {30.0}:
        problems.append(f"pickup spacing {sorted(gaps)} is not uniformly 30 days")

    cost = traj.series("TotalCost")
    if not all(b >= a for a, b in zip(cost, cost[1:])):
        problems.append("TotalCost decreased")

    zeroed = spec.with_params({"OpCostPerM3Day": 0.0, "CoagulantUnitCost": 0.0})
    cost0 = run_simulation(zeroed, YEAR)
    flat = [cost0.at("TotalCost", float(t)) for t in range(0, 30)]
    if any(v != 0.0 for v in flat):
        problems.append("cost moved before the first pickup with rate costs zeroed")
    col0 = cost0.series("TotalCost")
    if not all(b >= a for a, b in zip(col0, col0[1:])):
        problems.append("transport-only TotalCost decreased")

    ok = _verdict("AC1", "baseline year: speed, capacity, pickups, cost shape", not problems)
    assert ok, "; ".join(problems)


def test_ac2_mass_balance_random_models():
    failures = []
    for seed in range(50):
        spec = generate_model(seed)
        method = "euler" if seed % 2 == 0 else "rk4"
        traj = run_simulation(spec, SimConfig(t_end=365.0, method=method))
        initials = {s.name: s.initial for s in spec.stocks}
        for stock in spec.stocks:
            inflow = sum(
                traj.flow_integrals[f.name]
                for f in spec.flows if f.target == stock.name
            )
            outflow = sum(
                traj.flow_integrals[f.name]
                for f in spec.flows if f.source == stock.name
            )
            expected = initials[stock.name] + inflow - outflow \
                + traj.event_deltas[stock.name]
            final = traj.final(stock.name)
            denom = max(1.0, abs(expected), inflow + outflow)
            if abs(final - expected) / denom > 1e-6:
                failures.append(f"seed {seed} {stock.name}: "
                                f"final {final} vs ledger {expected}")
            if min(traj.series(stock.name)) < 0.0:
                failures.append(f"seed {seed} {stock.name} went negative")
    ok = _verdict("AC2", "mass balance on 50 random models within 1e-6", not failures)
    assert ok, "; ".join(failures[:5])


def test_ac3_integrator_convergence_orders():
    spec = parse_model("model Decay { stock S = 1 flow out : S -> = S }")
    exact = math.exp(-1.0)
    dts = (0.2, 0.1, 0.05, 0.025)
    orders = {}
    for method in ("euler", "rk4"):
        errors = []
        for dt in dts:
            traj = run_simulation(spec, SimConfig(t_end=1.0, dt=dt, method=method))
            errors.append(abs(traj.final("S") - exact))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        orders[method] = float(slope)
    ok_euler = abs(orders["euler"] - 1.0) <= 0.3
    ok_rk4 = abs(orders["rk4"] - 4.0) <= 0.3
    ok = _verdict(
        "AC3",
        f"convergence orders euler={orders['euler']:.3f} rk4={orders['rk4']:.3f}",
        ok_euler and ok_rk4,
    )
    assert ok, orders


def test_ac4_scenario_properties_match_reference():
    problems = []
    spec = build_baseline()
    doses = (0.0, 5.0, 10.0, 20.0, 40.0)
    sludge_totals = []
    final_vinasse = []
    for dose in doses:
        traj = run_simulation(spec.with_params({"Dose": dose}), YEAR)
        ref = oracle.run_days({"Dose": dose})
        produced = traj.flow_integrals["sludgeProductionRate"]
        if produced != ref["cumulative"]["production"]:
            problems.append(f"dose {dose}: sludge total diverges from reference")
        if traj.final("AccumulatedVinasse") != ref["final"]["AccumulatedVinasse"]:
            problems.append(f"dose {dose}: final vinasse diverges from reference")
        sludge_totals.append(produced)
        final_vinasse.append(traj.final("AccumulatedVinasse"))
    if not all(b >= a for a, b in zip(sludge_totals, sludge_totals[1:])):
        problems.append(f"sludge totals not weakly increasing: {sludge_totals}")
    if not all(b <= a for a, b in zip(final_vinasse, final_vinasse[1:])):
        problems.append(f"final vinasse not weakly decreasing: {final_vinasse}")

    sats = []
    for capacity in (18000.0, 36000.0):
        traj = run_simulation(spec.with_params({"TotalCapacity": capacity}), YEAR)
        ref = oracle.run_days({"TotalCapacity": capacity})
        sat = saturation_time(traj)
        if sat != ref["metrics"]["saturation_time"]:
            problems.append(f"capacity {capacity}: saturation diverges from reference")
        sats.append(math.inf if sat is None else sat)
    if sats[1] < sats[0]:
        problems.append(f"doubling capacity lowered saturation time: {sats}")

    ok = _verdict("AC4", "dose and capacity responses match the day-loop reference",
                  not problems)
    assert ok, "; ".join(problems)


def test_ac5_policy_search_matches_brute_force():
    grid = PolicyGrid(
        intervals=(10.0, 15.0, 30.0, 45.0, 60.0),
        truck_capacities=(1500.0, 3000.0, 4500.0, 6000.0),
        truck_counts=(1.0, 2.0),
        sludge_limit_kg=6000.0,
    )
    started = time.perf_counter()
    result = optimize_transport_policy(build_baseline(), grid, YEAR)
    elapsed = time.perf_counter() - started

    best_ref, rows_ref = oracle.best_policy(
        grid.intervals, grid.truck_capacities, grid.truck_counts,
        grid.sludge_limit_kg,
    )
    rows = [
        (r.interval, r.truck_capacity_kg, r.trucks, r.feasible,
         r.total_cost, r.peak_sludge)
        for r in result.rows
    ]
    best = rows[0]

    problems = []
    if elapsed >= 5.0:
        problems.append(f"search took {elapsed:.2f}s")
    if best != best_ref:
        problems.append(f"argmin {best} != reference {best_ref}")
    if rows != rows_ref:
        first = next(i for i, (a, b) in enumerate(zip(rows, rows_ref)) if a != b)
        problems.append(f"ranking diverges at position {first}")

    ok = _verdict("AC5", "40-policy grid: ranking equals brute force, under 5s",
                  not problems)
    assert ok, "; ".join(problems)


def test_ac6_calibration_recovers_evaporation():
    spec = build_baseline()
    true_value = spec.param("KEvap")
    truth = run_simulation(spec, YEAR)
    times = tuple(float(t) for t in range(180, 361, 20))
    observed = tuple(truth.at("AccumulatedVinasse", t) for t in times)
    problem = CalibrationProblem(
        param_names=("KEvap",),
        bounds=((0.001, 0.01),),
        column="AccumulatedVinasse",
        observed_times=times,
        observed_values=observed,
    )
    result = calibrate(spec, problem, YEAR)

    center = run_simulation(spec.with_params({"KEvap": 0.0055}), YEAR)
    center_sse = sum(
        (center.at("AccumulatedVinasse", t) - v) ** 2
        for t, v in zip(times, observed)
    )

    rel = abs(result.params["KEvap"] - true_value) / true_value
    problems = []
    if rel > 1e-3:
        problems.append(f"recovered {result.params['KEvap']} vs {true_value}")
    if result.sse > center_sse:
        problems.append(f"SSE rose from {center_sse} to {result.sse}")

    ok = _verdict("AC6", f"KEvap recovered to {rel:.2e} relative, SSE non-increasing",
                  not problems)
    assert ok, "; ".join(problems)


def test_ac7_fixture_corpus_parses_and_round_trips(fixtures_dir):
    problems = []
    model_files = sorted(fixtures_dir.glob("**/*.sfd"))
    scenario_files = sorted(fixtures_dir.glob("**/*.scn"))
    if not model_files or not scenario_files:
        problems.append("fixture corpus is missing")

    for path in model_files:
        try:
            first = parse_model(path.read_text())
            text = format_model(first)
            second = parse_model(text)
        except Exception as err:
            problems.append(f"{path.name}: {err}")
            continue
        if second != first:
            problems.append(f"{path.name}: reparse changed the model")
        if format_model(second) != text:
            problems.append(f"{path.name}: formatting is not idempotent")
        lines = path.read_text().splitlines(keepends=True)
        while lines and (lines[0].startswith("#") or not lines[0].strip()):
            lines.pop(0)
        if "".join(lines) != text:
            problems.append(f"{path.name}: not canonical below its leading comments")

    for path in scenario_files:
        try:
            first = parse_scenario(path.read_text())
            text = format_scenario(first)
            second = parse_scenario(text)
        except Exception as err:
            problems.append(f"{path.name}: {err}")
            continue
        if second != first:
            problems.append(f"{path.name}: reparse changed the scenario")

    issues = lint_model((fixtures_dir / "lint" / "naming_violations.sfd").read_text())
    flagged = {issue.message.split("'")[1] for issue in issues}
    if flagged != {"totalCapacity", "pond", "Overflow", "Temperature2"}:
        problems.append(f"linter flagged {sorted(flagged)}")
    if len(issues) != 4:
        problems.append(f"linter reported {len(issues)} issues, expected 4")
    if lint_model((fixtures_dir / "baseline.sfd").read_text()):
        problems.append("linter flagged the clean baseline fixture")

    ok = _verdict("AC7", "all fixtures parse, round-trip, and lint as seeded",
                  not problems)
    assert ok, "; ".join(problems)


def test_ac8_byte_identical_outputs(tmp_path, monkeypatch, capsys):
    scenario_text = "scenario Noisy { set NoiseStdDev = 1.5 }\n"
    outputs = {}
    for label in ("first", "second"):
        workdir = tmp_path / label
        workdir.mkdir()
        (workdir / "noisy.scn").write_text(scenario_text)
        monkeypatch.chdir(workdir)
        rc = cli_main([
            "simulate", "--seed", "7", "--t-end", "120",
            "--scenario", "noisy.scn",
            "--out", "run.csv", "--events-out", "events.csv",
        ])
        assert rc == 0
        rc = cli_main([
            "plot", "--seed", "7", "--t-end", "120",
            "--scenario", "noisy.scn",
            "--columns", "temperature,AccumulatedVinasse",
            "--out", "chart.svg",
        ])
        assert rc == 0
        outputs[label] = {
            name: (workdir / name).read_bytes()
            for name in ("run.csv", "events.csv", "run.manifest.json", "chart.svg")
        }
    capsys.readouterr()

    problems = [
        name for name in outputs["first"]
        if outputs["first"][name] != outputs["second"][name]
    ]

    manifest = json.loads(outputs["first"]["run.manifest.json"])
    if manifest["config"]["seed"] != 7:
        problems.append("manifest lost the seed")

    doses = (0.0, 10.0, 20.0, 40.0)
    sweep = run_sweep(build_baseline(), "Dose", doses, YEAR)
    separate = []
    for dose in doses:
        metrics = summarize(run_simulation(build_baseline().with_params({"Dose": dose}), YEAR))
        separate.append(SweepRow(dose, metrics["total_cost"], metrics["peak_sludge_kg"],
                                 metrics["saturation_day"], metrics["final_vinasse_m3"],
                                 metrics["final_sludge_kg"]))
    if sweep.rows != tuple(separate):
        problems.append("sweep rows differ from separate runs of each value")

    ok = _verdict("AC8", "CSV, JSON, and SVG outputs byte-identical across runs",
                  not problems)
    assert ok, "; ".join(str(p) for p in problems)
