"""Scenario overrides, policy search, calibration, and sweeps."""

from __future__ import annotations

import dataclasses
import math
import re
import struct
from importlib import resources

import pytest

import sfdsim.engine as engine
import sfdsim.model
import sfdsim.scenarios
from sfdsim import (
    CalibrationProblem,
    EventGridError,
    InvalidParameterError,
    ModelError,
    NoFeasiblePolicyError,
    NotRecordedError,
    ParseError,
    PolicyGrid,
    Scenario,
    SimConfig,
    UnknownSymbolError,
    apply_scenario,
    build_baseline,
    calibrate,
    compare_to_baseline,
    format_scenario,
    optimize_transport_policy,
    parse_model,
    parse_scenario,
    run_simulation,
    run_sweep,
    validate_model,
)

from sfdsim.plant import STUDY_READS

import vinasse_oracle as oracle


class TestApply:
    def test_param_initial_and_event_overrides(self, baseline_spec):
        sc = Scenario(
            "mix",
            params={"Dose": 30.0},
            initials={"AccumulatedSludge": 500.0},
            events={"pickup": (15.0, 15.0)},
        )
        out = apply_scenario(baseline_spec, sc)
        assert out.param("Dose") == 30.0
        assert {s.name: s.initial for s in out.stocks}["AccumulatedSludge"] == 500.0
        assert out.events[0].start == 15.0 and out.events[0].interval == 15.0
        # The source model is untouched.
        assert baseline_spec.param("Dose") == 0.0

    def test_unknown_name_rejected(self, baseline_spec):
        with pytest.raises(UnknownSymbolError):
            apply_scenario(baseline_spec, Scenario("bad", params={"Nope": 1.0}))

    def test_application_is_pure(self, baseline_spec):
        snapshot = build_baseline()
        assert baseline_spec == snapshot
        apply_scenario(baseline_spec, Scenario(
            "mutator",
            params={"Dose": 99.0},
            initials={"TotalCost": 1.0},
            events={"pickup": (5.0, 5.0)},
        ))
        assert baseline_spec == snapshot


class TestCompare:
    def test_baseline_first_then_deltas(self, baseline_spec, year_config):
        cheap_ops = Scenario("cheap_ops", params={"OpCostPerM3Day": 0.0})
        results = compare_to_baseline(baseline_spec, [cheap_ops], year_config)
        assert [r.name for r in results] == ["baseline", "cheap_ops"]
        base, scen = results
        assert base.deltas == {}
        assert scen.deltas["total_cost"] == pytest.approx(
            scen.metrics["total_cost"] - base.metrics["total_cost"], rel=1e-12,
        )
        assert scen.deltas["total_cost"] < 0
        # None-valued metrics never produce deltas.
        assert all(isinstance(v, float) for v in scen.deltas.values())


class TestShippedScenarioClaims:
    """The effects that the shipped scenario files state in their comments,
    over a year against the baseline."""

    @pytest.fixture(scope="class")
    def results(self, baseline_spec, year_config, fixtures_dir):
        names = ("transport_policy", "coagulant_addition", "capacity_expansion")
        scenarios = [parse_scenario((fixtures_dir / f"{name}.scn").read_text())
                     for name in names]
        base, *rest = compare_to_baseline(baseline_spec, scenarios, year_config)
        return base, dict(zip(names, rest))

    def test_frequent_transport_about_halves_peak_sludge(self, results):
        base, scenarios = results
        result = scenarios["transport_policy"]
        assert (base.metrics["peak_sludge_kg"], result.metrics["peak_sludge_kg"]) == (
            2900.0, 1400.0)
        assert result.deltas["transport_cost"] > 0

    def test_coagulant_raises_sludge_production_by_48_percent(self, results):
        base, scenarios = results
        result = scenarios["coagulant_addition"]
        ratio = (result.trajectory.series("sludgeProductionRate")[1]
                 / base.trajectory.series("sludgeProductionRate")[1])
        assert ratio == pytest.approx(1.48, rel=1e-12)
        assert result.deltas["coagulant_cost"] > 0

    def test_capacity_expansion_saturates_months_later(self, results):
        base, scenarios = results
        result = scenarios["capacity_expansion"]
        assert (base.metrics["saturation_day"], result.metrics["saturation_day"]) == (
            232.0, 338.0)
        assert result.metrics["capex_cost"] > 0


class TestScenarioText:
    def test_fixture_files_parse(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.scn")):
            sc = parse_scenario(path.read_text())
            assert sc.name

    def test_round_trip(self):
        sc = Scenario(
            "Everything",
            params={"Dose": 30.0},
            initials={"AccumulatedVinasse": 100.0},
            events={"pickup": (10.0, 15.0), "flush": (12.0, None)},
            description="kitchen sink",
        )
        assert parse_scenario(format_scenario(sc)) == sc

    def test_semicolons_are_optional_separators(self):
        sc = parse_scenario(
            'scenario S { set Dose = 1; initial TotalCost = 0; '
            'description "with separators"; event pickup every 10 }'
        )
        assert sc.params == {"Dose": 1.0}
        assert sc.description == "with separators"

    def test_description_survives_fixture_round_trip(self, fixtures_dir):
        sc = parse_scenario((fixtures_dir / "coagulant_addition.scn").read_text())
        assert sc.description != ""
        assert parse_scenario(format_scenario(sc)) == sc

    def test_negative_zero_round_trips(self):
        sc = Scenario("S", params={"Dose": -0.0}, initials={"TotalCost": -0.0})
        text = format_scenario(sc)
        assert "set Dose = -0\n" in text
        back = parse_scenario(text)
        assert struct.pack("<d", back.params["Dose"]) == struct.pack("<d", -0.0)
        assert struct.pack("<d", back.initials["TotalCost"]) == struct.pack("<d", -0.0)

    @pytest.mark.parametrize("scenario", [
        Scenario("S", params={"Dose": math.inf}),
        Scenario("S", initials={"TotalCost": -math.inf}),
        Scenario("S", params={"Dose": math.nan}),
        Scenario("S", events={"pickup": (math.inf, 10.0)}),
    ])
    def test_non_finite_value_rejected(self, scenario):
        with pytest.raises(ValueError, match="non-finite"):
            format_scenario(scenario)

    @pytest.mark.parametrize("scenario, name", [
        (Scenario("my scen", params={"k rate": 1.0}), "my scen"),
        (Scenario("S", params={"k rate": 1.0}), "k rate"),
        (Scenario("S", initials={"pond level": 1.0}), "pond level"),
        (Scenario("S", events={"pick-up": (10.0, 10.0)}), "pick-up"),
    ])
    def test_name_the_text_cannot_read_back_rejected(self, scenario, name):
        with pytest.raises(ValueError, match=f"'{name}'"):
            format_scenario(scenario)

    def test_unprintable_description_rejected(self):
        with pytest.raises(ValueError):
            format_scenario(Scenario("S", description='has "quotes"'))

    @pytest.mark.parametrize("schedule", [(None, 15.0), (None, None)])
    def test_reschedule_keeping_start_rejected(self, schedule):
        # "every 15" would read back with start 15, moving the first pickup.
        with pytest.raises(ValueError, match="pickup"):
            format_scenario(Scenario("S", events={"pickup": schedule}))

    def test_event_start_defaults_to_interval(self):
        sc = parse_scenario("scenario S { event pickup every 20 }")
        assert sc.events["pickup"] == (20.0, 20.0)

    def test_event_requires_every_or_start(self):
        with pytest.raises(ParseError):
            parse_scenario("scenario S { event pickup }")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_scenario("scenario S { tweak Dose = 1 }")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_scenario("scenario S { set Dose = 1 } junk")


class TestPolicySearch:
    GRID = PolicyGrid(
        intervals=(15.0, 30.0, 45.0),
        truck_capacities=(3000.0, 6000.0),
        truck_counts=(1.0, 2.0),
        sludge_limit_kg=6000.0,
    )

    def test_matches_brute_force_reference(self, baseline_spec, year_config):
        result = optimize_transport_policy(baseline_spec, self.GRID, year_config)
        _, expected = oracle.best_policy(
            self.GRID.intervals, self.GRID.truck_capacities,
            self.GRID.truck_counts, self.GRID.sludge_limit_kg,
        )
        ours = [
            (r.interval, r.truck_capacity_kg, r.trucks, r.feasible,
             r.total_cost, r.peak_sludge)
            for r in result.rows
        ]
        assert ours == expected

    def test_best_policy_values(self, baseline_spec, year_config):
        result = optimize_transport_policy(baseline_spec, self.GRID, year_config)
        best = result.best
        assert (best.interval, best.truck_capacity_kg, best.trucks) == (45.0, 6000.0, 1.0)
        assert best.total_cost == pytest.approx(9519084.748962697, rel=1e-12)
        assert best.peak_sludge == 4400.0
        assert best.feasible

    def test_csv_shape(self, baseline_spec, year_config):
        csv = optimize_transport_policy(baseline_spec, self.GRID, year_config).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "interval,truckKg,trucks,feasible,totalCost,peakSludge"
        assert len(lines) == 1 + 12
        assert lines[1].split(",")[3] == "1"

    def test_no_feasible_policy_raises(self, baseline_spec, year_config):
        grid = PolicyGrid(
            intervals=(30.0,), truck_capacities=(3000.0,), truck_counts=(1.0,),
            sludge_limit_kg=0.0,
        )
        with pytest.raises(NoFeasiblePolicyError):
            optimize_transport_policy(baseline_spec, grid, year_config)

    @pytest.mark.parametrize("axis", ["intervals", "truck_capacities", "truck_counts"])
    def test_empty_axis_rejected_before_any_run(self, baseline_spec, year_config,
                                                monkeypatch, axis):
        import sfdsim.scenarios

        def no_run(*args):
            raise AssertionError("simulated an empty grid")

        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", no_run)
        grid = dataclasses.replace(self.GRID, **{axis: ()})
        with pytest.raises(ValueError, match=axis):
            optimize_transport_policy(baseline_spec, grid, year_config)


    @pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf])
    def test_non_finite_sludge_limit_rejected_before_any_run(self, baseline_spec, year_config,
                                                             monkeypatch, limit):
        import sfdsim.scenarios

        def no_run(*args):
            raise AssertionError("simulated a grid with a non-finite limit")

        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", no_run)
        grid = dataclasses.replace(self.GRID, sludge_limit_kg=limit)
        with pytest.raises(ValueError, match="sludge limit must be finite"):
            optimize_transport_policy(baseline_spec, grid, year_config)


class TestCalibration:
    def test_recovers_evaporation_coefficient(self, baseline_spec, year_config):
        true_value = 0.004
        truth = run_simulation(baseline_spec, year_config)
        times = tuple(float(t) for t in range(200, 361, 20))
        observed = tuple(truth.at("AccumulatedVinasse", t) for t in times)
        problem = CalibrationProblem(
            param_names=("KEvap",),
            bounds=((0.001, 0.01),),
            column="AccumulatedVinasse",
            observed_times=times,
            observed_values=observed,
        )
        result = calibrate(baseline_spec, problem, year_config)
        assert abs(result.params["KEvap"] - true_value) / true_value <= 1e-3
        assert result.evaluations > 0

    def test_objective_never_worsens(self, baseline_spec, year_config):
        # SSE at the returned point must not exceed the starting center point.
        times = (100.0, 200.0, 300.0)
        truth = run_simulation(baseline_spec, year_config)
        observed = tuple(truth.at("AccumulatedVinasse", t) for t in times)
        problem = CalibrationProblem(
            ("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse", times, observed,
        )
        center = run_simulation(
            baseline_spec.with_params({"KEvap": 0.0055}), year_config,
        )
        center_sse = sum(
            (center.at("AccumulatedVinasse", t) - v) ** 2
            for t, v in zip(times, observed)
        )
        result = calibrate(baseline_spec, problem, year_config)
        assert result.sse <= center_sse

    def test_exact_convergence_with_tight_tolerance(self, baseline_spec, year_config):
        truth = run_simulation(baseline_spec, year_config)
        times = tuple(float(t) for t in range(180, 361, 20))
        observed = tuple(truth.at("AccumulatedVinasse", t) for t in times)
        problem = CalibrationProblem(
            ("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse", times, observed,
        )
        result = calibrate(baseline_spec, problem, year_config, tol=1e-12)
        assert result.sse <= 1e-10

    def test_no_free_parameters_scores_base_run(self, baseline_spec, year_config):
        truth = run_simulation(baseline_spec, year_config)
        times = (100.0, 200.0)
        observed = tuple(truth.at("AccumulatedVinasse", t) for t in times)
        problem = CalibrationProblem(
            (), (), "AccumulatedVinasse", times, observed,
        )
        result = calibrate(baseline_spec, problem, year_config)
        assert result.params == {}
        assert result.sse == 0.0

    def test_boundary_optimum_is_reachable(self, baseline_spec, year_config):
        # Observed zero sludge pins the yield coefficient to the lower bound;
        # a grid scan of the objective confirms the argmin sits there.
        times = tuple(float(t) for t in range(20, 201, 20))
        zeros = tuple(0.0 for _ in times)
        problem = CalibrationProblem(
            ("Sigma",), ((0.0, 1.0),), "AccumulatedSludge", times, zeros,
        )

        def sse_at(sigma):
            traj = run_simulation(
                baseline_spec.with_params({"Sigma": sigma}), year_config,
            )
            return sum(traj.at("AccumulatedSludge", t) ** 2 for t in times)

        scan = [sse_at(0.1 * k) for k in range(11)]
        assert min(range(11), key=scan.__getitem__) == 0

        result = calibrate(baseline_spec, problem, year_config)
        assert result.params["Sigma"] == pytest.approx(0.0, abs=1e-6)
        assert result.sse == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_problem_rejected(self, baseline_spec, year_config):
        with pytest.raises(ValueError):
            calibrate(
                baseline_spec,
                CalibrationProblem(("KEvap", "Alpha"), ((0.0, 1.0),), "x", (), ()),
                year_config,
            )
        with pytest.raises(ValueError):
            calibrate(
                baseline_spec,
                CalibrationProblem(("KEvap",), ((0.01, 0.01),), "x", (), ()),
                year_config,
            )

    @pytest.mark.parametrize("times, values, bounds", [
        ((10.0, 20.0, 30.0), (500.0, math.nan, 1500.0), (0.001, 0.01)),
        ((10.0, math.inf), (500.0, 900.0), (0.001, 0.01)),
        ((10.0,), (-math.inf,), (0.001, 0.01)),
        ((10.0,), (500.0,), (math.nan, 0.01)),
        ((10.0,), (500.0,), (0.001, math.inf)),
    ])
    def test_non_finite_problem_rejected_before_any_run(self, baseline_spec, year_config,
                                                        monkeypatch, times, values, bounds):
        import sfdsim.scenarios

        def no_run(*args):
            raise AssertionError("calibrate ran a simulation")

        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", no_run)
        problem = CalibrationProblem(("KEvap",), (bounds,), "AccumulatedVinasse", times, values)
        with pytest.raises(ValueError, match="finite"):
            calibrate(baseline_spec, problem, year_config)

    def test_repeated_parameter_rejected_before_any_run(self, baseline_spec, year_config,
                                                         monkeypatch):
        # Otherwise the first KEvap and its bounds are silently ignored.
        import sfdsim.scenarios

        def no_run(*args):
            raise AssertionError("calibrate ran a simulation")

        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", no_run)
        problem = CalibrationProblem(("KEvap", "Alpha", "KEvap"),
                                     ((0.001, 0.01), (0.5, 1.5), (0.002, 0.02)),
                                     "AccumulatedVinasse", (10.0,), (500.0,))
        with pytest.raises(ValueError, match="parameter 'KEvap' is named twice"):
            calibrate(baseline_spec, problem, year_config)


def reference_calibrate(spec, problem, config, tol=1e-6, max_passes=200):
    """The coordinate pattern search as `calibrate` ran it before it kept
    the SSE of the points it had tried: every point tried is run. Returns
    the `CalibrationResult` fields as a tuple, and the points run."""
    points = []

    def objective(point):
        points.append(tuple(point))
        traj = run_simulation(spec.with_params(dict(zip(problem.param_names, point))), config)
        sse = 0.0
        for t_obs, v_obs in zip(problem.observed_times, problem.observed_values):
            err = traj.at(problem.column, t_obs) - v_obs
            sse += err * err
        return sse

    ranges = [hi - lo for lo, hi in problem.bounds]
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
    result = (dict(zip(problem.param_names, point)), best, passes, len(points))
    return result, points


FIT = parse_model("""model Fit {
    param Rate = 0.3
    param Gain = 1.5
    stock Tank = 10
    flow fill : -> Tank = Gain * (1 + Rate * Rate)
    flow drain : Tank -> = 0.1 * Tank
  }""")
FIT_CONFIG = SimConfig(t_end=20.0, method="euler")


def calibration_case(case):
    """A spec, a problem on it and a config: AC6 for "ac6", two parameters
    of `FIT` for "two", else `FIT`'s Rate within the bounds `case`, fitted
    to a run at Rate 0."""
    if case == "ac6":
        spec, config, truth = build_baseline(), SimConfig(t_end=365.0), {}
        names, bounds, column = ("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse"
        times = tuple(float(t) for t in range(180, 361, 20))
    else:
        spec, config, column, times = FIT, FIT_CONFIG, "Tank", (5.0, 10.0, 15.0, 20.0)
        if case == "two":
            names, bounds, truth = ("Rate", "Gain"), ((-1.0, 1.0), (0, 4)), {"Gain": 2.5}
        else:
            names, bounds, truth = ("Rate",), (case,), {"Rate": 0.0}
    run = run_simulation(spec.with_params(truth), config)
    observed = tuple(run.at(column, t) for t in times)
    return spec, CalibrationProblem(names, bounds, column, times, observed), config


class TestCalibrationRunsDistinctPoints:
    """`calibrate` runs each distinct point once, as the float.hex of its
    coordinates, and returns what the search that runs every point does."""

    @pytest.mark.parametrize("case", ["ac6", "two", (-1.0, 1.0), (-0.0, 1.0), (0.0, 1.0),
                                      (-1.0, -0.0), (-1.0, 0.0)])
    @pytest.mark.parametrize("max_passes", [2, 200])
    def test_one_run_per_distinct_point(self, case, max_passes, monkeypatch):
        import sfdsim.scenarios

        spec, problem, config = calibration_case(case)
        runs = []
        original = sfdsim.scenarios.run_simulation

        def counted(model, cfg):
            runs.append(tuple(model.param(name).hex() for name in problem.param_names))
            return original(model, cfg)

        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", counted)
        result = calibrate(spec, problem, config, max_passes=max_passes)
        expected, points = reference_calibrate(spec, problem, config, max_passes=max_passes)
        got = (result.params, result.sse, result.passes, result.evaluations)
        assert hexed(got) == hexed(expected)
        assert [type(v) for v in result.params.values()] == [type(v) for v in expected[0].values()]
        keys = [tuple(float(v).hex() for v in point) for point in points]
        assert len(runs) == len(set(runs))
        assert set(runs) == set(keys)
        if case in ("ac6", "two"):
            assert len(runs) < len(points)  # the search stepped back to a point

    def test_zeros_take_the_sign_of_their_bound(self):
        # The clamp gives a zero the sign its bounds fix, so a search never
        # meets both zeros of one coordinate; each case runs one of them.
        for bounds, zero in (((-0.0, 1.0), "-0x0.0p+0"), ((-1.0, -0.0), "-0x0.0p+0"),
                             ((-1.0, 1.0), "0x0.0p+0"), ((0.0, 1.0), "0x0.0p+0")):
            spec, problem, config = calibration_case(bounds)
            _, points = reference_calibrate(spec, problem, config)
            assert {point[0].hex() for point in points if point[0] == 0} == {zero}


class TestSweep:
    VALUES = (0.0, 5.0, 10.0, 20.0, 40.0)

    def test_rows_follow_input_order(self, baseline_spec, year_config):
        result = run_sweep(baseline_spec, "Dose", self.VALUES, year_config)
        assert result.param == "Dose"
        assert tuple(r.value for r in result.rows) == self.VALUES

    def test_single_value_equals_direct_run(self, baseline_spec, year_config):
        from sfdsim import summarize

        result = run_sweep(baseline_spec, "Dose", (10.0,), year_config)
        direct = summarize(run_simulation(
            baseline_spec.with_params({"Dose": 10.0}), year_config,
        ))
        row = result.rows[0]
        assert row.total_cost == direct["total_cost"]
        assert row.peak_sludge == direct["peak_sludge_kg"]
        assert row.saturation_day == direct["saturation_day"]
        assert row.final_vinasse == direct["final_vinasse_m3"]
        assert row.final_sludge == direct["final_sludge_kg"]

    def test_rows_equal_separate_runs(self, baseline_spec, year_config):
        from sfdsim import summarize

        result = run_sweep(baseline_spec, "Dose", self.VALUES, year_config)
        assert [r.value for r in result.rows] == list(self.VALUES)
        for row, value in zip(result.rows, self.VALUES):
            direct = summarize(run_simulation(
                baseline_spec.with_params({"Dose": value}), year_config,
            ))
            assert (row.total_cost, row.peak_sludge, row.saturation_day,
                    row.final_vinasse, row.final_sludge) == (
                direct["total_cost"], direct["peak_sludge_kg"], direct["saturation_day"],
                direct["final_vinasse_m3"], direct["final_sludge_kg"])

    def test_csv_blank_field_when_never_saturating(self, baseline_spec, year_config):
        result = run_sweep(baseline_spec, "KEvap", (0.05,), year_config)
        assert result.rows[0].saturation_day is None
        line = result.to_csv().strip().split("\n")[1]
        assert line.split(",")[3] == ""


@pytest.fixture
def runs(monkeypatch):
    """The arguments of every run a study makes."""
    calls = []
    original = sfdsim.scenarios.run_simulation
    monkeypatch.setattr(sfdsim.scenarios, "run_simulation",
                        lambda *args: calls.append(args) or original(*args))
    return calls


class TestOutOfRangeValues:
    """Each study checks every value it will set against its parameter's
    range before its first run, wherever the value is among the others."""

    @pytest.mark.parametrize("study, field", [
        ("grid-capacity", "TruckCapacityKg"),
        ("grid-count", "TrucksPerPickup"),
        ("sweep-dose", "Dose"),
        ("sweep-area", "PondArea"),
        ("fit-low-bound", "KEvap"),
        ("fit-second-parameter", "Sigma"),
    ])
    def test_rejected_before_the_first_run(self, study, field, baseline_spec, runs):
        config = SimConfig(t_end=30.0)
        grid = dict(intervals=(15.0, 30.0), truck_capacities=(3000.0,), truck_counts=(1.0,))
        observed = dict(column="AccumulatedVinasse", observed_times=(10.0,),
                        observed_values=(1.0,))
        run = {
            "grid-capacity": lambda: optimize_transport_policy(baseline_spec, PolicyGrid(
                **{**grid, "truck_capacities": (3000.0, -3000.0)}), config),
            "grid-count": lambda: optimize_transport_policy(baseline_spec, PolicyGrid(
                **{**grid, "truck_counts": (1.0, 0.0)}), config),
            "sweep-dose": lambda: run_sweep(baseline_spec, "Dose", (0.0, 10.0, -30.0), config),
            "sweep-area": lambda: run_sweep(baseline_spec, "PondArea", (5000.0, -5000.0),
                                            config),
            "fit-low-bound": lambda: calibrate(baseline_spec, CalibrationProblem(
                ("KEvap",), ((0.0, 0.01),), **observed), config),
            "fit-second-parameter": lambda: calibrate(baseline_spec, CalibrationProblem(
                ("KEvap", "Sigma"), ((0.001, 0.01), (-1.0, 1.0)), **observed), config),
        }[study]
        with pytest.raises(InvalidParameterError) as err:
            run()
        assert err.value.field == field
        assert runs == []

    def test_unknown_sweep_parameter_rejected_before_the_first_run(self, baseline_spec,
                                                                   monkeypatch):
        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", None)  # a run would raise
        with pytest.raises(UnknownSymbolError, match="no parameter named 'Nope'"):
            run_sweep(baseline_spec, "Nope", (1.0,), SimConfig(t_end=30.0))

    @pytest.mark.parametrize("interval, error, message", [
        (-5.0, ModelError, "event 'pickup' has a negative schedule"),
        (math.nan, ModelError, "event 'pickup' has a non-finite schedule"),
        (7.5, EventGridError, "event 'pickup' start 7.5 is off the dt=1 grid"),
    ])
    def test_bad_interval_rejected_before_the_first_run(self, interval, error, message,
                                                         baseline_spec, runs):
        grid = PolicyGrid(intervals=(30.0, interval), truck_capacities=(6000.0,),
                          truck_counts=(1.0,))
        with pytest.raises(error) as err:
            optimize_transport_policy(baseline_spec, grid, SimConfig(t_end=30.0))
        assert str(err.value) == message
        assert runs == []

    @pytest.mark.parametrize("override, error", [
        (dict(params={"Dose": -30.0}), InvalidParameterError),
        (dict(params={"Nope": 1.0}), UnknownSymbolError),
        (dict(initials={"AccumulatedSludge": math.nan}), ModelError),
    ])
    def test_bad_scenario_rejected_before_the_baseline_run(self, override, error,
                                                            baseline_spec, runs):
        good = parse_scenario("scenario Good { set Dose = 10 }")
        bad = Scenario("Bad", **override)
        with pytest.raises(error):
            compare_to_baseline(baseline_spec, [good, bad], SimConfig(t_end=30.0))
        assert runs == []

    @pytest.mark.parametrize("events, message", [
        ({"pickup": (None, 7.5)}, "event 'pickup' interval 7.5 is off the dt=1 grid"),
        ({"pickup": (2.5, None)}, "event 'pickup' start 2.5 is off the dt=1 grid"),
    ])
    def test_off_grid_scenario_rejected_before_the_baseline_run(self, events, message,
                                                                 baseline_spec, runs):
        # The scenario's schedule is valid, but off the step grid: the
        # variant's run would raise, after the baseline's.
        good = parse_scenario("scenario Good { set Dose = 10 }")
        with pytest.raises(EventGridError) as err:
            compare_to_baseline(baseline_spec, [good, Scenario("x", events=events)],
                                SimConfig())
        assert str(err.value) == message
        assert runs == []

    @pytest.mark.parametrize("column, times, every", [
        ("AccumulatedVinasse", (10.0, 10.5), 1),
        ("AccumulatedVinasse", (10.0, 31.0), 1),
        ("AccumulatedVinasse", (14.0, 10.0), 7),
        ("NoSuchColumn", (10.0,), 1),
    ])
    def test_bad_observation_rejected_before_the_first_run(self, column, times, every,
                                                           baseline_spec, runs):
        # With the KeyError that reading the run would raise: the message
        # of `Trajectory.at` for the first bad time, or for the column.
        config = SimConfig(t_end=30.0, record_every=every)
        traj = run_simulation(baseline_spec, config)
        with pytest.raises(KeyError) as expected:
            for t in times:
                traj.at(column, t)
        problem = CalibrationProblem(("KEvap",), ((0.001, 0.01),), column, times,
                                     (1.0,) * len(times))
        with pytest.raises(NotRecordedError) as err:
            calibrate(baseline_spec, problem, config)
        assert err.value.args == expected.value.args
        assert type(expected.value) is NotRecordedError
        assert runs == []

    def test_observations_on_the_grid_run(self, baseline_spec, runs):
        problem = CalibrationProblem(("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse",
                                     (0.0, 14.0, 30.0 + 1e-10), (1.0, 2.0, 3.0))
        fit = calibrate(baseline_spec, problem, SimConfig(t_end=30.0, record_every=7),
                        max_passes=1)
        assert 0 < len(runs) <= fit.evaluations and math.isfinite(fit.sse)

    def test_good_scenarios_each_run_once(self, baseline_spec, runs):
        good = parse_scenario("scenario Good { set Dose = 10 }")
        results = compare_to_baseline(baseline_spec, [good], SimConfig(t_end=30.0))
        assert [r.name for r in results] == ["baseline", "Good"]
        assert [args[0].param("Dose") for args in runs] == [baseline_spec.param("Dose"), 10.0]


ONE_STOCK = """model One {
  param K = 0.1 [1/day] > 0
  stock Tank = 10 [kg]
  flow drain : Tank -> = K * Tank [kg/day]
}
"""

# Each name a study reads of the plant model, and the studies that need it.
COMPARE, SWEEP, POLICY, CALIBRATION = ("scenario comparison", "sweep", "policy search",
                                       "calibration")
PLANT_READS = [
    ("column", "TotalCost", (COMPARE, SWEEP, POLICY)),
    ("column", "vinasseInflow", (COMPARE, SWEEP)),
    ("column", "vinasseSupply", (COMPARE, SWEEP)),
    ("column", "AccumulatedVinasse", (COMPARE, SWEEP)),
    ("column", "AccumulatedSludge", (COMPARE, SWEEP, POLICY)),
    ("column", "marginalCost", (COMPARE, SWEEP)),
    ("parameter", "CostThreshold", (POLICY,)),
    ("parameter", "TruckCapacityKg", (POLICY,)),
    ("parameter", "TrucksPerPickup", (POLICY,)),
    ("event", "pickup", (POLICY,)),
]
# Read with a default: the cost-flow integrals, and CostThreshold outside
# the policy search.
OPTIONAL = ("operatingCostRate", "coagulantCostRate", "capexAmortizationRate")


def renamed_baseline(*names):
    """The baseline model with each of `names` renamed wherever it occurs."""
    text = (resources.files("sfdsim") / "fixtures" / "baseline.sfd").read_text()
    for name in names:
        text = re.sub(rf"\b{name}\b", f"{name}Renamed", text)
    return parse_model(text)


def run_study(study, spec, param, config=SimConfig(t_end=30.0)):
    """`study` on `spec`, setting parameter `param` where it sets one."""
    value = spec.param(param)
    if study == COMPARE:
        return compare_to_baseline(spec, [Scenario("More", params={param: value + 1.0})], config)
    if study == SWEEP:
        return run_sweep(spec, param, (value, value + 1.0), config)
    if study == POLICY:
        return optimize_transport_policy(spec, PolicyGrid(
            intervals=(15.0,), truck_capacities=(6000.0,), truck_counts=(2.0,)), config)
    return calibrate(spec, CalibrationProblem(
        (param,), ((value, value + 1.0),), spec.stocks[0].name, (10.0,), (1.0,)), config,
        max_passes=1)


class TestStudyChecks:
    """Before its first run, each study checks that the model defines the
    plant names it reads, and checks its runs as `validate_model` would."""

    def test_the_table_lists_what_the_studies_read(self):
        needed = {study: {(kind, name) for kind, name, readers in PLANT_READS
                          if study in readers} for study in (COMPARE, POLICY)}
        assert set(STUDY_READS["summary"]) == needed[COMPARE]
        assert set(STUDY_READS["policy"]) == needed[POLICY]
        assert {name for _, name in STUDY_READS["optional"]} == {*OPTIONAL, "CostThreshold"}

    @pytest.mark.parametrize("study, message", [
        (COMPARE, "scenario comparison needs column 'TotalCost'"),
        (SWEEP, "sweep needs column 'TotalCost'"),
        (POLICY, "policy search needs parameter 'CostThreshold'"),
    ])
    def test_a_one_stock_model_fails_with_no_run(self, study, message, runs):
        with pytest.raises(UnknownSymbolError) as err:
            run_study(study, parse_model(ONE_STOCK), "K")
        assert str(err.value) == message
        assert runs == []

    @pytest.mark.parametrize("kind, name, readers", PLANT_READS)
    def test_each_renamed_name_fails_the_studies_that_read_it(self, kind, name, readers,
                                                              runs):
        spec = renamed_baseline(name)
        for study in readers:
            with pytest.raises(UnknownSymbolError) as err:
                run_study(study, spec, "Dose")
            assert str(err.value) == f"{study} needs {kind} '{name}'"
        assert runs == []

    @pytest.mark.parametrize("study", [COMPARE, SWEEP, POLICY, CALIBRATION])
    def test_a_model_without_the_optional_names_runs_every_study(self, study):
        # The policy search needs CostThreshold; the others read it with a default.
        spec = renamed_baseline(*OPTIONAL, *(() if study == POLICY else ("CostThreshold",)))
        assert run_study(study, spec, "Dose")

    @pytest.mark.parametrize("study, checked", [
        (COMPARE, ["Dose", "KEvap", "Dose"]),
        (SWEEP, ["Dose"] * 3),
        (POLICY, ["TruckCapacityKg", "TrucksPerPickup"] * 4),
        (CALIBRATION, ["KEvap", "Sigma"] * 2),
    ])
    def test_the_check_validates_once_and_checks_each_changed_value_once(
            self, study, checked, baseline_spec, monkeypatch):
        validate_model(baseline_spec)
        validated, checks = [], []
        validate, check = sfdsim.scenarios.validate_model, sfdsim.model.ParamDef.check
        monkeypatch.setattr(sfdsim.scenarios, "validate_model",
                            lambda spec: validated.append(spec) or validate(spec))
        monkeypatch.setattr(sfdsim.model.ParamDef, "check",
                            lambda p, value: checks.append(p.name) or check(p, value))

        class FirstRun(Exception):
            pass

        def first_run(*args):
            raise FirstRun

        monkeypatch.setattr(sfdsim.scenarios, "run_simulation", first_run)
        config = SimConfig(t_end=30.0)
        with pytest.raises(FirstRun):
            if study == COMPARE:
                compare_to_baseline(baseline_spec, [
                    Scenario("A", params={"Dose": 10.0}),
                    Scenario("B", params={"Dose": 20.0, "KEvap": 0.005})], config)
            elif study == SWEEP:
                run_sweep(baseline_spec, "Dose", (1.0, 2.0, 3.0), config)
            elif study == POLICY:
                optimize_transport_policy(baseline_spec, PolicyGrid(
                    intervals=(15.0, 30.0), truck_capacities=(3000.0, 6000.0),
                    truck_counts=(1.0,)), config)
            else:
                calibrate(baseline_spec, CalibrationProblem(
                    ("KEvap", "Sigma"), ((0.001, 0.01), (0.5, 1.5)), "AccumulatedVinasse",
                    (10.0,), (1.0,)), config)
        assert validated == [baseline_spec]
        assert checks == checked


def hexed(value):
    """`value` with every float as its hex text, through dataclasses,
    trajectories and containers, so `==` compares bits."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if hasattr(value, "rows") and hasattr(value, "row_times"):
        return hexed([value.row_times, value.rows, value.events])
    if dataclasses.is_dataclass(value):
        return hexed({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    return value


class TestValidateOnce:
    """Grid points, sweep values, calibration evaluations and scenarios are
    variants of one structure: a study walks its expressions once."""

    @pytest.fixture
    def one_structure(self, baseline_spec, walks):
        """The expressions a validation of the baseline walks. No structure
        is remembered afterwards."""
        validate_model(baseline_spec)
        once = list(walks)
        assert once
        walks.clear()
        sfdsim.model._last = None
        return once

    def test_policy_grid(self, baseline_spec, year_config, one_structure, walks):
        result = optimize_transport_policy(baseline_spec, TestPolicySearch.GRID, year_config)
        assert len(result.rows) == 12
        assert walks == one_structure

    def test_sweep(self, baseline_spec, year_config, one_structure, walks):
        run_sweep(baseline_spec, "Dose", (0.0, 10.0, 20.0), year_config)
        assert walks == one_structure

    def test_calibration(self, baseline_spec, year_config, one_structure, walks):
        truth = run_simulation(baseline_spec, year_config)
        times = (100.0, 200.0, 300.0)
        walks.clear()
        sfdsim.model._last = None
        problem = CalibrationProblem(
            ("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse", times,
            tuple(truth.at("AccumulatedVinasse", t) for t in times),
        )
        result = calibrate(baseline_spec, problem, year_config, max_passes=3)
        assert result.evaluations > 3
        assert walks == one_structure

    def test_scenario_comparison(self, baseline_spec, year_config, fixtures_dir, one_structure,
                                 walks):
        scenarios = [parse_scenario(path.read_text())
                     for path in sorted(fixtures_dir.glob("*.scn"))]
        assert all(not sc.initials for sc in scenarios)
        scenarios.append(parse_scenario("scenario Seeded { initial AccumulatedSludge = 500 }"))
        results = compare_to_baseline(baseline_spec, scenarios, year_config)
        assert walks == one_structure
        assert results[-1].trajectory.at("AccumulatedSludge", 0.0) == 500.0

        def bits(traj):
            return ([float.hex(t) for t in traj.row_times],
                    [[float.hex(v) for v in row] for row in traj.rows], traj.events)

        for result, sc in zip(results, [Scenario("baseline"), *scenarios], strict=True):
            alone = run_simulation(apply_scenario(baseline_spec, sc), year_config)
            assert bits(result.trajectory) == bits(alone)

    @pytest.mark.parametrize("entry", ["run", "compare", "policy", "sweep", "calibrate"])
    def test_validated_model_input(self, entry, baseline_spec, monkeypatch):
        """A `ValidatedModel` is not an input: a run and each study fail on
        it before any run, with an error that names it. Pass its `spec`."""
        config = SimConfig(t_end=30.0)
        problem = CalibrationProblem(("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse",
                                     (10.0,), (1.0,))
        grid = PolicyGrid(intervals=(15.0,), truck_capacities=(6000.0,), truck_counts=(1.0,))
        run = {
            "run": lambda m: run_simulation(m, config),
            "compare": lambda m: compare_to_baseline(
                m, [Scenario("dosed", params={"Dose": 20.0})], config),
            "policy": lambda m: optimize_transport_policy(m, grid, config),
            "sweep": lambda m: run_sweep(m, "Dose", (0.0, 15.0), config),
            "calibrate": lambda m: calibrate(m, problem, config, max_passes=3),
        }[entry]
        loops, runs = [], []
        segment = engine._segment
        monkeypatch.setattr(engine, "_segment", lambda *key: loops.append(key) or segment(*key))
        monkeypatch.setattr(sfdsim.scenarios, "run_simulation",
                            lambda *args: runs.append(run_simulation(*args)) or runs[-1])
        with pytest.raises(AttributeError, match="'ValidatedModel' object"):
            run(validate_model(baseline_spec))
        assert loops == [] and runs == []
        run(baseline_spec)
        assert loops and (runs or entry == "run")
