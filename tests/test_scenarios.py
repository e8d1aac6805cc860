"""Scenario overrides, policy search, calibration, and sweeps."""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest

from sfdsim import (
    CalibrationProblem,
    NoFeasiblePolicyError,
    ParseError,
    PolicyGrid,
    Scenario,
    SimConfig,
    UnknownSymbolError,
    apply_scenario,
    apply_scenarios,
    build_baseline,
    calibrate,
    compare_to_baseline,
    format_scenario,
    optimize_transport_policy,
    parse_scenario,
    run_simulation,
    run_sweep,
    validate_model,
)

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

    def test_stacking_later_wins(self, baseline_spec):
        first = Scenario("a", params={"Dose": 10.0, "KEvap": 0.005})
        second = Scenario("b", params={"Dose": 20.0})
        out = apply_scenarios(baseline_spec, [first, second])
        assert out.param("Dose") == 20.0
        assert out.param("KEvap") == 0.005

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
    """Grid points, sweep values and calibration evaluations are variants
    of one validated model."""

    @pytest.fixture
    def validations(self, monkeypatch):
        # The engine and the scenario layer validate a spec through
        # `model.as_validated` only, so counting the calls there sees all.
        import sfdsim.engine
        import sfdsim.model
        import sfdsim.scenarios

        assert not hasattr(sfdsim.engine, "validate_model")
        assert not hasattr(sfdsim.scenarios, "validate_model")
        calls = []
        original = sfdsim.model.validate_model

        def counted(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(sfdsim.model, "validate_model", counted)
        return calls

    def test_policy_grid(self, baseline_spec, year_config, validations):
        result = optimize_transport_policy(baseline_spec, TestPolicySearch.GRID, year_config)
        assert len(result.rows) == 12
        assert validations == [baseline_spec]

    def test_sweep(self, baseline_spec, year_config, validations):
        run_sweep(baseline_spec, "Dose", (0.0, 10.0, 20.0), year_config)
        assert validations == [baseline_spec]

    def test_calibration(self, baseline_spec, year_config, validations):
        truth = run_simulation(baseline_spec, year_config)
        times = (100.0, 200.0, 300.0)
        validations.clear()
        problem = CalibrationProblem(
            ("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse", times,
            tuple(truth.at("AccumulatedVinasse", t) for t in times),
        )
        result = calibrate(baseline_spec, problem, year_config, max_passes=3)
        assert result.evaluations > 3
        assert validations == [baseline_spec]

    def test_scenario_comparison(self, baseline_spec, year_config, fixtures_dir, validations):
        scenarios = [parse_scenario(path.read_text())
                     for path in sorted(fixtures_dir.glob("*.scn"))]
        assert all(not sc.initials for sc in scenarios)
        scenarios.append(parse_scenario("scenario Seeded { initial AccumulatedSludge = 500 }"))
        results = compare_to_baseline(baseline_spec, scenarios, year_config)
        assert validations == [baseline_spec]
        assert results[-1].trajectory.at("AccumulatedSludge", 0.0) == 500.0

        def bits(traj):
            return ([float.hex(t) for t in traj.row_times],
                    [[float.hex(v) for v in row] for row in traj.rows], traj.events)

        for result, sc in zip(results, [Scenario("baseline"), *scenarios], strict=True):
            alone = run_simulation(apply_scenario(baseline_spec, sc), year_config)
            assert bits(result.trajectory) == bits(alone)

    @pytest.mark.parametrize("entry", ["compare", "policy", "sweep", "calibrate"])
    def test_validated_model_input(self, entry, baseline_spec, validations):
        config = SimConfig(t_end=120.0)
        truth = run_simulation(baseline_spec.with_params({"KEvap": 0.004}), config)
        times = (40.0, 80.0, 120.0)
        problem = CalibrationProblem(
            ("KEvap",), ((0.001, 0.01),), "AccumulatedVinasse", times,
            tuple(truth.at("AccumulatedVinasse", t) for t in times),
        )
        grid = PolicyGrid(intervals=(15.0, 30.0), truck_capacities=(6000.0,),
                          truck_counts=(1.0, 2.0))
        run = {
            "compare": lambda m: compare_to_baseline(
                m, [Scenario("dosed", params={"Dose": 20.0})], config),
            "policy": lambda m: optimize_transport_policy(m, grid, config),
            "sweep": lambda m: run_sweep(m, "Dose", (0.0, 15.0), config),
            "calibrate": lambda m: calibrate(m, problem, config, max_passes=3),
        }[entry]
        validations.clear()
        vm = validate_model(baseline_spec)
        from_model = hexed(run(vm))
        assert validations == []
        assert from_model == hexed(run(baseline_spec))
        assert validations == [baseline_spec]
