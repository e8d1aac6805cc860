"""Treatment plant model: structure, dynamics, and cost accounting."""

from __future__ import annotations

import dataclasses
import fnmatch
import inspect
import math
from pathlib import Path

import pytest

from sfdsim import (
    EventRecord,
    InvalidParameterError,
    ModelError,
    NonFiniteError,
    SimConfig,
    UnknownSymbolError,
    apply_scenario,
    build_baseline,
    cost_breakdown,
    parse_model,
    parse_scenario,
    peak_sludge,
    pickup_summary,
    run_simulation,
    saturation_time,
    summarize,
    temperature,
    validate_model,
)

import vinasse_oracle as oracle
from modelgen import unbounded


@pytest.fixture(scope="module")
def baseline_run(baseline_spec):
    return run_simulation(baseline_spec, SimConfig(t_end=365.0))


@pytest.fixture(scope="module")
def oracle_run():
    return oracle.run_days({}, days=365)


class TestAgainstReference:
    """The engine must replicate a day-by-day hand-rolled loop exactly."""

    @pytest.mark.parametrize(
        "column",
        ["AccumulatedVinasse", "AccumulatedSludge", "TotalCost", "vinasseInflow"],
    )
    def test_yearlong_trajectories_match_bitwise(self, baseline_run, oracle_run, column):
        ours = baseline_run.series(column)
        theirs = oracle_run["series"][column]
        assert len(ours) == len(theirs)
        assert all(a == b for a, b in zip(ours, theirs))

    def test_final_values(self, baseline_run):
        assert baseline_run.final("AccumulatedVinasse") == pytest.approx(17980.053673, abs=1e-6)
        assert baseline_run.final("AccumulatedSludge") == pytest.approx(98.180701, abs=1e-6)
        assert baseline_run.final("TotalCost") == pytest.approx(9719084.748963, abs=1e-6)


class TestDynamics:
    def test_saturation_day(self, baseline_run):
        assert saturation_time(baseline_run) == 232.0

    def test_capacity_never_exceeded(self, baseline_run):
        cap = baseline_run.parameters["TotalCapacity"]
        assert max(baseline_run.series("AccumulatedVinasse")) <= cap

    def test_sludge_sawtooth(self, baseline_run):
        sludge = baseline_run.series("AccumulatedSludge")
        # Rows land on integer days; pickups empty the stock on schedule.
        assert sludge[29] == 2900.0
        assert sludge[30] == 0.0
        assert sludge[31] == 100.0
        assert sludge[60] == 0.0

    def test_peak_sludge(self, baseline_run):
        assert peak_sludge(baseline_run) == 2900.0

    def test_twelve_pickups_in_a_year(self, baseline_run):
        count, removed = pickup_summary(baseline_run)
        assert count == 12
        assert removed == sum(
            e.amount for e in baseline_run.events if e.target == "AccumulatedSludge"
        )

    def test_dose_at_half_saturation_boosts_sludge_by_forty_percent(self):
        spec = build_baseline().with_params({"Dose": 20.0})
        traj = run_simulation(spec, SimConfig(t_end=10.0))
        assert traj.series("sludgeProductionRate")[1] == pytest.approx(140.0, rel=1e-12)

    def test_supply_rate(self, baseline_run):
        # 8000 L/day of ethanol at 12.5 L vinasse per L is 100 m3/day.
        assert baseline_run.series("vinasseSupply")[0] == 100.0

    def test_doubled_production_with_strong_evaporation_saturates_earlier(self):
        spec = build_baseline().with_params(
            {"EthanolProduction": 16000.0, "KEvap": 0.01, "Alpha": 0.0, "Sigma": 0.0},
        )
        traj = run_simulation(spec, SimConfig(t_end=365.0))
        assert saturation_time(traj) == 119.0

    def test_vinasse_mass_balance(self, baseline_run):
        integrals = baseline_run.flow_integrals
        net = (integrals["vinasseInflow"] - integrals["evaporationOutflow"]
               - integrals["sludgeSettlingOutflow"])
        assert net == pytest.approx(baseline_run.final("AccumulatedVinasse"), rel=1e-9)


class TestTemperature:
    def test_mean_at_year_start(self):
        assert temperature(0.0) == 16.0

    def test_peak_at_quarter_period(self):
        assert temperature(91.25) == pytest.approx(22.0, abs=1e-9)

    def test_omitted_model_is_the_baseline(self, baseline_spec):
        assert temperature(91.25) == temperature(91.25, baseline_spec)

    def test_noise_constant_within_a_day(self):
        flat = build_baseline().with_params({"TAmp": 0.0, "NoiseStdDev": 2.0})
        assert temperature(3.2, flat, seed=7) == temperature(3.9, flat, seed=7)
        assert temperature(3.9, flat, seed=7) != temperature(4.1, flat, seed=7)

    def test_matches_model_auxiliary_bitwise(self):
        spec = build_baseline().with_params({"NoiseStdDev": 1.5})
        traj = run_simulation(spec, SimConfig(t_end=30.0, seed=7))
        assert all(
            value == temperature(t, spec, seed=7)
            for t, value in zip(traj.row_times, traj.series("temperature"))
        )

    @pytest.mark.parametrize("overrides, config", [
        ({"TAmp": -4.0, "NoiseStdDev": 0.5}, SimConfig(t_end=30.0, seed=3)),
        ({"TMean": 0.0, "TAmp": 0.0}, SimConfig(t_end=30.0, seed=7)),
        ({"TPhase": 40.5, "NoiseStdDev": 1.5}, SimConfig(t_end=30.0, seed=11)),
        ({"TMean": 20.0, "NoiseStdDev": 2.0},
         SimConfig(t_end=30.0, dt=0.5, method="rk4", seed=5)),
    ], ids=["negative-amplitude", "zero-noise", "phase", "rk4-half-days"])
    def test_profiles_match_model_auxiliary_bitwise(self, overrides, config):
        # On the baseline without its bounds: a negative amplitude is outside TAmp's.
        spec = unbounded(build_baseline()).with_params(overrides)
        traj = run_simulation(spec, config)
        assert len(traj.row_times) == 1 + round(config.t_end / config.dt)
        assert [float.hex(value) for value in traj.series("temperature")] == [
            float.hex(temperature(t, spec, seed=config.seed)) for t in traj.row_times
        ]

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("noise", [0.0, 1.5])
    def test_non_finite_time_is_named(self, t, noise):
        with pytest.raises(NonFiniteError) as err:
            temperature(t, build_baseline().with_params({"NoiseStdDev": noise}))
        assert err.value.name == "temperature"

    def test_non_finite_profile_value_is_rejected(self):
        with pytest.raises(ModelError, match="TAmp"):
            temperature(1.0, build_baseline().with_params({"TAmp": math.inf}))

    def test_out_of_range_profile_value_is_rejected(self):
        with pytest.raises(InvalidParameterError) as err:
            temperature(1.0, build_baseline().with_params({"TAmp": -4.0}))
        assert err.value.field == "TAmp"


class TestCosts:
    def test_breakdown_sums_to_total(self, baseline_run):
        report = cost_breakdown(baseline_run)
        total = report.operating + report.coagulant + report.capex + report.transport
        assert total == pytest.approx(baseline_run.final("TotalCost"), rel=1e-9)

    def test_first_pickup_costs_one_trip(self, baseline_run):
        first = [e for e in baseline_run.events if e.target == "TotalCost"][0]
        assert first.t == 30.0
        assert first.amount == 80000.0

    def test_transport_only_model(self):
        spec = build_baseline().with_params(
            {"OpCostPerM3Day": 0.0, "CoagulantUnitCost": 0.0, "CapexPerM3": 0.0},
        )
        traj = run_simulation(spec, SimConfig(t_end=120.0))
        assert traj.final("TotalCost") == 320000.0

    def test_capacity_expansion_amortizes_capex(self):
        spec = build_baseline().with_params({"TotalCapacity": 27000.0})
        traj = run_simulation(spec, SimConfig(t_end=365.0))
        assert saturation_time(traj) == 338.0
        assert traj.final("TotalCost") == pytest.approx(12129860.81, abs=0.01)

    def test_marginal_cost_guard_at_zero_volume(self):
        spec = build_baseline().with_initial({"AccumulatedVinasse": 0.0})
        traj = run_simulation(spec, SimConfig(t_end=0.0))
        assert traj.series("marginalCost")[0] == 0.0

    def test_budget_threshold_not_crossed_at_baseline(self, baseline_run):
        assert cost_breakdown(baseline_run).threshold_cross_day is None

    def test_budget_threshold_crossing_day(self):
        spec = build_baseline().with_params({"CostThreshold": 1e6})
        traj = run_simulation(spec, SimConfig(t_end=365.0))
        crossed = [t for t, c in zip(traj.row_times, traj.series("TotalCost")) if c > 1e6]
        assert cost_breakdown(traj).threshold_cross_day == crossed[0] == 100.0

    def test_reports_are_python_floats(self):
        spec = build_baseline().with_params({"CostThreshold": 1e6})
        traj = run_simulation(spec, SimConfig(t_end=365.0))
        assert type(cost_breakdown(traj).threshold_cross_day) is float
        assert type(saturation_time(traj)) is float
        assert type(traj.final("TotalCost")) is float
        assert type(traj.peak("AccumulatedSludge")) is float
        assert type(traj.at("AccumulatedVinasse", 100.0)) is float

    def test_transport_and_hauled_mass_are_added_left_to_right(self):
        # Not compensated, as `sum()` is from CPython 3.12: 1e16 + 1 rounds
        # back to 1e16, so the three amounts add to 0.0, not 1.0.
        amounts = [1e16, 1.0, -1e16]
        events = tuple(EventRecord(30.0 * k, "pickup", target, amount)
                       for k, amount in enumerate(amounts, 1)
                       for target in ("AccumulatedSludge", "TotalCost"))
        traj = dataclasses.replace(run_simulation(build_baseline(), SimConfig(t_end=10.0)),
                                   events=events)
        assert cost_breakdown(traj).transport == 0.0
        assert pickup_summary(traj) == (3, 0.0)
        # With no pickup the total is the int 0 that `sum()` of nothing gives.
        bare = dataclasses.replace(traj, events=())
        assert [type(cost_breakdown(bare).transport), type(pickup_summary(bare)[1])] == [int, int]

    def test_zero_cost_model_never_crosses(self):
        spec = build_baseline().with_params(dict.fromkeys(
            ("TripFixedCost", "PerKgCost", "CoagulantUnitCost", "OpCostPerM3Day", "CapexPerM3"),
            0.0))
        traj = run_simulation(spec, SimConfig(t_end=365.0))
        report = cost_breakdown(traj)
        assert report.total == 0.0
        assert report.threshold_cross_day is None


class TestSummary:
    def test_summarize_keys_and_values(self, baseline_run):
        summary = summarize(baseline_run)
        assert summary["pickup_count"] == 12
        assert summary["saturation_day"] == 232.0
        assert summary["peak_sludge_kg"] == 2900.0
        assert summary["within_budget"] == 1.0
        assert summary["total_cost"] == pytest.approx(
            summary["operating_cost"] + summary["coagulant_cost"]
            + summary["capex_cost"] + summary["transport_cost"], rel=1e-9,
        )
        assert math.isfinite(summary["marginal_cost_final"])


class TestConstruction:
    def test_policy_start_day_override(self, baseline_spec):
        spec = baseline_spec.with_event_schedule("pickup", start=10.0)
        event = spec.events[0]
        assert event.start == 10.0 and event.interval == 30.0
        spec = baseline_spec.with_event_schedule("pickup", start=5.0, interval=20.0)
        assert (spec.events[0].start, spec.events[0].interval) == (5.0, 20.0)
        # A scenario's `every` without `start` starts at the first interval.
        spec = apply_scenario(baseline_spec, parse_scenario("scenario S { event pickup every 20 }"))
        assert (spec.events[0].start, spec.events[0].interval) == (20.0, 20.0)

    def test_builder_rejects_unknown_overrides(self):
        with pytest.raises(UnknownSymbolError):
            build_baseline().with_params({"NoSuchKnob": 1.0})

    def test_noise_defaults_off(self):
        spec = build_baseline()
        assert spec.param("NoiseStdDev") == 0.0


# The range the shipped file declares for each parameter, in its order:
# "> 0" for a quantity that must be positive, ">= 0" for one that may be
# zero, None for any finite value.
BOUNDS = {
    "TotalCapacity": (">", 0.0),
    "BaseCapacity": (">", 0.0),
    "DtNominal": (">", 0.0),
    "EthanolProduction": (">", 0.0),
    "VinassePerEthanol": (">", 0.0),
    "PondArea": (">", 0.0),
    "KEvap": (">", 0.0),
    "Alpha": None,
    "TRef": None,
    "TMean": None,
    "TAmp": (">=", 0.0),
    "TPhase": None,
    "NoiseStdDev": (">=", 0.0),
    "Sigma": (">=", 0.0),  # a zero yield only means no sludge
    "SludgeDensity": (">", 0.0),
    "Dose": (">=", 0.0),
    "EtaMax": (">=", 0.0),
    "KHalf": (">", 0.0),
    "TruckCapacityKg": (">", 0.0),
    "TrucksPerPickup": (">", 0.0),
    "TripFixedCost": (">=", 0.0),
    "PerKgCost": (">=", 0.0),
    "CoagulantUnitCost": (">=", 0.0),
    "OpCostPerM3Day": (">=", 0.0),
    "CapexPerM3": (">=", 0.0),
    "AmortDays": (">", 0.0),
    "CostThreshold": (">=", 0.0),
}


class TestSingleDefinition:
    """The shipped baseline.sfd is the plant model: every default, the
    pickup schedule and every parameter's range are written there once."""

    def test_defaults_equal_the_shipped_file(self, fixtures_dir):
        assert inspect.signature(build_baseline).parameters == {}
        assert build_baseline() == parse_model((fixtures_dir / "baseline.sfd").read_text())

    def test_table_covers_every_parameter_field(self):
        assert {p.name: p.bound for p in build_baseline().parameters} == BOUNDS
        assert len(BOUNDS) == 27

    @pytest.mark.parametrize("name", list(BOUNDS), ids=list(BOUNDS))
    def test_each_field_sets_only_its_parameter(self, name):
        base = build_baseline()
        value = 1000.0 + 7.25 * list(BOUNDS).index(name)
        changed = base.with_params({name: value})
        assert validate_model(changed).params[name] == value  # inside every bound
        assert all(
            new == old
            for new, old in zip(changed.parameters, base.parameters)
            if new.name != name
        )
        assert changed.with_params({name: base.param(name)}) == base

    def test_package_data_ships_the_model(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
        assert any(fnmatch.fnmatch("fixtures/baseline.sfd", g) for g in globs["sfdsim"])


class TestParameterValidation:
    """Validation checks each value against the range its parameter
    declares, whichever way the value was set."""

    def test_rejects_nonpositive_field_by_name(self):
        with pytest.raises(InvalidParameterError) as err:
            validate_model(build_baseline().with_params({"PondArea": 0.0}))
        assert err.value.field == "PondArea"
        assert str(err.value) == "PondArea: must be > 0, got 0"

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidParameterError) as err:
            validate_model(build_baseline().with_params({"PerKgCost": -1.0}))
        assert err.value.field == "PerKgCost"

    def test_rejects_negative_pickup_start(self):
        with pytest.raises(ModelError, match="event 'pickup' has a negative schedule"):
            validate_model(build_baseline().with_event_schedule("pickup", start=-1.0))

    def test_first_invalid_field_in_group_order(self):
        # In the file's order: TAmp is declared before KHalf.
        with pytest.raises(InvalidParameterError) as err:
            validate_model(build_baseline().with_params({"KHalf": 0.0, "TAmp": -1.0}))
        assert err.value.field == "TAmp"

    @pytest.mark.parametrize("name", [name for name, bound in BOUNDS.items() if bound])
    def test_each_bound_holds_at_its_edge(self, name):
        op, limit = BOUNDS[name]
        base = build_baseline()
        edges = [(math.nextafter(limit, -math.inf), False), (limit, op == ">="),
                 (-limit, op == ">="), (math.nextafter(limit, math.inf), True)]
        for value, allowed in edges:
            variant = base.with_params({name: value})
            if allowed:
                assert validate_model(variant).params[name] == value
            else:
                with pytest.raises(InvalidParameterError) as err:
                    validate_model(variant)
                assert err.value.field == name
