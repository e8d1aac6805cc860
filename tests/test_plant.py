"""Treatment plant model: structure, dynamics, and cost accounting."""

from __future__ import annotations

import dataclasses
import fnmatch
import math
from pathlib import Path

import pytest

from sfdsim import (
    CoagulantResponse,
    CostParams,
    InvalidParameterError,
    PlantParams,
    SimConfig,
    TemperatureProfile,
    TransportPolicy,
    build_baseline,
    cost_breakdown,
    parse_model,
    peak_sludge,
    pickup_summary,
    run_simulation,
    saturation_time,
    summarize,
    temperature,
)

import vinasse_oracle as oracle


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
        ours = baseline_run.column(column)
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
        cap = PlantParams().total_capacity_m3
        assert max(baseline_run.column("AccumulatedVinasse")) <= cap

    def test_sludge_sawtooth(self, baseline_run):
        sludge = baseline_run.column("AccumulatedSludge")
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
        spec = build_baseline(coagulant=CoagulantResponse(dose_g_m3=20.0))
        traj = run_simulation(spec, SimConfig(t_end=10.0))
        assert traj.column("sludgeProductionRate")[1] == pytest.approx(140.0, rel=1e-12)

    def test_supply_rate(self, baseline_run):
        # 8000 L/day of ethanol at 12.5 L vinasse per L is 100 m3/day.
        assert baseline_run.column("vinasseSupply")[0] == 100.0

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

    def test_noise_constant_within_a_day(self):
        flat = TemperatureProfile(amplitude_c=0.0, noise_std_c=2.0)
        assert temperature(3.2, flat, seed=7) == temperature(3.9, flat, seed=7)
        assert temperature(3.9, flat, seed=7) != temperature(4.1, flat, seed=7)

    def test_matches_model_auxiliary_bitwise(self):
        profile = TemperatureProfile(noise_std_c=1.5)
        spec = build_baseline(temperature=profile)
        traj = run_simulation(spec, SimConfig(t_end=30.0, seed=7))
        assert all(
            value == temperature(t, profile, seed=7)
            for t, value in zip(traj.times, traj.column("temperature"))
        )


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
        spec = build_baseline(plant=PlantParams(total_capacity_m3=27000.0))
        traj = run_simulation(spec, SimConfig(t_end=365.0))
        assert saturation_time(traj) == 338.0
        assert traj.final("TotalCost") == pytest.approx(12129860.81, abs=0.01)

    def test_marginal_cost_guard_at_zero_volume(self):
        spec = build_baseline().with_initial({"AccumulatedVinasse": 0.0})
        traj = run_simulation(spec, SimConfig(t_end=0.0))
        assert traj.column("marginalCost")[0] == 0.0

    def test_budget_threshold_not_crossed_at_baseline(self, baseline_run):
        assert cost_breakdown(baseline_run).threshold_cross_day is None

    def test_budget_threshold_crossing_day(self):
        spec = build_baseline().with_params({"CostThreshold": 1e6})
        traj = run_simulation(spec, SimConfig(t_end=365.0))
        crossed = [t for t, c in zip(traj.times, traj.column("TotalCost")) if c > 1e6]
        assert cost_breakdown(traj).threshold_cross_day == crossed[0] == 100.0

    def test_zero_cost_model_never_crosses(self):
        spec = build_baseline(costs=CostParams(
            trip_fixed=0.0, per_kg=0.0, coagulant_unit=0.0,
            op_per_m3_day=0.0, capex_per_m3=0.0,
        ))
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
    def test_policy_start_day_override(self):
        spec = build_baseline(transport=TransportPolicy(interval_days=30.0, start_day=10.0))
        event = spec.events[0]
        assert event.start == 10.0 and event.interval == 30.0
        spec = build_baseline(transport=TransportPolicy(interval_days=20.0, start_day=5.0))
        assert (spec.events[0].start, spec.events[0].interval) == (5.0, 20.0)
        spec = build_baseline(transport=TransportPolicy(interval_days=20.0, start_day=None))
        assert (spec.events[0].start, spec.events[0].interval) == (20.0, 20.0)

    def test_builder_rejects_unknown_overrides(self):
        from sfdsim import UnknownSymbolError

        with pytest.raises(UnknownSymbolError):
            build_baseline().with_params({"NoSuchKnob": 1.0})

    def test_noise_defaults_off(self):
        spec = build_baseline()
        assert spec.param("NoiseStdDev") == 0.0


# Each group field and the model parameter it sets.
GROUP_PARAMETERS = {
    ("plant", "total_capacity_m3"): "TotalCapacity",
    ("plant", "base_capacity_m3"): "BaseCapacity",
    ("plant", "ethanol_production_l_day"): "EthanolProduction",
    ("plant", "vinasse_per_ethanol"): "VinassePerEthanol",
    ("plant", "pond_area_m2"): "PondArea",
    ("plant", "evap_coefficient"): "KEvap",
    ("plant", "evap_temp_slope"): "Alpha",
    ("plant", "reference_temp_c"): "TRef",
    ("plant", "sludge_yield_kg_m3"): "Sigma",
    ("plant", "sludge_density_kg_m3"): "SludgeDensity",
    ("temperature", "mean_c"): "TMean",
    ("temperature", "amplitude_c"): "TAmp",
    ("temperature", "phase_days"): "TPhase",
    ("temperature", "noise_std_c"): "NoiseStdDev",
    ("coagulant", "dose_g_m3"): "Dose",
    ("coagulant", "eta_max"): "EtaMax",
    ("coagulant", "half_dose_g_m3"): "KHalf",
    ("transport", "truck_capacity_kg"): "TruckCapacityKg",
    ("transport", "trucks_per_pickup"): "TrucksPerPickup",
    ("costs", "trip_fixed"): "TripFixedCost",
    ("costs", "per_kg"): "PerKgCost",
    ("costs", "coagulant_unit"): "CoagulantUnitCost",
    ("costs", "op_per_m3_day"): "OpCostPerM3Day",
    ("costs", "capex_per_m3"): "CapexPerM3",
    ("costs", "amortization_days"): "AmortDays",
    ("costs", "cost_threshold"): "CostThreshold",
}
GROUPS = {
    "plant": PlantParams,
    "temperature": TemperatureProfile,
    "coagulant": CoagulantResponse,
    "transport": TransportPolicy,
    "costs": CostParams,
}


class TestSingleDefinition:
    """The shipped baseline.sfd is the plant model; the groups only set its
    parameters and the pickup schedule."""

    def test_defaults_equal_the_shipped_file(self, fixtures_dir):
        assert build_baseline() == parse_model((fixtures_dir / "baseline.sfd").read_text())

    def test_table_covers_every_parameter_field(self):
        fields = {
            (group, f.name)
            for group, cls in GROUPS.items()
            for f in dataclasses.fields(cls)
        } - {("transport", "interval_days"), ("transport", "start_day")}
        assert set(GROUP_PARAMETERS) == fields
        assert len(GROUP_PARAMETERS) == 26

    @pytest.mark.parametrize(
        "group,field_name", list(GROUP_PARAMETERS), ids=list(GROUP_PARAMETERS.values())
    )
    def test_each_field_sets_only_its_parameter(self, group, field_name):
        base = build_baseline()
        value = 1000.0 + 7.25 * list(GROUP_PARAMETERS).index((group, field_name))
        changed = build_baseline(
            **{group: GROUPS[group](**{field_name: value})}, allow_unusual_ratio=True,
        )
        name = GROUP_PARAMETERS[(group, field_name)]
        assert changed.param(name) == value
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
    def test_rejects_nonpositive_field_by_name(self):
        with pytest.raises(InvalidParameterError) as err:
            build_baseline(plant=PlantParams(pond_area_m2=0.0))
        assert err.value.field == "pond_area_m2"
        assert "positive" in str(err.value)

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidParameterError) as err:
            build_baseline(costs=CostParams(per_kg=-1.0))
        assert err.value.field == "per_kg"

    def test_rejects_negative_pickup_start(self):
        with pytest.raises(InvalidParameterError) as err:
            build_baseline(transport=TransportPolicy(start_day=-1.0))
        assert err.value.field == "start_day"

    def test_rejects_unusual_vinasse_ratio_by_default(self):
        with pytest.raises(InvalidParameterError) as err:
            build_baseline(plant=PlantParams(vinasse_per_ethanol=20.0))
        assert err.value.field == "vinasse_per_ethanol"

    def test_unusual_ratio_allowed_when_flagged(self):
        spec = build_baseline(
            plant=PlantParams(vinasse_per_ethanol=20.0), allow_unusual_ratio=True,
        )
        assert spec.param("VinassePerEthanol") == 20.0
