"""Vinasse treatment pond model.

Distillery stillage (vinasse) is pumped into a finite open pond where part
of the volume evaporates and suspended solids settle out as sludge. Sludge
is hauled away by truck on a fixed schedule; a coagulant dose accelerates
settling with diminishing returns. The model tracks three stocks: pond
volume, settled sludge mass, and cumulative cost.

Structure:

* Inflow follows ethanol production but is throttled to the remaining pond
  capacity, so once the pond saturates the distillery can no longer dispose
  at full rate; `saturation_time` finds the day that first happens.
* Sludge production is proportional to treated inflow; the coagulant dose
  multiplies it by 1 + eta, where eta saturates at EtaMax with
  half-response at KHalf.
* Cost accumulates continuously (pond operation per m3-day, coagulant per
  dosed m3, amortized capacity expansion) and in steps (truck pickups, a
  fixed cost per truck trip plus a per-kg disposal fee).

The model itself is the shipped model file `fixtures/baseline.sfd`;
`build_baseline` parses it and sets its parameters from the groups below.
Each group field declares, once, its default value, the model parameter
it sets and its range rule. `temperature` evaluates the model's own
`temperature` auxiliary rather than a copy of its formula: it validates
the baseline with the profile's values, a parameter variant that reuses
the baseline's validation when that is the last one made. All magnitudes
are plain floats in day units, so any of them can be overridden per
scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from importlib import resources

from .engine import Trajectory
from .errors import InvalidParameterError
from .expr import daily_gauss
from .language import parse_model
from .model import ModelSpec, validate_model


def _knob(default: float, param: str | None, rule: str | None = None):
    """A group field with its default, the model parameter it sets (None
    for none) and its range rule: "positive", "non-negative" or None."""
    return field(default=default, metadata={"param": param, "rule": rule})


@dataclass(frozen=True, slots=True)
class PlantParams:
    """Physical plant: pond geometry, production, settling."""

    total_capacity_m3: float = _knob(18000.0, "TotalCapacity", "positive")
    base_capacity_m3: float = _knob(18000.0, "BaseCapacity", "positive")
    ethanol_production_l_day: float = _knob(8000.0, "EthanolProduction", "positive")
    vinasse_per_ethanol: float = _knob(12.5, "VinassePerEthanol", "positive")
    pond_area_m2: float = _knob(5000.0, "PondArea", "positive")
    evap_coefficient: float = _knob(0.004, "KEvap", "positive")
    evap_temp_slope: float = _knob(0.05, "Alpha")
    reference_temp_c: float = _knob(16.0, "TRef")
    sludge_yield_kg_m3: float = _knob(1.0, "Sigma", "positive")
    sludge_density_kg_m3: float = _knob(400.0, "SludgeDensity", "positive")


@dataclass(frozen=True, slots=True)
class TemperatureProfile:
    """Sinusoidal annual temperature with optional daily noise."""

    mean_c: float = _knob(16.0, "TMean")
    amplitude_c: float = _knob(6.0, "TAmp", "non-negative")
    phase_days: float = _knob(0.0, "TPhase")
    noise_std_c: float = _knob(0.0, "NoiseStdDev", "non-negative")


@dataclass(frozen=True, slots=True)
class CoagulantResponse:
    """Settling enhancement from coagulant dosing, saturating in dose."""

    dose_g_m3: float = _knob(0.0, "Dose", "non-negative")
    eta_max: float = _knob(0.8, "EtaMax", "non-negative")
    half_dose_g_m3: float = _knob(20.0, "KHalf", "positive")


@dataclass(frozen=True, slots=True)
class TransportPolicy:
    """Sludge pickup schedule and truck fleet."""

    interval_days: float = _knob(30.0, None, "positive")  # the pickup schedule
    truck_capacity_kg: float = _knob(3000.0, "TruckCapacityKg", "positive")
    trucks_per_pickup: float = _knob(1.0, "TrucksPerPickup", "positive")
    start_day: float | None = None  # defaults to the first interval


@dataclass(frozen=True, slots=True)
class CostParams:
    """Cost rates and the budget threshold used for feasibility checks."""

    trip_fixed: float = _knob(50000.0, "TripFixedCost", "non-negative")
    per_kg: float = _knob(10.0, "PerKgCost", "non-negative")
    coagulant_unit: float = _knob(5.0, "CoagulantUnitCost", "non-negative")
    op_per_m3_day: float = _knob(2.0, "OpCostPerM3Day", "non-negative")
    capex_per_m3: float = _knob(1000.0, "CapexPerM3", "non-negative")
    amortization_days: float = _knob(3650.0, "AmortDays", "positive")
    cost_threshold: float = _knob(20000000.0, "CostThreshold", "non-negative")


def _settings(group) -> dict[str, float]:
    """The model parameter values that `group`'s fields set, by name."""
    return {f.metadata["param"]: getattr(group, f.name)
            for f in fields(group) if f.metadata.get("param")}


def build_baseline(
    plant: PlantParams = PlantParams(),
    temperature: TemperatureProfile = TemperatureProfile(),
    coagulant: CoagulantResponse = CoagulantResponse(),
    transport: TransportPolicy = TransportPolicy(),
    costs: CostParams = CostParams(),
    allow_unusual_ratio: bool = False,
) -> ModelSpec:
    """The shipped treatment pond model with the given parameter groups.

    Parses `fixtures/baseline.sfd` and sets each group field on the model
    parameter it names, so scenarios can override any of them without
    rebuilding. The transport policy's interval and start day become the
    schedule of the `pickup` event; scenarios reschedule it by name.
    Each field is range-checked by its rule, in group order; a vinasse
    yield outside the usual 10-15 L per L of ethanol additionally requires
    `allow_unusual_ratio=True`.
    """
    overrides: dict[str, float] = {}
    for group in (plant, temperature, coagulant, transport, costs):
        for f in fields(group):
            value, rule = getattr(group, f.name), f.metadata.get("rule")
            if rule == "positive" and not value > 0.0:
                raise InvalidParameterError(f.name, f"must be positive, got {value:g}")
            if rule == "non-negative" and not value >= 0.0:
                raise InvalidParameterError(f.name, f"must not be negative, got {value:g}")
        overrides |= _settings(group)
    if transport.start_day is not None and not transport.start_day >= 0.0:
        raise InvalidParameterError("start_day",
                                    f"must not be negative, got {transport.start_day:g}")
    if not allow_unusual_ratio and not 10.0 <= plant.vinasse_per_ethanol <= 15.0:
        raise InvalidParameterError(
            "vinasse_per_ethanol",
            f"{plant.vinasse_per_ethanol:g} is outside the usual 10-15 L/L range; "
            "pass allow_unusual_ratio=True to build anyway",
        )
    text = (resources.files(__package__) / "fixtures" / "baseline.sfd").read_text()
    start = transport.start_day if transport.start_day is not None else transport.interval_days
    return parse_model(text).with_params(overrides).with_event_schedule(
        "pickup", start=start, interval=transport.interval_days)


def temperature(t: float, profile: TemperatureProfile = TemperatureProfile(),
                seed: int = 0) -> float:
    """Ambient temperature at time `t` in days: the built-in model's
    `temperature` auxiliary, evaluated at `t` with the profile's values.

    The per-day noise draw is keyed by (seed, floor(t)) as in a run, so
    every evaluation within one day returns the same value. Raises
    ModelError for a non-finite profile value and NonFiniteError for a
    non-finite `t` or result, as a run would.
    """
    vm = validate_model(build_baseline().with_params(_settings(profile)))
    spec = vm.spec
    g = daily_gauss(seed, math.floor(t)) if vm.draws_noise and math.isfinite(t) else 0.0
    values = vm.evaluator(t, g, *(s.initial for s in spec.stocks))
    return values[len(spec.flows) + [a.name for a in spec.auxiliaries].index("temperature")]


def saturation_time(traj: Trajectory) -> float | None:
    """First recorded time the pond throttles intake below supply.

    None if disposal keeps up with production over the whole horizon.
    """
    inflow = traj.series("vinasseInflow")
    supply = traj.series("vinasseSupply")
    for t, taken, wanted in zip(traj.row_times, inflow, supply):
        if taken < wanted - 1e-9:
            return float(t)
    return None


def peak_sludge(traj: Trajectory) -> float:
    return traj.peak("AccumulatedSludge")


@dataclass(frozen=True, slots=True)
class CostReport:
    """Cumulative cost split by channel. Continuous channels are realized
    flow integrals; transport is the sum of pickup event charges. The parts
    add up to `total` (the final cost stock) to float precision.

    `threshold_cross_day` is the first recorded time at which the running
    cost exceeds the CostThreshold parameter, or None if it never does (or
    the model has no such parameter)."""

    operating: float
    coagulant: float
    capex: float
    transport: float
    total: float
    threshold_cross_day: float | None = None


def cost_breakdown(traj: Trajectory) -> CostReport:
    transport = sum(
        rec.amount for rec in traj.events if rec.target == "TotalCost"
    )
    threshold = traj.parameters.get("CostThreshold")
    cross = None
    if threshold is not None:
        for t, cost in zip(traj.row_times, traj.series("TotalCost")):
            if cost > threshold:
                cross = float(t)
                break
    return CostReport(
        operating=traj.flow_integrals.get("operatingCostRate", 0.0),
        coagulant=traj.flow_integrals.get("coagulantCostRate", 0.0),
        capex=traj.flow_integrals.get("capexAmortizationRate", 0.0),
        transport=transport,
        total=traj.final("TotalCost"),
        threshold_cross_day=cross,
    )


def pickup_summary(traj: Trajectory) -> tuple[int, float]:
    """Number of pickups and total sludge mass hauled away."""
    removals = [r for r in traj.events if r.target == "AccumulatedSludge"]
    return len(removals), sum(r.amount for r in removals)


def summarize(traj: Trajectory) -> dict[str, float | None]:
    """Headline metrics for reports and run manifests."""
    breakdown = cost_breakdown(traj)
    count, removed = pickup_summary(traj)
    sat = saturation_time(traj)
    threshold = traj.parameters.get("CostThreshold")
    return {
        "final_vinasse_m3": traj.final("AccumulatedVinasse"),
        "final_sludge_kg": traj.final("AccumulatedSludge"),
        "peak_sludge_kg": peak_sludge(traj),
        "total_cost": breakdown.total,
        "operating_cost": breakdown.operating,
        "coagulant_cost": breakdown.coagulant,
        "capex_cost": breakdown.capex,
        "transport_cost": breakdown.transport,
        "marginal_cost_final": traj.final("marginalCost"),
        "saturation_day": sat,
        "pickup_count": float(count),
        "sludge_removed_kg": removed,
        "within_budget": None if threshold is None else float(breakdown.total <= threshold),
    }
