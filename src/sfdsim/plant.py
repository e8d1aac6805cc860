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
`build_baseline` parses it and sets its parameters from the groups below,
which carry the default values. All magnitudes are plain floats in day
units, so any of them can be overridden per scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .engine import Trajectory
from .errors import InvalidParameterError
from .expr import daily_gauss
from .language import parse_model
from .model import ModelSpec


@dataclass(frozen=True, slots=True)
class PlantParams:
    """Physical plant: pond geometry, production, settling."""

    total_capacity_m3: float = 18000.0
    base_capacity_m3: float = 18000.0
    ethanol_production_l_day: float = 8000.0
    vinasse_per_ethanol: float = 12.5
    pond_area_m2: float = 5000.0
    evap_coefficient: float = 0.004
    evap_temp_slope: float = 0.05
    reference_temp_c: float = 16.0
    sludge_yield_kg_m3: float = 1.0
    sludge_density_kg_m3: float = 400.0


@dataclass(frozen=True, slots=True)
class TemperatureProfile:
    """Sinusoidal annual temperature with optional daily noise."""

    mean_c: float = 16.0
    amplitude_c: float = 6.0
    phase_days: float = 0.0
    noise_std_c: float = 0.0


@dataclass(frozen=True, slots=True)
class CoagulantResponse:
    """Settling enhancement from coagulant dosing, saturating in dose."""

    dose_g_m3: float = 0.0
    eta_max: float = 0.8
    half_dose_g_m3: float = 20.0


@dataclass(frozen=True, slots=True)
class TransportPolicy:
    """Sludge pickup schedule and truck fleet."""

    interval_days: float = 30.0
    truck_capacity_kg: float = 3000.0
    trucks_per_pickup: float = 1.0
    start_day: float | None = None  # defaults to the first interval


@dataclass(frozen=True, slots=True)
class CostParams:
    """Cost rates and the budget threshold used for feasibility checks."""

    trip_fixed: float = 50000.0
    per_kg: float = 10.0
    coagulant_unit: float = 5.0
    op_per_m3_day: float = 2.0
    capex_per_m3: float = 1000.0
    amortization_days: float = 3650.0
    cost_threshold: float = 20000000.0


def _check_parameters(plant: PlantParams, temperature: TemperatureProfile,
                      coagulant: CoagulantResponse, transport: TransportPolicy,
                      costs: CostParams, allow_unusual_ratio: bool) -> None:
    positive = {
        "total_capacity_m3": plant.total_capacity_m3,
        "base_capacity_m3": plant.base_capacity_m3,
        "ethanol_production_l_day": plant.ethanol_production_l_day,
        "vinasse_per_ethanol": plant.vinasse_per_ethanol,
        "pond_area_m2": plant.pond_area_m2,
        "evap_coefficient": plant.evap_coefficient,
        "sludge_yield_kg_m3": plant.sludge_yield_kg_m3,
        "sludge_density_kg_m3": plant.sludge_density_kg_m3,
        "half_dose_g_m3": coagulant.half_dose_g_m3,
        "interval_days": transport.interval_days,
        "truck_capacity_kg": transport.truck_capacity_kg,
        "trucks_per_pickup": transport.trucks_per_pickup,
        "amortization_days": costs.amortization_days,
    }
    for field_name, value in positive.items():
        if not value > 0.0:
            raise InvalidParameterError(field_name, f"must be positive, got {value:g}")
    nonnegative = {
        "amplitude_c": temperature.amplitude_c,
        "noise_std_c": temperature.noise_std_c,
        "dose_g_m3": coagulant.dose_g_m3,
        "eta_max": coagulant.eta_max,
        "trip_fixed": costs.trip_fixed,
        "per_kg": costs.per_kg,
        "coagulant_unit": costs.coagulant_unit,
        "op_per_m3_day": costs.op_per_m3_day,
        "capex_per_m3": costs.capex_per_m3,
        "cost_threshold": costs.cost_threshold,
    }
    for field_name, value in nonnegative.items():
        if not value >= 0.0:
            raise InvalidParameterError(field_name, f"must not be negative, got {value:g}")
    if transport.start_day is not None and not transport.start_day >= 0.0:
        raise InvalidParameterError("start_day",
                                    f"must not be negative, got {transport.start_day:g}")
    if not allow_unusual_ratio and not 10.0 <= plant.vinasse_per_ethanol <= 15.0:
        raise InvalidParameterError(
            "vinasse_per_ethanol",
            f"{plant.vinasse_per_ethanol:g} is outside the usual 10-15 L/L range; "
            "pass allow_unusual_ratio=True to build anyway",
        )


def build_baseline(
    plant: PlantParams = PlantParams(),
    temperature: TemperatureProfile = TemperatureProfile(),
    coagulant: CoagulantResponse = CoagulantResponse(),
    transport: TransportPolicy = TransportPolicy(),
    costs: CostParams = CostParams(),
    allow_unusual_ratio: bool = False,
) -> ModelSpec:
    """The shipped treatment pond model with the given parameter groups.

    Parses `fixtures/baseline.sfd` and sets each group value on its named
    model parameter, so scenarios can override any of them without
    rebuilding. The transport policy's interval and start day become the
    schedule of the `pickup` event; scenarios reschedule it by name.
    Group values are range-checked up front; a vinasse yield outside the
    usual 10-15 L per L of ethanol additionally requires
    `allow_unusual_ratio=True`.
    """
    _check_parameters(plant, temperature, coagulant, transport, costs,
                      allow_unusual_ratio)
    text = (resources.files(__package__) / "fixtures" / "baseline.sfd").read_text()
    start = transport.start_day if transport.start_day is not None else transport.interval_days
    return parse_model(text).with_params({
        "TotalCapacity": plant.total_capacity_m3,
        "BaseCapacity": plant.base_capacity_m3,
        "EthanolProduction": plant.ethanol_production_l_day,
        "VinassePerEthanol": plant.vinasse_per_ethanol,
        "PondArea": plant.pond_area_m2,
        "KEvap": plant.evap_coefficient,
        "Alpha": plant.evap_temp_slope,
        "TRef": plant.reference_temp_c,
        "Sigma": plant.sludge_yield_kg_m3,
        "SludgeDensity": plant.sludge_density_kg_m3,
        "TMean": temperature.mean_c,
        "TAmp": temperature.amplitude_c,
        "TPhase": temperature.phase_days,
        "NoiseStdDev": temperature.noise_std_c,
        "Dose": coagulant.dose_g_m3,
        "EtaMax": coagulant.eta_max,
        "KHalf": coagulant.half_dose_g_m3,
        "TruckCapacityKg": transport.truck_capacity_kg,
        "TrucksPerPickup": transport.trucks_per_pickup,
        "TripFixedCost": costs.trip_fixed,
        "PerKgCost": costs.per_kg,
        "CoagulantUnitCost": costs.coagulant_unit,
        "OpCostPerM3Day": costs.op_per_m3_day,
        "CapexPerM3": costs.capex_per_m3,
        "AmortDays": costs.amortization_days,
        "CostThreshold": costs.cost_threshold,
    }).with_event_schedule("pickup", start=start, interval=transport.interval_days)


def temperature(t: float, profile: TemperatureProfile = TemperatureProfile(),
                seed: int = 0) -> float:
    """Ambient temperature at time `t` in days.

    Mirrors the model's `temperature` auxiliary bit for bit: the same
    sinusoid and the same per-day noise draw keyed by (seed, floor(t)), so
    every evaluation within one day returns the same value.
    """
    base = profile.mean_c + profile.amplitude_c * math.sin(
        6.283185307179586 * (t - profile.phase_days) / 365
    )
    return base + profile.noise_std_c * daily_gauss(seed, math.floor(t))


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
