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

The model itself is the shipped model file `fixtures/baseline.sfd`, which
holds every default value, the pickup schedule and each parameter's range;
`build_baseline` returns its parse. A variant is a `ModelSpec.with_params`
or `ModelSpec.with_event_schedule` copy of it, checked against those
ranges when it is validated. `temperature` evaluates a model's own
`temperature` auxiliary rather than a copy of its formula. All magnitudes
are plain floats in day units, so any of them can be overridden per
scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .engine import Trajectory
from .expr import daily_gauss
from .language import parse_model
from .model import ModelSpec, validate_model


@cache
def build_baseline() -> ModelSpec:
    """The shipped treatment pond model: the parse of `fixtures/baseline.sfd`.

    Scenarios override its parameters and reschedule its `pickup` event by
    name; validation checks each value against the range the file declares.
    """
    return parse_model((resources.files(__package__) / "fixtures" / "baseline.sfd").read_text())


def temperature(t: float, spec: ModelSpec | None = None, seed: int = 0) -> float:
    """Ambient temperature at time `t` in days: the `temperature`
    auxiliary of `spec`, the built-in model when omitted, evaluated at `t`.

    The per-day noise draw is keyed by (seed, floor(t)) as in a run, so
    every evaluation within one day returns the same value. Raises
    ModelError for a parameter that is not finite or is outside its range,
    and NonFiniteError for a non-finite `t` or result, as a run would.
    """
    vm = validate_model(build_baseline() if spec is None else spec)
    spec = vm.spec
    g = daily_gauss(seed, math.floor(t)) if vm.draws_noise and math.isfinite(t) else 0.0
    row = vm.evaluator(t, g, *(s.initial for s in spec.stocks))
    return row[len(spec.stocks) + len(spec.flows)
               + [a.name for a in spec.auxiliaries].index("temperature")]


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


def _added(values) -> float:
    """`values` added left to right onto the int 0, as CPython 3.11's
    `sum()` adds floats; later versions compensate the sum."""
    total = 0
    for value in values:
        total = total + value
    return total


def cost_breakdown(traj: Trajectory) -> CostReport:
    transport = _added(rec.amount for rec in traj.events if rec.target == "TotalCost")
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
    return len(removals), _added(r.amount for r in removals)


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


# The model names the studies read, as (kind, name) pairs, each in the order
# a run meets them: those `summarize` needs, for the scenario comparison and
# the sweep; the policy search's; and, optional, those read with a default.
STUDY_READS = {
    "summary": (("column", "TotalCost"), ("column", "vinasseInflow"), ("column", "vinasseSupply"),
                ("column", "AccumulatedVinasse"), ("column", "AccumulatedSludge"),
                ("column", "marginalCost")),
    "policy": (("parameter", "CostThreshold"), ("parameter", "TruckCapacityKg"),
               ("parameter", "TrucksPerPickup"), ("event", "pickup"),
               ("column", "AccumulatedSludge"), ("column", "TotalCost")),
    "optional": (("parameter", "CostThreshold"), ("flow", "operatingCostRate"),
                 ("flow", "coagulantCostRate"), ("flow", "capexAmortizationRate")),
}
