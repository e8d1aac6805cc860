"""Seeded generator of small random valid models.

Used by property tests: every generated model passes validation, runs a
full year, and must satisfy per-stock mass balance. Stocks form a chain so
stock-to-stock flows cannot create dependency problems; expressions are
built from a safe set of non-negative templates. A generated model may
include one scheduled event (withdrawal, deposit, or reset).

`unbounded` drops the parameter bounds of a model, so a test can run a
value that validation would reject.
"""

from __future__ import annotations

import dataclasses
import random

from sfdsim import (
    AuxDef,
    EventAction,
    EventDef,
    FlowDef,
    ModelSpec,
    ParamDef,
    StockDef,
    parse_expression,
)


def generate_model(seed: int) -> ModelSpec:
    rng = random.Random(seed)
    n_stocks = rng.randint(1, 4)

    params = [
        ParamDef("Rate0", round(rng.uniform(0.5, 12.0), 3)),
        ParamDef("Rate1", round(rng.uniform(0.01, 0.4), 4)),
        ParamDef("Level0", round(rng.uniform(5.0, 60.0), 2)),
    ]
    stocks = [
        StockDef(f"Pool{i}", round(rng.uniform(0.0, 100.0), 2))
        for i in range(n_stocks)
    ]

    auxes = [
        AuxDef("drive", parse_expression(
            f"Rate0 * (1 + 0.5 * sin(t / {rng.randint(7, 40)}))"
        )),
    ]

    flows: list[FlowDef] = []

    def add_flow(name: str, text: str, source: str | None, target: str | None):
        flows.append(FlowDef(name, parse_expression(text), source, target))

    # Outside inflow into the first stock keeps the system supplied.
    add_flow("feed", "max(0, drive)", None, "Pool0")

    for i, stock in enumerate(stocks):
        style = rng.randrange(3)
        if style == 0:
            text = f"Rate1 * {stock.name}"
        elif style == 1:
            text = f"min(Rate0, {stock.name})"
        else:
            text = f"Rate0 * {stock.name} / ({stock.name} + Level0)"
        if i + 1 < n_stocks and rng.random() < 0.6:
            add_flow(f"pass{i}", text, stock.name, stocks[i + 1].name)
        else:
            add_flow(f"drain{i}", text, stock.name, None)
        if rng.random() < 0.3:
            add_flow(f"leak{i}", f"Rate1 * {stock.name} / 2", stock.name, None)

    events: list[EventDef] = []
    if rng.random() < 0.5:
        target = rng.choice(stocks).name
        kind = rng.randrange(3)
        if kind == 0:
            action = EventAction(target, "subtract",
                                 parse_expression(f"min({target}, Level0)"))
        elif kind == 1:
            action = EventAction(target, "add", parse_expression("Level0 / 2"))
        else:
            action = EventAction(target, "set", parse_expression("Level0"))
        interval = float(rng.choice((7, 14, 30, 45)))
        events.append(EventDef("shift", start=interval, interval=interval,
                               actions=(action,)))

    return ModelSpec(
        name=f"Random{seed}",
        stocks=tuple(stocks),
        flows=tuple(flows),
        auxiliaries=tuple(auxes),
        parameters=tuple(params),
        events=tuple(events),
    )


def unbounded(spec: ModelSpec) -> ModelSpec:
    """`spec` with every parameter's bound dropped, so any finite value
    validates. The expressions are the very same, so a variant of `spec`
    and one of this model share one validation."""
    return dataclasses.replace(spec, parameters=tuple(
        dataclasses.replace(p, bound=None) for p in spec.parameters))
