"""Reference integrator: the engine's former interpreted per-step loop.

`reference_run` integrates exactly as `sfdsim.engine.run_simulation` did
before the step loop was generated: one Python iteration per step, stage
states and stock updates as list comprehensions over sums of the inflow
and outflow rates, the conserving clamp called on every step, and
the floor, finiteness check and flow integrals rebuilt as lists. It shares
the clamp, the event schedule, event firing and failure naming with the
engine, so a differential test against it isolates the generated loop.
"""

from __future__ import annotations

import math

import numpy as np

from sfdsim import expr as ex
from sfdsim.engine import (
    EventRecord,
    SimConfig,
    Trajectory,
    _ConservingClamp,
    _event_schedule,
    _fire_events,
    _name_failure,
)
from sfdsim.errors import NonFiniteError
from sfdsim.model import ModelSpec, ValidatedModel, validate_model


def total(rates, flows):
    """`sum()` of the selected rates as CPython 3.11 computes it: added left
    to right onto the int 0. (From 3.12, `sum()` compensates float sums.)"""
    s = 0
    for j in flows:
        s = s + rates[j]
    return s


def reference_run(model: ModelSpec | ValidatedModel, config: SimConfig) -> Trajectory:
    vm = model if isinstance(model, ValidatedModel) else validate_model(model)
    spec = vm.spec
    steps = config.step_count()
    dt = config.dt

    stock_names = [s.name for s in spec.stocks]
    flow_names = [f.name for f in spec.flows]
    aux_names = [a.name for a in spec.auxiliaries]
    columns = tuple(stock_names + flow_names + aux_names)
    n_flows = len(flow_names)

    event_steps = _event_schedule(spec, config, steps)
    flow_index = {name: j for j, name in enumerate(flow_names)}
    ins = [tuple(flow_index[f] for f in vm.inflows[name]) for name in stock_names]
    outs = [tuple(flow_index[f] for f in vm.outflows[name]) for name in stock_names]
    floored = [s.non_negative for s in spec.stocks]
    clamp = _ConservingClamp(vm, flow_index)

    evaluator = vm.evaluator
    draws_noise = vm.draws_noise
    seed = config.seed
    noise_day = None
    g = 0.0

    def evaluate(x: list[float], tv: float) -> tuple[float, ...]:
        nonlocal noise_day, g
        if draws_noise:
            day = math.floor(tv)
            if day != noise_day:
                noise_day, g = day, ex.daily_gauss(seed, day)
        try:
            return evaluator(tv, g, *x)
        except (ZeroDivisionError, OverflowError, ValueError):
            _name_failure(vm, x, tv, g)
            raise

    def advance(base: list[float], rates, h: float) -> list[float]:
        return [v + h * (total(rates, i) - total(rates, o))
                for v, i, o in zip(base, ins, outs)]

    x = [float(s.initial) for s in spec.stocks]
    integrals = [0.0] * n_flows
    event_deltas = {name: 0.0 for name in stock_names}
    event_log: list[EventRecord] = []
    times: list[float] = []
    rows: list[list[float]] = []

    for n in range(steps + 1):
        t_n = config.t_start + n * dt
        out = evaluate(x, t_n)
        if n % config.record_every == 0 or n == steps:
            times.append(t_n)
            rows.append([*x, *out])
        if n == steps:
            break

        k1 = out[:n_flows]
        if config.method == "euler":
            rates = k1
        else:
            k2 = evaluate(advance(x, k1, dt / 2), t_n + dt / 2)
            k3 = evaluate(advance(x, k2, dt / 2), t_n + dt / 2)
            k4 = evaluate(advance(x, k3, dt), t_n + dt)
            rates = [(a + 2 * b + 2 * c + d) / 6 for a, b, c, d in zip(k1, k2, k3, k4)]

        if clamp.stocks:
            rates = clamp(x, rates, dt, t_n)
        t_next = config.t_start + (n + 1) * dt
        x = [0.0 if f and v < 0.0 else v for v, f in zip(advance(x, rates, dt), floored)]
        if not all(map(math.isfinite, x)):
            bad = next(i for i, v in enumerate(x) if not math.isfinite(v))
            raise NonFiniteError(stock_names[bad], t_next)
        integrals = [acc + dt * r for acc, r in zip(integrals, rates)]

        fired = event_steps.get(n + 1)
        if fired:
            _fire_events(vm, fired, x, t_next, evaluate, event_deltas, event_log)

    return Trajectory(
        times=np.array(times, dtype=float),
        columns=columns,
        values=np.array(rows, dtype=float) if rows else np.zeros((0, len(columns))),
        events=tuple(event_log),
        parameters=dict(vm.params),
        flow_integrals=dict(zip(flow_names, integrals)),
        event_deltas=event_deltas,
        config=config,
    )
