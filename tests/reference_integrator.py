"""Reference integrator: the engine's former interpreted per-step loop.

`reference_run` integrates exactly as `sfdsim.engine.run_simulation` did
before the step loop and the event actions were generated: one Python
iteration per step, stage states and stock updates as list comprehensions
over sums of the inflow and outflow rates, the conserving clamp called on
every step, the floor, finiteness check and flow integrals rebuilt as
lists, and event actions walked by the tree interpreter over a dict of
every parameter, stock and computed value. It shares the clamp, the event
schedule and the generated evaluator with the engine, so a differential
test against it isolates the generated loop and the generated actions.
"""

from __future__ import annotations

import math

from sfdsim import expr as ex
from sfdsim.engine import (
    EventRecord,
    SimConfig,
    Trajectory,
    _ConservingClamp,
    _event_schedule,
    _topology,
)
from sfdsim.errors import NonFiniteError
from sfdsim.model import ModelSpec, ValidatedModel, validate_model


def attachments(spec: ModelSpec) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """`(inflows, outflows)`: per stock, the names of the flows that end
    and that start there, in declaration order."""
    inflows = {s.name: tuple(f.name for f in spec.flows if f.target == s.name)
               for s in spec.stocks}
    outflows = {s.name: tuple(f.name for f in spec.flows if f.source == s.name)
                for s in spec.stocks}
    return inflows, outflows


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
    inflows, outflows = attachments(spec)
    ins = [tuple(flow_index[f] for f in inflows[name]) for name in stock_names]
    outs = [tuple(flow_index[f] for f in outflows[name]) for name in stock_names]
    floored = [s.non_negative for s in spec.stocks]
    clamp = _ConservingClamp(*_topology(vm, config.method)[1:])

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
        return evaluator(tv, g, *x)

    def advance(base: list[float], rates, h: float) -> list[float]:
        return [v + h * (total(rates, i) - total(rates, o))
                for v, i, o in zip(base, ins, outs)]

    x = [float(s.initial) for s in spec.stocks]
    integrals = [0.0] * n_flows
    event_deltas = {name: 0.0 for name in stock_names}
    event_log: list[EventRecord] = []
    times: list[float] = []
    rows: list[tuple[float, ...]] = []

    for n in range(steps + 1):
        t_n = config.t_start + n * dt
        out = evaluate(x, t_n)
        if n % config.record_every == 0 or n == steps:
            times.append(t_n)
            rows.append((*x, *out))
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
            rates = clamp(stock_names, x, rates, dt, t_n)
        t_next = config.t_start + (n + 1) * dt
        x = [0.0 if f and v < 0.0 else v for v, f in zip(advance(x, rates, dt), floored)]
        if not all(map(math.isfinite, x)):
            bad = next(i for i, v in enumerate(x) if not math.isfinite(v))
            raise NonFiniteError(stock_names[bad], t_next)
        integrals = [acc + dt * r for acc, r in zip(integrals, rates)]

        fired = event_steps.get(n + 1)
        if fired:
            fire_events(vm, fired, x, t_next, evaluate, event_deltas, event_log)

    return Trajectory(
        row_times=times,
        columns=columns,
        rows=rows,
        events=tuple(event_log),
        parameters=dict(vm.params),
        flow_integrals=dict(zip(flow_names, integrals)),
        event_deltas=event_deltas,
        config=config,
    )


def fire_events(vm, fired, x, t, evaluate, event_deltas, event_log) -> None:
    """Apply each fired event (indices into the model's events) in
    declaration order, walking its actions on the tree interpreter.

    All of one event's action expressions are evaluated against a snapshot
    taken before that event changes anything, then applied sequentially.
    The model is evaluated for the snapshot only when an action reads a
    flow or auxiliary. Non-negative stocks are floored at zero.
    """
    index = {name: i for i, name in enumerate(vm.stocks)}
    computed = [d.name for d in (*vm.spec.flows, *vm.spec.auxiliaries)]
    for k in fired:
        event = vm.spec.events[k]
        env = dict(vm.params)
        env.update(zip(vm.stocks, x))
        if any(ex.variables(act.expression) & set(computed) for act in event.actions):
            env.update(zip(computed, evaluate(x, t)))
        planned = []
        for act in event.actions:
            # Interventions are exact amounts: noise reads as 0 in actions.
            try:
                v = ex.eval_expression(act.expression, env, t, 0.0)
            except (ZeroDivisionError, OverflowError, ValueError):
                raise NonFiniteError(f"event {event.name}", t) from None
            if not math.isfinite(v):
                raise NonFiniteError(f"event {event.name}", t)
            planned.append((act, v))
        for act, v in planned:
            i = index[act.target]
            old = x[i]
            if act.op == "add":
                new = old + v
            elif act.op == "subtract":
                new = old - v
            else:
                new = v
            if vm.stocks[act.target].non_negative and new < 0.0:
                new = 0.0
            x[i] = new
            event_deltas[act.target] += new - old
            amount = old - new if act.op == "subtract" else (new if act.op == "set" else new - old)
            event_log.append(EventRecord(t=t, event=event.name, target=act.target, amount=amount))
