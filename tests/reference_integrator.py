"""Reference integrator: the engine's former interpreted per-step loop.

`reference_run` integrates exactly as `sfdsim.engine.run_simulation` did
before the step loop and the event actions were generated: one Python
iteration per step, stage states and stock updates as list comprehensions
over sums of the inflow and outflow rates, the conserving clamp called on
every step, the floor, finiteness check and flow integrals rebuilt as
lists, and event actions walked by the tree interpreter over a dict of
every parameter, stock and computed value. Its conserving clamp is the
engine's former clamp object, `_ConservingClamp`, kept here as it was
before the engine emitted the clamp into the generated loop. It shares
only the event schedule, the topology key and the generated evaluator
with the engine, so a differential test against it isolates the
generated loop, its inlined clamp and the generated actions.
"""

from __future__ import annotations

import math

from sfdsim import expr as ex
from sfdsim.engine import (
    EventRecord,
    SimConfig,
    Trajectory,
    _event_schedule,
    _topology,
)
from sfdsim.errors import ClampError, NonFiniteError
from sfdsim.model import ModelSpec, validate_model

_CLAMP_TOL = 1e-12


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


def reference_run(spec: ModelSpec, config: SimConfig) -> Trajectory:
    vm = validate_model(spec)
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
    clamp = _ConservingClamp(*_topology(spec, config.method)[1:])

    evaluator = vm.evaluator
    draws_noise = vm.draws_noise
    seed = config.seed
    noise_day = None
    g = 0.0

    def evaluate(x: list[float], tv: float) -> tuple[float, ...]:
        """The flows and auxiliaries at state `x`: the evaluator's row with
        its stock prefix, which must be `x` bit for bit, sliced off."""
        nonlocal noise_day, g
        if draws_noise:
            day = math.floor(tv)
            if day != noise_day:
                noise_day, g = day, ex.daily_gauss(seed, day)
        row = evaluator(tv, g, *x)
        assert list(map(float.hex, row[:len(x)])) == list(map(float.hex, x))
        return row[len(x):]

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
    stocks = {s.name: s for s in vm.spec.stocks}
    index = {name: i for i, name in enumerate(stocks)}
    computed = [d.name for d in (*vm.spec.flows, *vm.spec.auxiliaries)]
    known = {*vm.params, *stocks, *computed}
    for k in fired:
        event = vm.spec.events[k]
        env = dict(vm.params)
        env.update(zip(stocks, x))
        if any(ex.validate_expression(act.expression, known)[0] & set(computed)
               for act in event.actions):
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
            if stocks[act.target].non_negative and new < 0.0:
                new = 0.0
            x[i] = new
            event_deltas[act.target] += new - old
            amount = old - new if act.op == "subtract" else (new if act.op == "set" else new - old)
            event_log.append(EventRecord(t=t, event=event.name, target=act.target, amount=amount))


class _ConservingClamp:
    """Scales outflows so no non-negative stock is driven below zero.

    Each clamped stock (non-negative, with outflows) gets a scale factor
    applied to every flow draining it. A reduced outflow also reduces the
    inflow it feeds downstream, so a stock's factor depends on the factors
    of the clamped stocks that feed it. Stocks outside a cycle of such
    flows are settled once each, upstream first. The rest (cycles, and
    what they feed) are iterated in declaration order until a pass changes
    nothing; factors only ever decrease. A cycle whose factors still move
    after 4n+8 passes, for n stocks, raises ClampError. Flows from outside
    the boundary or from unclamped stocks are never scaled.
    """

    def __init__(self, floored: tuple[bool, ...], endpoints: tuple[tuple[int, int], ...]):
        self.stocks = [i for i in range(len(floored))
                       if floored[i] and any(src == i for src, _ in endpoints)]
        clamped = set(self.stocks)
        # Per clamped stock: its inflows as (flow, clamped source or -1),
        # and its outflows.
        self.terms = {
            i: (tuple((j, src if src in clamped else -1)
                      for j, (src, dst) in enumerate(endpoints) if dst == i),
                tuple(j for j, (src, _) in enumerate(endpoints) if src == i))
            for i in self.stocks
        }
        self.scaled = tuple((j, src) for j, (src, _) in enumerate(endpoints) if src in clamped)

        feeds = {i: {src for _, src in self.terms[i][0] if src >= 0} for i in self.stocks}
        waiting = {i: len(up) for i, up in feeds.items()}
        order = [i for i in self.stocks if not waiting[i]]
        for i in order:  # grows while it is walked: Kahn's algorithm
            for j in self.stocks:
                if i in feeds[j]:
                    waiting[j] -= 1
                    if not waiting[j]:
                        order.append(j)
        self.settled = tuple(order)
        self.cyclic = tuple(i for i in self.stocks if waiting[i])
        self.max_passes = 4 * len(floored) + 8

    def __call__(self, names, x, raw, dt: float, t: float):
        """Realized flow rates for state `x` and raw rates `raw`; `raw`
        itself when nothing needs scaling. `names` are the stock names a
        ClampError reports."""
        scale = [1.0] * len(x)
        settle = self._settle
        scaled = [i for i in self.settled if settle(i, x, raw, dt, scale)]
        if self.cyclic:
            for _ in range(self.max_passes):
                moved = [i for i in self.cyclic if settle(i, x, raw, dt, scale)]
                if not moved:
                    break
                scaled += moved
            else:
                raise ClampError(tuple(names[i] for i in moved), t)
        if not scaled:
            return raw
        realized = list(raw)
        for j, src in self.scaled:
            realized[j] = raw[j] * scale[src]
        return realized

    def _settle(self, i: int, x, raw, dt: float, scale: list[float]) -> bool:
        """Lower stock i's factor if its outflows would overdraw it; True
        if the factor changed."""
        ins, outs = self.terms[i]
        out_raw = 0.0  # added as the step loop adds it, whatever `sum()` does
        for j in outs:
            out_raw += raw[j]
        if out_raw <= 0.0:
            return False
        inflow = 0.0
        for j, src in ins:
            inflow += raw[j] if src < 0 else raw[j] * scale[src]
        candidate = x[i] + dt * (inflow - scale[i] * out_raw)
        if candidate < -_CLAMP_TOL * max(1.0, abs(x[i])):
            wanted = max(0.0, (x[i] + dt * inflow) / (dt * out_raw))
            if wanted < scale[i] - 1e-15:
                scale[i] = wanted
                return True
        return False
