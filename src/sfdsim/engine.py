"""Fixed-step simulation engine.

Integrates a validated model with Euler or classic Runge-Kutta steps on a
uniform time grid, applies scheduled events between steps, and records a
Trajectory. Every evaluation calls the model's generated evaluator
(`ValidatedModel.evaluator`); the state is a list of stock values, and the
stock updates run over inflow and outflow index tuples built once per run.
Determinism is a hard requirement: identical inputs produce byte-identical
CSV output, including under the stochastic `noise` builtin, whose draws are
keyed by (seed, day) rather than call order. Draws are made only when some
`noise()` scale can be non-zero; otherwise noise reads as zero.

Negative stocks are prevented by a conserving clamp: when a step would push
a non-negative stock below zero, all outflows draining that stock are scaled
down by a common factor so the stock lands exactly on zero. Scaling an
outflow reduces the matching inflow of any downstream stock, so scale
factors are settled upstream first: once each, in topological order, for
stocks outside a cycle of flows, and iterated to a fixpoint for the rest.
A fixpoint that does not converge raises ClampError; mass is conserved
through flow chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import ClampError, EventGridError, NonFiniteError
from .model import ModelSpec, ValidatedModel, validate_model

_GRID_TOL = 1e-9
_CLAMP_TOL = 1e-12

METHODS = ("euler", "rk4")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Integration settings.

    `t_end == t_start` is allowed and yields a single recorded row of the
    initial state. `record_every` keeps one row per that many steps; the
    final time is always recorded.
    """

    t_start: float = 0.0
    t_end: float = 365.0
    dt: float = 1.0
    method: str = "euler"
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("time bounds must be finite")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    def step_count(self) -> int:
        span = self.t_end - self.t_start
        steps = round(span / self.dt)
        if abs(self.t_start + steps * self.dt - self.t_end) > _GRID_TOL * max(
            1.0, abs(self.t_start), abs(self.t_end)
        ):
            raise ValueError("simulation horizon is not a whole number of steps")
        return steps


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One applied event action. `amount` is the removed quantity for
    subtract actions, the signed change for add, and the assigned value
    for set."""

    t: float
    event: str
    target: str
    amount: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded simulation output.

    `values` has one row per recorded time and one column per variable in
    `columns` (stocks, then flows, then auxiliaries, in declaration order).
    Flow columns are instantaneous rates as evaluated; `flow_integrals`
    holds each flow's realized time integral after clamp scaling, and
    `event_deltas` the net change events applied per stock, so that
    final stock = initial + inflow integrals - outflow integrals + events.
    """

    times: np.ndarray
    columns: tuple[str, ...]
    values: np.ndarray
    events: tuple[EventRecord, ...]
    parameters: dict[str, float]
    flow_integrals: dict[str, float]
    event_deltas: dict[str, float]
    config: SimConfig
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.columns)})

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self._index[name]]
        except KeyError:
            raise KeyError(f"no recorded column '{name}'") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def final(self, name: str) -> float:
        return float(self.column(name)[-1])

    def peak(self, name: str) -> float:
        return float(self.column(name).max())

    def at(self, name: str, t: float) -> float:
        """Value at a recorded time; `t` must be on the recorded grid."""
        idx = np.searchsorted(self.times, t)
        for i in (idx, idx - 1, idx + 1):
            if 0 <= i < len(self.times) and abs(float(self.times[i]) - t) <= 1e-9:
                return float(self.column(name)[i])
        raise KeyError(f"t={t:g} is not a recorded time")

    def to_csv(self) -> str:
        lines = ["t," + ",".join(self.columns)]
        for i, t in enumerate(self.times):
            row = self.values[i]
            lines.append(f"{t:.6f}," + ",".join(f"{v:.6f}" for v in row))
        return "\n".join(lines) + "\n"

    def events_to_csv(self) -> str:
        lines = ["t,event,target,amount"]
        for rec in self.events:
            lines.append(f"{rec.t:.6f},{rec.event},{rec.target},{rec.amount:.6f}")
        return "\n".join(lines) + "\n"


def run_simulation(model: ModelSpec | ValidatedModel, config: SimConfig) -> Trajectory:
    """Integrate `model` over the configured horizon.

    Raises EventGridError if an event schedule misses the step grid,
    NonFiniteError if any rate or stock leaves the finite range, and
    ClampError if the conserving clamp cannot settle a cycle of flows.
    """
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
        """Flows then auxiliaries at stock values `x` and time `tv`."""
        nonlocal noise_day, g
        if draws_noise:
            day = math.floor(tv)
            if day != noise_day:  # evaluation times never decrease
                noise_day, g = day, ex.daily_gauss(seed, day)
        try:
            return evaluator(tv, g, *x)
        except (ZeroDivisionError, OverflowError, ValueError):
            _name_failure(vm, x, tv, g)
            raise

    def advance(base: list[float], rates, h: float) -> list[float]:
        rate = rates.__getitem__
        return [v + h * (sum(map(rate, i)) - sum(map(rate, o)))
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
            # Classic fourth-order combination of per-flow rates. Stage
            # states are not clamped; the clamp sees the combined rates.
            k2 = evaluate(advance(x, k1, dt / 2), t_n + dt / 2)
            k3 = evaluate(advance(x, k2, dt / 2), t_n + dt / 2)
            k4 = evaluate(advance(x, k3, dt), t_n + dt)
            rates = [(a + 2 * b + 2 * c + d) / 6 for a, b, c, d in zip(k1, k2, k3, k4)]

        if clamp.stocks:
            rates = clamp(x, rates, dt, t_n)
        t_next = config.t_start + (n + 1) * dt
        # A floored value is below the clamp tolerance once it has settled.
        x = [0.0 if f and v < 0.0 else v for v, f in zip(advance(x, rates, dt), floored)]
        if not all(map(math.isfinite, x)):
            bad = next(i for i, v in enumerate(x) if not math.isfinite(v))
            raise NonFiniteError(stock_names[bad], t_next)
        integrals = [total + dt * r for total, r in zip(integrals, rates)]

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


def _name_failure(vm: ValidatedModel, x: list[float], t: float, g: float) -> None:
    """Re-run one evaluation on the tree interpreter to name the variable
    behind an arithmetic fault of the generated evaluator."""
    env = dict(vm.params)
    env.update(zip(vm.stocks, x))
    for name in vm.order:
        try:
            v = ex.eval_expression(vm.expressions[name], env, t, g)
        except (ZeroDivisionError, OverflowError, ValueError):
            raise NonFiniteError(name, t) from None
        if not math.isfinite(v):
            raise NonFiniteError(name, t)
        env[name] = v


def _event_schedule(spec: ModelSpec, config: SimConfig, steps: int) -> dict[int, list]:
    """Map step index (1-based end of step) to the events firing there.

    Every firing must land on the grid. Firings at t_start are skipped: the
    first row is the initial condition by definition.
    """
    schedule: dict[int, list] = {}
    for event in spec.events:
        rel = (event.start - config.t_start) / config.dt
        n_start = round(rel)
        if abs(rel - n_start) > _GRID_TOL:
            raise EventGridError(
                f"event '{event.name}' start {event.start:g} is off the dt={config.dt:g} grid"
            )
        if event.interval > 0:
            ri = event.interval / config.dt
            n_int = round(ri)
            if n_int == 0 or abs(ri - n_int) > _GRID_TOL:
                raise EventGridError(
                    f"event '{event.name}' interval {event.interval:g} is off the "
                    f"dt={config.dt:g} grid"
                )
        else:
            n_int = 0

        n = n_start
        while n <= steps:
            if n >= 1:
                schedule.setdefault(n, []).append(event)
            if n_int == 0:
                break
            n += n_int
    return schedule


def _fire_events(vm, fired, x, t, evaluate, event_deltas, event_log) -> None:
    """Apply each fired event in declaration order.

    All of one event's action expressions are evaluated against a snapshot
    taken before that event changes anything, then applied sequentially.
    Non-negative stocks are floored at zero.
    """
    index = {name: i for i, name in enumerate(vm.stocks)}
    computed = [d.name for d in (*vm.spec.flows, *vm.spec.auxiliaries)]
    for event in fired:
        env = dict(vm.params)
        env.update(zip(vm.stocks, x))
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

    def __init__(self, vm: ValidatedModel, flow_index: dict[str, int]):
        self.names = list(vm.stocks)
        position = {name: i for i, name in enumerate(self.names)}
        self.stocks = [i for i, name in enumerate(self.names)
                       if vm.stocks[name].non_negative and vm.outflows[name]]
        clamped = set(self.stocks)
        source = {f.name: position[f.source] if f.source in position else -1
                  for f in vm.spec.flows}
        # Per clamped stock: its inflows as (flow, clamped source or -1),
        # and its outflows.
        self.terms = {}
        for i in self.stocks:
            name = self.names[i]
            ins = tuple((flow_index[f], source[f] if source[f] in clamped else -1)
                        for f in vm.inflows[name])
            self.terms[i] = (ins, tuple(flow_index[f] for f in vm.outflows[name]))
        self.scaled = tuple((flow_index[f], src) for f, src in source.items() if src in clamped)

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
        self.max_passes = 4 * len(self.names) + 8

    def __call__(self, x: list[float], raw, dt: float, t: float):
        """Realized flow rates for state `x` and raw rates `raw`; `raw`
        itself when nothing needs scaling."""
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
                raise ClampError(tuple(self.names[i] for i in moved), t)
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
        out_raw = sum(map(raw.__getitem__, outs))
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
