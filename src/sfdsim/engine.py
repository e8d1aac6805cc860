"""Fixed-step simulation engine.

Validates a `ModelSpec`, integrates it with Euler or classic Runge-Kutta
steps on a uniform time grid, applies scheduled events between steps, and
records a Trajectory. The Trajectory keeps the recorded times and rows as
the lists the loop builds, and its readers (`series`, `final`, `peak`,
`at`) read those. Its numpy views `times` and `values` are kept only for
`bench/tracer.py`; they are built on first access, so a run that never
asks for them never imports numpy.

A run is one call of a generated Python loop, from the first step to the
last; events fire inside it. There are two loops, from one emitter, and
the count of runs that `validate_model`'s record of a structure keeps
(`model._Emitted.runs`) chooses between them: a structure's first run
under a method takes the shared loop, and every later run of it, or of
a parameter, initial-value or schedule variant bound to it, takes the
structure's fused loop. A one-shot model, as the CLI runs, compiles only
its evaluator; a structure that runs again, as in the studies, pays one
more compile for a loop without a call per stage. A structure that
`validate_model` forgets and validates again counts from zero.

The shared loop's source depends only on the
model's topology: the method, which stocks are floored at zero, and each
flow's source and target (`segment_source`). It is compiled once per
topology and cached, so parameter and scenario variants, and models that
differ only in their expressions, share it. Inside the loop the stocks,
rates and flow integrals are Python locals; each stage calls the model's
generated evaluator (`ValidatedModel.evaluator`) once, and the stage
states, the RK4 combination, the stock updates, the floor, the finiteness
check and the flow integrals are inlined. The evaluator returns a whole
row of `Trajectory.columns`, its stock arguments first, so the loop
records the tuple it returns as it is. Every sum of rates is spelled out
as the float additions CPython 3.11's `sum()` performs, so results match
the former list-based loop bit for bit (and do not change with the
compensated float `sum()` of later versions). At a step where events
fire, the loop hands the stocks to the run's firing function
(`_event_firing`), which runs the model's generated actions
(`ValidatedModel.actions`) on them and the step's noise draw, and applies
their values by a plan made once per run. An action evaluates the model
itself, and only when it reads a flow or auxiliary, so the engine never
interprets an expression tree. The evaluator raises only NonFiniteError,
naming the variable behind a non-finite value or an arithmetic fault.

The fused loop (`_fused_source`) is compiled once per evaluator source,
topology and event plan, and bound once per run to the run's parameters.
Each stage runs the evaluator's own statements, from the same emission,
with the stage's stocks and time in place of the evaluator's, and tests
them with the evaluator's one sum; at a stop it applies the fired events'
action texts by the firing function's rules. On a fault or a sum that is
not finite it calls the evaluator, which raises the NonFiniteError the
shared loop would raise, so both loops give the same rows, events and
errors, bit for bit.

Determinism is a hard requirement: identical inputs produce byte-identical
CSV output, including under the stochastic `noise` builtin, whose draws are
keyed by (seed, day) rather than call order. A run's draws are computed
once, before the loop, each day once (`_noise_draws`); the loop only
indexes them. Draws are made only when some `noise()` scale can be
non-zero; otherwise noise reads as zero.

Negative stocks are prevented by a conserving clamp: when a step would push
a non-negative stock below zero, all outflows draining that stock are scaled
down by a common factor so the stock lands exactly on zero. The clamp is
straight-line code in the generated loop, and runs only on a step where
some clamped stock's unscaled update falls below
`-_CLAMP_TOL * max(1, |stock|)`, which is exactly when it would scale a
flow or raise. That bound and the clamp's factors are emitted as
conditional expressions with the builtins' values: the loop calls no `max`.
Scaling an outflow reduces the matching inflow of any downstream stock, so
scale factors are settled upstream first: once each, in topological order,
for stocks outside a cycle of flows, and iterated to a fixpoint for the
rest (`_clamp_order`). A fixpoint that does not converge raises
ClampError; mass is conserved through flow chains.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import expr as ex
from .errors import ClampError, EventGridError, NonFiniteError, NotRecordedError
from .model import ModelSpec, validate_model

if TYPE_CHECKING:
    import numpy as np

_GRID_TOL = 1e-9
_CLAMP_TOL = 1e-12
_MAX_STEPS = 10_000_000

METHODS = ("euler", "rk4")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Integration settings.

    `t_end == t_start` is allowed and yields a single recorded row of the
    initial state. `record_every` keeps one row per that many steps; the
    final time is always recorded. It and `seed` must be ints. A horizon
    of more than 10,000,000 steps (`_MAX_STEPS`) is refused.
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
        if not (isinstance(self.seed, int) and isinstance(self.record_every, int)):
            raise ValueError("seed and record_every must be integers")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    def step_count(self) -> int:
        """ValueError for over `_MAX_STEPS` steps, or a fractional number of them."""
        span = self.t_end - self.t_start
        if not span / self.dt <= _MAX_STEPS:  # also an infinite count
            raise ValueError(f"simulation horizon has over {_MAX_STEPS} steps of dt={self.dt:g}")
        steps = round(span / self.dt)
        if abs(self.t_start + steps * self.dt - self.t_end) > _GRID_TOL * max(
            1.0, abs(self.t_start), abs(self.t_end)
        ):
            raise ValueError("simulation horizon is not a whole number of steps")
        return steps


class EventRecord(NamedTuple):
    """One applied event action. `amount` is the removed quantity for
    subtract actions, the signed change for add, and the assigned value
    for set. A named tuple: it equals the plain tuple `(t, event, target,
    amount)`, and the engine builds it with `tuple.__new__`."""

    t: float
    event: str
    target: str
    amount: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded simulation output.

    `rows` holds one tuple per recorded time in `row_times`, with one value
    per variable in `columns` (stocks, then flows, then auxiliaries, in
    declaration order): the lists the step loop builds. Each row is the
    tuple the model's evaluator returned for that time and state.
    `series(name)` reads one column. `times` and `values`, numpy views of
    the lists built on first access, are kept only for `bench/tracer.py`.
    Flow columns are instantaneous rates as evaluated; `flow_integrals`
    holds each flow's realized time integral after clamp scaling, and
    `event_deltas` the net change events applied per stock, so that
    final stock = initial + inflow integrals - outflow integrals + events.
    """

    row_times: list[float] = field(repr=False)
    columns: tuple[str, ...]
    rows: list[tuple[float, ...]] = field(repr=False)
    events: tuple[EventRecord, ...]
    parameters: dict[str, float]
    flow_integrals: dict[str, float]
    event_deltas: dict[str, float]
    config: SimConfig
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.columns)})

    def _position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise NotRecordedError(f"no recorded column '{name}'") from None

    @cached_property
    def times(self) -> np.ndarray:
        import numpy as np

        return np.array(self.row_times, dtype=float)

    @cached_property
    def values(self) -> np.ndarray:
        """One row per recorded time, one column per entry of `columns`."""
        import numpy as np

        return np.array(self.rows, dtype=float).reshape(len(self.rows), len(self.columns))

    def series(self, name: str) -> list[float]:
        """One column's recorded values, as a list: the one column reader."""
        return list(map(itemgetter(self._position(name)), self.rows))

    def final(self, name: str) -> float:
        return float(self.rows[-1][self._position(name)])

    def peak(self, name: str) -> float:
        """The largest recorded value; a zero of either sign reads +0.0."""
        return float(max(map(itemgetter(self._position(name)), self.rows))) + 0.0

    def at(self, name: str, t: float) -> float:
        """Value at a recorded time; `t` must be on the recorded grid."""
        return float(self.rows[_time_index(self.row_times, t)][self._position(name)])

    def to_csv(self) -> str:
        row = "%.6f," + ",".join(["%.6f"] * len(self.columns))
        lines = ["t," + ",".join(self.columns)]
        lines += [row % (t, *values) for t, values in zip(self.row_times, self.rows)]
        return "\n".join(lines) + "\n"

    def events_to_csv(self) -> str:
        lines = ["t,event,target,amount"]
        for rec in self.events:
            lines.append(f"{rec.t:.6f},{rec.event},{rec.target},{rec.amount:.6f}")
        return "\n".join(lines) + "\n"


def _time_index(times: list[float], t: float) -> int:
    """The index in `times`, a run's recorded times, of the time that `t`
    stands for: the first within 1e-9 of it of the times at, before and
    after where it would sort. NotRecordedError if there is none."""
    idx = bisect_left(times, t)
    for i in (idx, idx - 1, idx + 1):
        if 0 <= i < len(times) and abs(times[i] - t) <= 1e-9:
            return i
    raise NotRecordedError(f"t={t:g} is not a recorded time")


def _row_times(config: SimConfig) -> list[float]:
    """The times a run of `config` records, computed as its loop computes
    them: every `record_every`-th step's, and the final time's."""
    steps = config.step_count()
    t0, dt = config.t_start, config.dt
    return [t0 + n * dt for n in range(0, steps, config.record_every)] + [t0 + steps * dt]


def run_simulation(spec: ModelSpec, config: SimConfig) -> Trajectory:
    """Validate `spec` and integrate it over the configured horizon.

    Raises what `validate_model` raises, EventGridError if an event
    schedule misses the step grid, NonFiniteError if any rate or stock
    leaves the finite range, and ClampError if the conserving clamp cannot
    settle a cycle of flows.
    """
    vm = validate_model(spec)
    steps = config.step_count()
    t_start, dt = config.t_start, config.dt

    stock_names = tuple(s.name for s in spec.stocks)
    flow_names = [f.name for f in spec.flows]
    columns = (*stock_names, *flow_names, *(a.name for a in spec.auxiliaries))
    event_steps = _event_schedule(spec, config, steps)
    stops = sorted(event_steps.items())
    if steps not in event_steps:
        stops.append((steps, None))
    topology = _topology(spec, config.method)
    draws = _noise_draws(vm.draws_noise, config, steps)

    n_stocks = len(stock_names)
    event_deltas = {name: 0.0 for name in stock_names}
    event_log: list[EventRecord] = []
    times: list[float] = []
    rows: list[tuple[float, ...]] = []

    args = (t_start, dt, config.record_every, times, rows, vm.evaluator, stock_names, *draws,
            *(float(s.initial) for s in spec.stocks), *[0.0] * len(flow_names))
    runs = vm._emitted.runs  # shared by the variants of this structure
    earlier = runs.get(config.method, 0)
    runs[config.method] = earlier + 1
    if earlier:
        segment = _fused(vm._emitted, topology, _event_plan(spec))(*vm.params.values())
        state = segment(stops, event_deltas, event_log.append, *args)
    else:
        state = _segment(*topology)(stops, _event_firing(vm, event_deltas, event_log), *args)
    t_end = t_start + steps * dt
    times.append(t_end)
    rows.append(vm.evaluator(t_end, draws[0][steps], *state[:n_stocks]))

    return Trajectory(
        row_times=times,
        columns=columns,
        rows=rows,
        events=tuple(event_log),
        parameters=dict(vm.params),
        flow_integrals=dict(zip(flow_names, state[n_stocks:])),
        event_deltas=event_deltas,
        config=config,
    )


def _noise_draws(noisy: bool, config: SimConfig, steps: int) -> tuple[list[float], ...]:
    """One list of draws per stage kind, indexed by step n: `g0` at
    `t = t0 + n * dt` for n <= steps, and for RK4 `gm` at `t + dt / 2` and
    `ge` at `t + dt` for n < steps, each time computed as the loop computes
    it (`floor(t + dt)` can differ from `floor(t0 + (n + 1) * dt)`). Each
    day is drawn once, in ascending order. Without noise, every kind is one
    shared list of zeros."""
    if not noisy:
        return ([0.0] * (steps + 1),) * (1 if config.method == "euler" else 3)
    t0, dt, h2 = config.t_start, config.dt, config.dt / 2
    times = [t0 + n * dt for n in range(steps + 1)]
    stages = [times] if config.method == "euler" else [
        times, [t + h2 for t in times[:-1]], [t + dt for t in times[:-1]]]
    days = [list(map(math.floor, stage)) for stage in stages]
    drawn = {day: ex.daily_gauss(config.seed, day) for day in sorted(set().union(*days))}
    return tuple([drawn[day] for day in stage] for stage in days)


def _topology(spec: ModelSpec, method: str) -> tuple:
    """What the generated step loop depends on: the method, each stock's
    floor, and each flow's (source, target) stock positions, -1 for the
    model boundary. Expressions and parameters never enter it."""
    position = {s.name: i for i, s in enumerate(spec.stocks)}
    return (
        method,
        tuple(s.non_negative for s in spec.stocks),
        tuple((position.get(f.source, -1), position.get(f.target, -1)) for f in spec.flows),
    )


def segment_source(method: str, floored: tuple[bool, ...],
                   endpoints: tuple[tuple[int, int], ...]) -> str:
    """Python source of the shared step loop for one topology (see
    `_topology`), which runs a structure's first run under a method.

    `segment(stops, fire, t0, dt, every, times, rows, evaluate, names,
    *draws, *stocks, *integrals)` runs a whole run from step 0, recording
    each step whose index is a multiple of `every`, and returns `(*stocks,
    *integrals)` at the last step. `stops` are `(n, fired)` pairs in
    ascending n, the last n being the step count: the loop runs the steps
    up to n, and if `fired` is not None it packs the stocks into a list
    `x`, calls `fire(fired, x, t0 + n * dt, g0[n])` and reads them back.
    `draws` are the run's lists from `_noise_draws` (`g0`, or `g0, gm, ge`
    for RK4); a stage reads `g0[n]`, `gm[n]` or `ge[n]`. A stage's
    `evaluate` returns the row `(*stocks, *flows, *auxiliaries)`: a step's
    row is recorded as it is, and flow j's rate is `o[ns + j]`, for ns
    stocks. Stock i is the local `x{i}`, flow j's rate `r{j}` (the RK4
    stage rates `ra{j}`, `rb{j}`, `rc{j}`) and its integral `i{j}`, and a
    clamped stock's scale factor `k{i}`. Every sum
    of rates is spelled out as `(0.0 + r1 + r2)`, the float additions of
    CPython 3.11's `sum()`. A stock's change is its inflows' sum minus its
    outflows', `0.0 - (…)` with no inflows and the inflows' sum alone with
    no outflows, the bits of subtracting `sum()`'s int 0 either way. No
    int literal enters float arithmetic: an int operand is converted to
    the same float on every use, so `2.0 * b` has the bits of `2 * b`. The
    conserving clamp is inlined as straight-line code (see `_clamp_order`).
    One test per step checks every stock with one sum, `(s := x0 + x1) - s
    != 0.0`; only if it fails are the stocks scanned in order, and
    NonFiniteError names the first in `names` that is not finite. A sum of
    finite stocks that overflows fails the test, and the scan finds none.
    The globals are `NonFiniteError` and `ClampError`.

    A structure that runs again under the method gets its own loop,
    `_fused_source`, from the same emitter (`_loop_source`): the same
    steps, stages, clamp and stock test, with the evaluator's statements
    written in place of each `evaluate` call and the fired events' actions
    in place of `fire`.
    """
    return _loop_source(method, floored, endpoints, None)


# An action's read `x[i]` of stock i, or a name, in generated text. A
# number's exponent matches as the name `e`; no renamed name is one.
_TOKEN = re.compile(r"x\[\d+\]|[A-Za-z_][A-Za-z0-9_]*")


def _renamed(text: str, names: dict[str, str]) -> str:
    """`text`, generated code, with each name or `x[i]` that is a key of
    `names` replaced by its value."""
    return _TOKEN.sub(lambda m: names.get(m[0], m[0]), text)


def _loop_source(method: str, floored: tuple[bool, ...],
                 endpoints: tuple[tuple[int, int], ...], inline: tuple | None) -> str:
    """The `segment` of `segment_source` if `inline` is None. Otherwise
    `inline` is `(emitted, plan)`, a structure's `model._Emitted` record
    and its `_event_plan`, and `segment` is that structure's fused loop
    (see `_fused_source`). Both are built by the code below, so they step,
    clamp and test the stocks alike; only the stages and the firings
    differ. The fused loop's own names differ from every name the
    evaluator's text uses: its step time is `tn`, its stock test's sum `z`,
    and the evaluator it falls back on `evaluator`; `_pick`'s temporaries
    `a{n}` and `b{n}` are no RK4 stage rate's."""
    ns, nf = len(floored), len(endpoints)
    ins = [[j for j, (_, dst) in enumerate(endpoints) if dst == i] for i in range(ns)]
    outs = [[j for j, (src, _) in enumerate(endpoints) if src == i] for i in range(ns)]
    clamped = [i for i in range(ns) if floored[i] and outs[i]]
    xs = [f"x{i}" for i in range(ns)]
    fused = inline is not None
    now, probe, evaluate = ("tn", "z", "evaluator") if fused else ("t", "s", "evaluate")

    def tup(names) -> str:
        return "(" + "".join(f"{v}, " for v in names) + ")"

    def total(flows, rate: str) -> str:
        return "(" + " + ".join(["0.0"] + [f"{rate}{j}" for j in flows]) + ")" if flows else "0.0"

    def advance(target: str, rate: str, h: str) -> list[str]:
        net = [f"({total(ins[i], rate)} - {total(outs[i], rate)})" if outs[i]
               else total(ins[i], rate) for i in range(ns)]
        return [f"{target}{i} = x{i} + {h} * {net[i]}" for i in range(ns)]

    if fused:
        emitted, plan = inline
        computed = emitted.row[ns:]
        reads_g = "g" in _TOKEN.findall(" ".join(text for _, text in emitted.statements))

    def stage(tv: str, g: str, stocks: str) -> list[str]:
        """Evaluate at time `tv`, draw `g` and stock locals `{stocks}{i}`:
        into `o`, or, fused, into the evaluator's own locals, its text run
        with `t` and the stocks read as these names. On a fault, or a sum
        that is not finite, the fused stage calls the evaluator, which
        raises NonFiniteError, or returns if only the sum overflowed."""
        state = [f"{stocks}{i}" for i in range(ns)]
        call = f"{evaluate}({', '.join([tv, g, *state])})"
        if not fused:
            return [f"o = {call}"]
        names = {**dict(zip(emitted.stocks, state)), "t": tv}
        body = [_renamed(f"{var} = {text}", names) for var, text in emitted.statements]
        if computed:
            body += [f"if (s := {emitted.total}) - s != 0.0:", f"    {call}"]
        lines = [f"g = {g}"] if reads_g else []
        if body:
            lines += ["try:", *("    " + line for line in body),
                      "except FAULTS_OR_UNBOUND:",
                      f"    {call}",
                      "    raise RuntimeError('the evaluator passed a state that its "
                      "inlined statements fault on')"]
        return lines

    def rate(j: int) -> str:
        """Flow j's rate as the last stage evaluated it."""
        return computed[j] if fused else f"o[{ns + j}]"

    # max(1.0, abs(x{i})), the scale of stock i's clamp tolerance, with no call.
    scale = [f"(x{i} if x{i} > 1.0 else -x{i} if x{i} < -1.0 else 1.0)" for i in range(ns)]

    def settle(i: int, on_drop: list[str]) -> list[str]:
        """Lower stock i's factor if its outflows, scaled by it, would
        overdraw it; an inflow from a clamped stock counts as scaled by
        that stock's factor. The lines `on_drop` run when the factor drops.
        A stock settled once still has the factor 1.0, and `1.0 * q` is
        `q`, so its factor is not read. The tolerance is negative, so
        `v < 0.0` is tested first, to skip computing its scale."""
        inflow = [f"r{j} * k{endpoints[j][0]}" if endpoints[j][0] in clamped else f"r{j}"
                  for j in ins[i]]
        scaled, factor = (f"k{i} * q", f"k{i}") if on_drop else ("q", "1.0")
        return [f"q = {total(outs[i], 'r')}",
                "if q > 0.0:",
                f"    p = ({' + '.join(['0.0', *inflow])})",
                f"    v = x{i} + dt * (p - {scaled})",
                f"    if v < 0.0 and v < {-_CLAMP_TOL!r} * {scale[i]}:",
                f"        w = (x{i} + dt * p) / (dt * q)",
                "        w = w if w > 0.0 else 0.0",
                f"        if w < {factor} - 1e-15:",
                f"            k{i} = w",
                *("            " + line for line in on_drop)]

    integrals = [f"i{j}" for j in range(nf)]
    row = tup([*xs, *computed]) if fused else "o"
    body = [f"{now} = t0 + n * dt", *stage(now, "g0[n]", "x"),
            "if n % every == 0:",
            f"    times.append({now})",
            f"    rows.append({row})"]
    if method == "euler":
        body += [f"r{j} = {rate(j)}" for j in range(nf)]
    else:
        # Classic fourth-order combination of per-flow rates. Stage states
        # are not clamped; the clamp sees the combined rates.
        body += [f"ra{j} = {rate(j)}" for j in range(nf)]
        body += advance("s", "ra", "h2") + [f"tm = {now} + h2", *stage("tm", "gm[n]", "s")]
        body += [f"rb{j} = {rate(j)}" for j in range(nf)]
        body += advance("s", "rb", "h2") + stage("tm", "gm[n]", "s")
        body += [f"rc{j} = {rate(j)}" for j in range(nf)]
        body += advance("s", "rc", "dt") + [f"te = {now} + dt", *stage("te", "ge[n]", "s")]
        body += [f"r{j} = (ra{j} + 2.0 * rb{j} + 2.0 * rc{j} + {rate(j)}) / 6.0"
                 for j in range(nf)]
    body += advance("y", "r", "dt")
    if clamped:
        # The clamp changes a rate only where a clamped stock's update
        # undershoots its tolerance, so it runs only then. A factor of 1.0
        # leaves a rate's bits as they are.
        short = " or ".join(f"(y{i} < 0.0 and y{i} < {-_CLAMP_TOL!r} * {scale[i]})"
                            for i in clamped)
        settled, cyclic = _clamp_order(clamped, endpoints)
        block = [f"k{i} = 1.0" for i in clamped]
        block += [line for i in settled for line in settle(i, [])]
        if cyclic:
            moved = [f"m{i}" for i in cyclic]
            block += [f"for _ in range({4 * ns + 8}):",
                      f"    {' = '.join(moved)} = False",
                      *("    " + line for i in cyclic for line in settle(i, [f"m{i} = True"])),
                      f"    if not ({' or '.join(moved)}):",
                      "        break",
                      "else:",
                      f"    raise ClampError(tuple(names[i] for i, m in "
                      f"{tup(f'({i}, m{i})' for i in cyclic)} if m), {now})"]
        block += [f"r{j} = r{j} * k{src}" for j, (src, _) in enumerate(endpoints)
                  if src in clamped]
        body += [f"if {short}:", *("    " + line for line in block + advance("y", "r", "dt"))]
    # A floored value is below the clamp tolerance once it has settled.
    body += [f"x{i} = 0.0 if y{i} < 0.0 else y{i}" if floored[i] else f"x{i} = y{i}"
             for i in range(ns)]
    if ns:
        body += [f"if ({probe} := {' + '.join(xs)}) - {probe} != 0.0:",
                 f"    for name, v in zip(names, {tup(xs)}):",
                 "        if v - v != 0.0:",
                 "            raise NonFiniteError(name, t0 + (n + 1) * dt)"]
    body += [f"i{j} = i{j} + dt * r{j}" for j in range(nf)]

    draws = ["g0"] if method == "euler" else ["g0", "gm", "ge"]
    events = ["deltas", "log_event"] if fused else ["fire"]
    params = ["stops", *events, "t0", "dt", "every", "times", "rows", evaluate, "names",
              *draws, *xs, *integrals]
    lines = [f"def segment({', '.join(params)}):"]
    if method == "rk4":
        lines.append("    h2 = dt / 2.0")
    lines += ["    n0 = 0", "    for n1, fired in stops:", "        for n in range(n0, n1):"]
    lines += ["            " + line for line in body]
    if not fused and ns:  # an event acts on a stock, so a model without one has none
        lines += ["        if fired is not None:",
                  f"            x = [{', '.join(xs)}]",
                  "            fire(fired, x, t0 + n1 * dt, g0[n1])",
                  f"            {', '.join(xs)}, = x"]
    elif fused and plan:
        lines += ["        if fired is not None:",
                  "            tv = t0 + n1 * dt",
                  "            for ev in fired:"]
        for k, ((name, applied), (values, reads)) in enumerate(zip(plan, emitted.actions)):
            firing = _firing_lines(name, applied, values, reads, ns)
            lines += [f"                {'el' if k else ''}if ev == {k}:",
                      *("                    " + line for line in firing)]
    lines += ["        n0 = n1", f"    return {tup([*xs, *integrals])}"]
    return "\n".join(lines) + "\n"


def _firing_lines(name: str, applied: tuple, values: tuple[str, ...], reads: bool,
                  ns: int) -> list[str]:
    """The fused loop's firing of one event at the stop time `tv`, by
    `_event_firing`'s rules: `values`, the action texts, read the
    pre-event stocks `x{i}` as the locals and `t` as `tv`; they call the
    evaluator first only if they read the row `o` (`reads`), and read
    their own `noise()` draw `g` as 0.0. A fault or a value that is not
    finite raises NonFiniteError naming `event <name>`. Then each action
    of `applied`, (stock index, stock name, op, floored), is applied in
    order, with the floor, its stock's entry of `deltas` and an
    EventRecord of its amount."""
    xs = [f"x{i}" for i in range(ns)]
    texts = [_renamed(text, {**{f"x[{i}]": x for i, x in enumerate(xs)}, "t": "tv"})
             for text in values]
    label = repr(f"event {name}")
    planned = [f"e{a}" for a in range(len(texts))]
    lines = [f"o = evaluator({', '.join(['tv', 'g0[n1]', *xs])})"] if reads else []
    if "g" in _TOKEN.findall(" ".join(texts)):
        lines.append("g = 0.0")
    lines += ["try:", *(f"    {e} = {text}" for e, text in zip(planned, texts)),
              "except FAULTS_OR_UNBOUND:",
              f"    raise NonFiniteError({label}, tv) from None",
              f"if not ({' and '.join(f'{e} - {e} == 0.0' for e in planned)}):",
              f"    raise NonFiniteError({label}, tv)"]
    for (i, target, op, floor), e in zip(applied, planned):
        new = {"add": f"old + {e}", "subtract": f"old - {e}", "set": e}[op]
        amount = {"add": "new - old", "subtract": "old - new", "set": "new"}[op]
        lines += [f"old = x{i}", f"new = {new}"]
        if floor:
            lines.append("new = 0.0 if new < 0.0 else new")
        lines += [f"x{i} = new",
                  f"deltas[{target!r}] += new - old",
                  f"log_event(record(EventRecord, (tv, {name!r}, {target!r}, {amount})))"]
    return lines


def _clamp_order(clamped: list[int],
                 endpoints: tuple[tuple[int, int], ...]) -> tuple[list[int], list[int]]:
    """The order in which the conserving clamp settles the `clamped`
    stocks, as `(settled, cyclic)`.

    When a step would push a non-negative stock below zero, every flow
    draining it is scaled by a common factor so that it lands on zero. A
    clamped stock (non-negative, with outflows) whose factor drops also
    shrinks the inflow it feeds downstream, so a stock's factor depends on
    the factors of the clamped stocks that feed it. `settled` holds the
    stocks outside a cycle of such flows, upstream first (Kahn's
    algorithm); each is settled once. `cyclic` holds the rest, the cycles
    and what they feed, in declaration order; they are settled in passes
    until one changes nothing, and factors only ever decrease. A cycle
    whose factors still move after 4n+8 passes, for n stocks, raises
    ClampError. Flows from outside the boundary or from unclamped stocks
    are never scaled.
    """
    feeds = {i: {src for src, dst in endpoints if dst == i and src in clamped} for i in clamped}
    waiting = {i: len(up) for i, up in feeds.items()}
    order = [i for i in clamped if not waiting[i]]
    for i in order:  # grows while it is walked: Kahn's algorithm
        for j in clamped:
            if i in feeds[j]:
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
    return order, [i for i in clamped if waiting[i]]


@lru_cache(maxsize=64)
def _segment(method: str, floored: tuple[bool, ...],
             endpoints: tuple[tuple[int, int], ...]) -> Callable[..., tuple]:
    """The compiled `segment` of `segment_source`, shared by every model
    with this topology. It is popped from its globals, so refcounting
    frees it once the cache drops it."""
    namespace = {"NonFiniteError": NonFiniteError, "ClampError": ClampError}
    source = segment_source(method, floored, endpoints)
    exec(compile(source, "<sfdsim step loop>", "exec"), namespace)
    return namespace.pop("segment")  # type: ignore[return-value]


def _fused_source(emitted, topology: tuple, plan: tuple) -> str:
    """Python source of the fused module of one structure: `emitted`, its
    `model._Emitted` record, run under `topology` with events by `plan`
    (see `_event_plan`).

    `bind(*params)` computes the values on parameters alone as the
    evaluator's `bind` does, each in its own `try`, and returns the loop
    defined inside it, `segment(stops, deltas, log_event, t0, dt, every,
    times, rows, evaluator, names, *draws, *stocks, *integrals)`, which
    reads them, and the parameters, as closure cells, as `evaluate` does.
    It runs a run as the shared loop does (see `segment_source`), with
    `evaluator`, the structure's generic evaluator bound to the same
    parameters, called only on a fault, a sum that is not finite or an
    action that reads a flow or auxiliary. Each stage runs the evaluator's
    statements with its stocks and time in place of `evaluate`'s, and
    checks them with its one-sum test; flow j's rate is its local, and a
    recorded step's row is the tuple of the stocks and the flows' and
    auxiliaries' locals. At a stop, each fired event's actions are applied
    as `_event_firing` applies them, writing to the dict `deltas` and
    passing each EventRecord to `log_event`.
    """
    loop = _loop_source(*topology, (emitted, plan))
    lines = [f"def bind({', '.join(emitted.params)}):"]
    for var, text in emitted.hoists:
        lines += [f"    try: {var} = {text}", "    except FAULTS_OR_UNBOUND: pass"]
    lines += [*("    " + line for line in loop.splitlines()), "    return segment"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def _fused(emitted, topology: tuple, plan: tuple) -> Callable[..., Callable[..., tuple]]:
    """The compiled `bind` of `_fused_source`, once per evaluator source,
    topology and event plan (`emitted` is equal to and hashed as its
    source). It is popped from its globals, so refcounting frees it once
    the cache drops it."""
    namespace = {**ex.CODEGEN_GLOBALS, "FAULTS_OR_UNBOUND": ex.FAULTS_OR_UNBOUND,
                 "NonFiniteError": NonFiniteError, "ClampError": ClampError,
                 "EventRecord": EventRecord, "record": tuple.__new__}
    source = _fused_source(emitted, topology, plan)
    exec(compile(source, "<sfdsim fused step loop>", "exec"), namespace)
    return namespace.pop("bind")  # type: ignore[return-value]


def _event_schedule(spec: ModelSpec, config: SimConfig, steps: int) -> dict[int, list[int]]:
    """Map step index (1-based end of step) to the indices of the events
    firing there, in declaration order.

    Every firing must land on the grid. Firings at or before t_start are
    skipped, without walking them: the first row is the initial condition
    by definition.
    """
    schedule: dict[int, list[int]] = {}
    for k, event in enumerate(spec.events):
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

        if n_int:
            # The first firing at step 1 or later.
            firings = range(n_start + max(0, (n_int - n_start) // n_int) * n_int,
                            steps + 1, n_int)
        else:
            firings = (n_start,) if 1 <= n_start <= steps else ()
        for n in firings:
            schedule.setdefault(n, []).append(k)
    return schedule


def _event_plan(spec: ModelSpec) -> tuple:
    """Per event, its name and, per action, the target stock's index and
    name, the op and whether the stock is floored: what firing the event
    reads of `spec` besides its generated action."""
    stocks = spec.stocks
    index = {s.name: i for i, s in enumerate(stocks)}
    return tuple((event.name, tuple((index[a.target], a.target, a.op,
                                     stocks[index[a.target]].non_negative)
                                    for a in event.actions))
                 for event in spec.events)


def _event_firing(vm, event_deltas, event_log) -> Callable[..., None]:
    """`fire(fired, x, t, draw)` applies each event fired at time t, by
    index, in declaration order, to the run's state `x` in place; stock i
    is `x[i]`. The shared step loop calls it; the fused loop applies the
    same rules in its own code (`_firing_lines`).

    An event's generated action computes all its values against the state
    before that event changes anything; they are then applied sequentially.
    An action that reads a flow or auxiliary evaluates the model with the
    step's noise draw `draw`. Non-negative stocks are floored at zero.
    Each event's plan is made once per run: the `event <name>` label its
    errors name, its name, its action, and its actions' part of
    `_event_plan`.
    """
    plans = [(f"event {name}", name, act, applied)
             for (name, applied), act in zip(_event_plan(vm.spec), vm.actions)]
    log, record = event_log.append, tuple.__new__

    def fire(fired, x, t, draw) -> None:
        for k in fired:
            label, name, act, applied = plans[k]
            try:
                planned = act(t, x, draw)
            except ex.FAULTS_OR_UNBOUND:
                raise NonFiniteError(label, t) from None
            if not all(map(math.isfinite, planned)):
                raise NonFiniteError(label, t)
            for (i, target, op, floored), v in zip(applied, planned):
                old = x[i]
                new = old + v if op == "add" else old - v if op == "subtract" else v
                if floored and new < 0.0:
                    new = 0.0
                x[i] = new
                event_deltas[target] += new - old
                amount = old - new if op == "subtract" else new if op == "set" else new - old
                log(record(EventRecord, (t, name, target, amount)))

    return fire
