"""Model definitions and structural validation.

A model is a declarative bundle of stocks, flows, auxiliaries, parameters,
and scheduled events. `validate_model` checks it for duplicate names,
undefined references, dependency cycles, unit mismatches and parameters
outside their declared bounds, and returns a `ValidatedModel` carrying the
dependency-sorted evaluation order and the generated code the engine runs,
bound to the parameters: the evaluator, the event actions and whether
noise is drawn. The generated code names its own faults, so nothing walks
an expression tree after validation.
`validate_model` remembers the last structure it validated. A variant of
it in values or schedules, as `ModelSpec.with_*` and `dataclasses.replace`
make, has only those checked (`_variant_checked`) and takes its code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

from . import expr as ex
from .errors import (
    CycleError,
    DuplicateNameError,
    InvalidParameterError,
    ModelError,
    NonFiniteError,
    UnitError,
    UnknownSymbolError,
)

EVENT_OPS = ("add", "subtract", "set")


@dataclass(frozen=True, slots=True)
class StockDef:
    """A conserved accumulator integrated over time."""

    name: str
    initial: float
    unit: str = ""
    non_negative: bool = True


@dataclass(frozen=True, slots=True)
class FlowDef:
    """A rate moving material out of `source` and into `target`.

    Either endpoint may be None (material enters from or leaves to outside
    the model boundary). Units are per day: a flow attached to a stock
    measured in `m3` carries unit `m3/day`.
    """

    name: str
    expression: ex.Expr
    source: str | None = None
    target: str | None = None
    unit: str = ""


@dataclass(frozen=True, slots=True)
class AuxDef:
    """A named intermediate value recomputed at every evaluation."""

    name: str
    expression: ex.Expr
    unit: str = ""


@dataclass(frozen=True, slots=True)
class ParamDef:
    """A constant the scenario layer may override. `bound` is the range
    its value must lie in, (">", x) or (">=", x); None allows any finite
    value."""

    name: str
    value: float
    unit: str = ""
    bound: tuple[str, float] | None = None

    def check(self, value: float) -> None:
        """ModelError if `value` is not finite or `bound` is not one of
        the two forms; InvalidParameterError, naming this parameter, if
        `value` is outside `bound`."""
        if not math.isfinite(value):
            raise ModelError(f"parameter '{self.name}' has non-finite value")
        if self.bound is not None:
            op, limit = self.bound
            if op not in (">", ">="):
                raise ModelError(f"parameter '{self.name}' has unknown bound '{op}'")
            if not (value > limit if op == ">" else value >= limit):
                raise InvalidParameterError(
                    self.name, f"must be {op} {ex.format_number(limit)}, "
                    f"got {ex.format_number(value)}")


@dataclass(frozen=True, slots=True)
class EventAction:
    """One assignment applied to a stock when an event fires.

    `op` is one of "add", "subtract", "set". All action expressions of an
    event are evaluated against the pre-event state before any is applied,
    so later actions may reference the amounts earlier ones will move.
    """

    target: str
    op: str
    expression: ex.Expr


@dataclass(frozen=True, slots=True)
class EventDef:
    """A discrete intervention fired on a fixed schedule.

    Fires at t = start, start + interval, start + 2*interval, ... An
    interval of 0 means the event fires once, at `start`. Firings must land
    on the integration grid; the engine rejects schedules that do not.
    """

    name: str
    start: float
    interval: float
    actions: tuple[EventAction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """A complete model as authored, before validation.

    Its groups are held as tuples, as are each event's actions and each
    call's arguments, so a spec cannot change once built. A list given is
    copied; a tuple is kept, so a copy shares the groups it does not
    replace."""

    name: str
    stocks: tuple[StockDef, ...] = ()
    flows: tuple[FlowDef, ...] = ()
    auxiliaries: tuple[AuxDef, ...] = ()
    parameters: tuple[ParamDef, ...] = ()
    events: tuple[EventDef, ...] = ()

    def __post_init__(self) -> None:
        for group in ("stocks", "flows", "auxiliaries", "parameters", "events"):
            object.__setattr__(self, group, tuple(getattr(self, group)))

    def param(self, name: str) -> float:
        for p in self.parameters:
            if p.name == name:
                return p.value
        raise UnknownSymbolError(f"no parameter named '{name}'")

    def with_params(self, overrides: dict[str, float]) -> ModelSpec:
        """Copy of the model with the given parameter values replaced."""
        parameters = _overridden(self.parameters, overrides, "parameter",
                                 lambda p, value: ParamDef(p.name, value, p.unit, p.bound))
        return ModelSpec(self.name, self.stocks, self.flows, self.auxiliaries, parameters,
                         self.events)

    def with_initial(self, overrides: dict[str, float]) -> ModelSpec:
        """Copy of the model with the given stock initial values replaced."""
        stocks = _overridden(self.stocks, overrides, "stock",
                             lambda s, value: StockDef(s.name, value, s.unit, s.non_negative))
        return ModelSpec(self.name, stocks, self.flows, self.auxiliaries, self.parameters,
                         self.events)

    def with_event_schedule(self, name: str, start: float | None = None,
                            interval: float | None = None) -> ModelSpec:
        """Copy of the model with one event's schedule changed."""
        if all(e.name != name for e in self.events):
            raise UnknownSymbolError(f"no event named '{name}'")
        events = tuple(
            replace(
                e,
                start=float(start) if start is not None else e.start,
                interval=float(interval) if interval is not None else e.interval,
            )
            if e.name == name
            else e
            for e in self.events
        )
        return replace(self, events=events)


def _overridden(defs: tuple, overrides: dict[str, float], kind: str,
                rebuilt: Callable[..., object]) -> tuple:
    """`defs` with each one named in `overrides` replaced by `rebuilt(d,
    value)`, its value as a float; the others are kept, the very objects.
    UnknownSymbolError names the first unknown name, in sorted order, as a
    `kind`."""
    missing = sorted(set(overrides) - {d.name for d in defs})
    if missing:
        raise UnknownSymbolError(f"no {kind} named '{missing[0]}'")
    return tuple(rebuilt(d, float(overrides[d.name])) if d.name in overrides else d
                 for d in defs)


@dataclass(frozen=True)
class ValidatedModel:
    """A model whose structure has been checked, with its generated code
    bound to its parameters.

    `source` is the Python source of `bind(*params) -> (evaluator, actions,
    noisy)`, emitted once by `validate_model`; `evaluator`, `actions` and
    `draws_noise` are what it returns for `params`:

    - `evaluator(t, g, *stocks)` gives a whole row of `Trajectory.columns`
      for stock values in declaration order: the stocks, the very floats
      passed in, then every flow, then every auxiliary, in declaration
      order. It raises only NonFiniteError, naming `t` and the first
      variable in `order` that faults or is not finite.
    - `bind` computes the values that read only parameters once, and the
      evaluator reads them. One that faults in `bind` stays unbound; the
      evaluator raises for it only where it reads it, naming the variable
      that reads it and `t`, as if it had computed the value itself.
    - Per event, `act(t, x, draw)` gives its action values for the run's
      state `x`, stock i being `x[i]`, with its own `noise()` read as 0.
      Only if one of its expressions reads a flow or auxiliary does it
      call the evaluator, at `t` with the noise draw `draw`. It raises one of
      `ex.FAULTS_OR_UNBOUND`, NameError for a value that faulted in `bind`.
    - `draws_noise` is whether some `noise()` scale can be non-zero; if
      not, the engine skips the daily draws and runs with g = 0.

    It is for inspection: runs and studies take the `ModelSpec`. While it
    is the last model `validate_model` built, a variant of `spec` validated
    shares its order, source, compiled code and `_emitted` record.
    """

    spec: ModelSpec
    order: tuple[str, ...]  # aux and flow names in evaluation order
    params: dict[str, float] = field(repr=False)
    source: str = field(repr=False)
    evaluator: Callable[..., tuple[float, ...]] = field(repr=False, compare=False)
    actions: tuple[Callable[..., tuple], ...] = field(repr=False, compare=False)
    draws_noise: bool
    _emitted: _Emitted = field(repr=False, compare=False)

    def _rebound(self, spec: ModelSpec, params: dict[str, float]) -> ValidatedModel:
        """This model for `spec`, a variant of its structure, with the code
        bound to `params`, the checked parameter values of `spec`."""
        evaluator, actions, noisy = _compile_evaluator(self.source)(*params.values())
        return ValidatedModel(spec, self.order, params, self.source, evaluator, actions, noisy,
                              self._emitted)


class _Emitted:
    """What `_evaluator_source` emitted for one validated structure, in the
    pieces that the engine's fused step loop inlines: `bind`'s parameters
    and its statements on parameters alone, as (local, text) pairs in
    order; `evaluate`'s stock locals, its (local, text) statements, its sum
    and the locals of its row; and per event, its action value texts and
    whether they read the row `o`. Every piece is text of `source`, so a
    record is equal to, and hashed as, its `source`.

    `runs` counts the runs of the structure per method: the variants that
    `validate_model` binds to this structure share the record. The engine
    runs a structure's first run under a method on the shared step loop,
    and later ones on the fused loop.

    A plain class: defining it takes about 10 µs at import, a frozen
    dataclass about 0.7 ms (CPython 3.11, 2-vCPU Xeon)."""

    __slots__ = ("source", "params", "hoists", "stocks", "statements", "total", "row",
                 "actions", "runs")

    def __init__(self, source: str, params: tuple[str, ...],
                 hoists: tuple[tuple[str, str], ...], stocks: tuple[str, ...],
                 statements: tuple[tuple[str, str], ...], total: str, row: tuple[str, ...],
                 actions: tuple[tuple[tuple[str, ...], bool], ...]) -> None:
        self.source, self.params, self.hoists, self.stocks = source, params, hoists, stocks
        self.statements, self.total, self.row, self.actions = statements, total, row, actions
        self.runs: dict[str, int] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Emitted) and other.source == self.source

    def __hash__(self) -> int:
        return hash(self.source)


def _evaluator_source(spec: ModelSpec, order: tuple[str, ...], expressions: dict[str, ex.Expr],
                      scales: list[ex.Expr], events: list[set[str]]) -> _Emitted:
    """Python source of `bind(*params) -> (evaluator, actions, noisy)`
    (see `ValidatedModel`), in an `_Emitted` record with the pieces of it
    that the fused step loop inlines. Every model name `x` is the local
    `_x`, except that an action reads stock i as `x[i]` and flow or
    auxiliary j as `o[ns + j]`, for ns stocks: its place in the
    evaluator's row.
    `scales` are the `noise()` scales of the flows and auxiliaries, and
    `events` the names each event's actions read, as
    `ex.validate_expression` collects them.

    `bind` first computes, in evaluation order, each variable that is an
    operation or call on parameters and such variables only, and in every
    other variable each maximal operation or call subtree that is; a bare
    parameter or number is left in place. `evaluate` reads these values as
    closure variables, a subtree as a local `_k`, k at least the number
    of model names. Each distinct text is computed once: a later variable
    or subtree of the same text reads the local that holds it.
    Each is assigned in its own `try`, so one that faults, or reads one
    that did, stays unbound. `evaluate` computes the rest of `order`, then
    tests that all of `order` is finite with one sum, `(s := _a + _b) - s
    == 0.0`: a sum of finite floats is finite or overflows, and an
    infinite or NaN term makes it non-finite. Only if that test fails does
    `first_bad` scan the module-level `ORDER`, (name, local) pairs, in
    `evaluate`'s own `locals()`; it finds nothing if the sum overflowed.
    A fault, the NameError of an unbound read, or a value that is not
    finite names the first variable in `order` that is unbound or not
    finite, by the same scan. An action
    hoists its subtrees on parameters alone the same way, by the same texts,
    but reads each flow and auxiliary from `o`, computed whole or not, and
    a whole value on parameters alone reads the local of its text if any."""
    names = [d.name for group in (spec.stocks, spec.parameters, spec.auxiliaries,
                                  spec.flows) for d in group]
    local = {
        name: f"_{name}" if name.isidentifier() and name.isascii() else f"_{i}"
        for i, name in enumerate(names)
    }

    def tup(items) -> str:
        return "(" + "".join(f"{v}, " for v in items) + ")"

    stocks = [local[s.name] for s in spec.stocks]
    computed = [d.name for d in (*spec.flows, *spec.auxiliaries)]
    arguments = [local[p.name] for p in spec.parameters]
    lines = [f"def bind({', '.join(arguments)}):"]
    hoists: list[tuple[str, str]] = []
    body: list[tuple[str, str]] = []
    params = {p.name for p in spec.parameters}
    fixed = set(params)
    hoisted: dict[str, str] = {}

    def assign(var: str, text: str) -> None:
        hoists.append((var, text))
        lines.extend((f"    try: {var} = {text}", "    except FAULTS_OR_UNBOUND: pass"))

    def hoist(text: str) -> str:
        if text not in hoisted:
            hoisted[text] = f"_{len(names) + len(hoisted)}"
            assign(hoisted[text], text)
        return hoisted[text]

    for name in order:
        var, expression = local[name], expressions[name]
        text, whole = ex.hoisting_source(expression, local.__getitem__, fixed, hoist)
        if whole and isinstance(expression, (ex.BinOp, ex.Call)):
            fixed.add(name)
            assign(var, hoisted.get(text, text))
            hoisted.setdefault(text, var)
        else:
            body.append((var, text))
    total = " + ".join(local[name] for name in order) or "0.0"
    row = (*stocks, *(local[name] for name in computed))
    lines += [f"    def evaluate({', '.join(['t', 'g', *stocks])}):", "        try:",
              *(f"            {var} = {text}" for var, text in body),
              f"            if (s := {total}) - s == 0.0 or first_bad(ORDER, locals()) is None:",
              f"                return {tup(row)}",
              "        except FAULTS_OR_UNBOUND:",
              "            pass",
              "        raise NonFiniteError(first_bad(ORDER, locals()), t)"]
    reads = {**local, **{s.name: f"x[{i}]" for i, s in enumerate(spec.stocks)},
             **{name: f"o[{j}]" for j, name in enumerate(computed, len(stocks))}}
    state = ", ".join(["t", "draw", *(f"x[{i}]" for i in range(len(stocks)))])
    actions = []
    for k, (event, read) in enumerate(zip(spec.events, events)):
        # Walk every action first: a later one may hoist a whole value's text.
        values = [ex.hoisting_source(a.expression, reads.__getitem__, params, hoist)
                  for a in event.actions]
        values = [hoisted.get(text, text) if whole else text for text, whole in values]
        actions.append((tuple(values), not read.isdisjoint(computed)))
        lines += [f"    def act{k}(t, x, draw):", "        g = 0.0"]
        if actions[-1][1]:
            lines.append(f"        o = evaluate({state})")
        lines.append(f"        return {tup(values)}")
    # Noise is drawn if a scale reads state, time or noise, or if one of
    # parameters and constants is non-zero or faults.
    walks = [ex.hoisting_source(scale, local.__getitem__, params, None) for scale in scales]
    if scales and all(invariant for _, invariant in walks):
        tests = " or ".join(f"{text} != 0.0" for text, _ in walks)
        lines += ["    try:", f"        noisy = {tests}", "    except FAULTS:", "        noisy = True"]
    else:
        lines.append(f"    noisy = {bool(scales)}")
    lines += [f"    return evaluate, {tup(f'act{k}' for k in range(len(spec.events)))}, noisy",
              f"ORDER = {tup((name, local[name]) for name in order)}"]
    return _Emitted("\n".join(lines) + "\n", tuple(arguments), tuple(hoists), tuple(stocks),
                    tuple(body), total, row, tuple(actions))


@lru_cache(maxsize=64)
def _compile_evaluator(source: str) -> Callable[..., tuple]:
    """The `bind` function defined by `source`. Models that differ only in
    parameter values share the source, so they compile it once.

    `bind` is popped from its globals, so no cycle holds it: once the cache
    drops it and no model holds what it returned, refcounting frees it."""
    namespace: dict[str, object] = {**ex.CODEGEN_GLOBALS, "FAULTS": ex.FAULTS,
                                    "FAULTS_OR_UNBOUND": ex.FAULTS_OR_UNBOUND,
                                    "NonFiniteError": NonFiniteError, "first_bad": _first_bad}
    exec(compile(source, "<sfdsim evaluator>", "exec"), namespace)
    return namespace.pop("bind")  # type: ignore[return-value]


def _first_bad(order: tuple[tuple[str, str], ...], values: dict[str, object]) -> str | None:
    """The first name in `order`, pairs of a variable's name and its local,
    whose local is unbound in `values` or not finite; None if every one is
    bound and finite, as when only their sum overflowed."""
    return next((name for name, var in order
                 if var not in values or values[var] - values[var] != 0.0), None)


def _check_initial(stock: StockDef) -> None:
    if not math.isfinite(stock.initial):
        raise ModelError(f"stock '{stock.name}' has non-finite initial value")


def _check_schedule(event: EventDef) -> None:
    if not (math.isfinite(event.start) and math.isfinite(event.interval)):
        raise ModelError(f"event '{event.name}' has a non-finite schedule")
    if event.start < 0 or event.interval < 0:
        raise ModelError(f"event '{event.name}' has a negative schedule")


# The last model `validate_model` built.
_last: ValidatedModel | None = None


def _variant_checked(spec: ModelSpec, known: ModelSpec) -> bool:
    """Whether `spec` differs from `known`, a spec that passed
    `validate_model`, only in values, schedules and `non_negative`, which
    never enter the code: it has the very `flows`, `auxiliaries` and event
    `actions` tuples (`Num(0.0) == Num(-0.0)`, but their code differs), and
    the same parameter names and stock names and units, in order. If so,
    its stocks, parameters and events that are not the very objects of
    `known` in their place are checked, in order, as `validate_model` does."""
    stocks = [(s, k) for s, k in zip(spec.stocks, known.stocks) if s is not k]
    params = [(p, k) for p, k in zip(spec.parameters, known.parameters) if p is not k]
    if not (spec.flows is known.flows and spec.auxiliaries is known.auxiliaries
            and len(spec.stocks) == len(known.stocks)
            and len(spec.parameters) == len(known.parameters)
            and len(spec.events) == len(known.events)
            and all((s.name, s.unit) == (k.name, k.unit) for s, k in stocks)
            and all(p.name == k.name for p, k in params)
            and all(e.actions is k.actions for e, k in zip(spec.events, known.events))):
        return False
    for s, _ in stocks:
        _check_initial(s)
    for p, _ in params:
        p.check(p.value)
    for e, k in zip(spec.events, known.events):
        if e is not k:
            _check_schedule(e)
    return True


def validate_model(spec: ModelSpec) -> ValidatedModel:
    """Check `spec`, derive its evaluation order, and generate its code and
    bind it to the parameters.

    Raises DuplicateNameError, UnknownSymbolError, CycleError, UnitError,
    InvalidParameterError for a parameter outside its bound, or ModelError.
    Event grid alignment is checked at simulation time because it depends
    on the step size.

    The last model built is remembered. A variant of its spec has only the
    objects it does not share with that spec checked, by
    `_variant_checked`, and that model's code is bound to its parameters.
    """
    global _last
    last = _last
    if last is not None and _variant_checked(spec, last.spec):
        return last._rebound(spec, {p.name: p.value for p in spec.parameters})

    seen: set[str] = set()
    for name in (d.name for group in (spec.stocks, spec.flows, spec.auxiliaries,
                                      spec.parameters) for d in group):
        if name == "t":
            raise DuplicateNameError("'t' is reserved for simulation time")
        if name in seen:
            raise DuplicateNameError(f"'{name}' is defined more than once")
        seen.add(name)

    stocks = {s.name: s for s in spec.stocks}
    expressions = {d.name: d.expression for d in (*spec.auxiliaries, *spec.flows)}

    for s in spec.stocks:
        _check_initial(s)
    for p in spec.parameters:
        p.check(p.value)
    params = {p.name: p.value for p in spec.parameters}

    known = seen | {"t"}
    reads: dict[str, set[str]] = {}
    scales: list[ex.Expr] = []
    for name, expression in expressions.items():
        try:
            reads[name], _ = ex.validate_expression(expression, known, scales=scales)
        except (UnknownSymbolError, ValueError) as err:
            raise type(err)(f"in '{name}': {err}") from None

    for f in spec.flows:
        if f.source is None and f.target is None:
            raise ModelError(f"flow '{f.name}' is attached to no stock")
        for endpoint in (f.source, f.target):
            if endpoint is None:
                continue
            if endpoint not in stocks:
                raise UnknownSymbolError(
                    f"flow '{f.name}' references unknown stock '{endpoint}'"
                )
            stock_unit = stocks[endpoint].unit
            if f.unit and stock_unit and f.unit != f"{stock_unit}/day":
                raise UnitError(
                    f"flow '{f.name}' has unit '{f.unit}' but stock "
                    f"'{endpoint}' needs '{stock_unit}/day'"
                )

    events: list[set[str]] = []
    for e in spec.events:
        _check_schedule(e)
        if not e.actions:
            raise ModelError(f"event '{e.name}' has no actions")
        read: set[str] = set()
        for act in e.actions:
            if act.op not in EVENT_OPS:
                raise ModelError(f"event '{e.name}': unknown action op '{act.op}'")
            if act.target not in stocks:
                raise UnknownSymbolError(
                    f"event '{e.name}' targets unknown stock '{act.target}'"
                )
            try:
                ex.validate_expression(act.expression, known, read)
            except (UnknownSymbolError, ValueError) as err:
                raise type(err)(f"in event '{e.name}': {err}") from None
        events.append(read)

    order = _evaluation_order(spec, reads)
    emitted = _evaluator_source(spec, order, expressions, scales, events)
    evaluator, actions, noisy = _compile_evaluator(emitted.source)(*params.values())
    model = ValidatedModel(spec, order, params, emitted.source, evaluator, actions, noisy,
                           emitted)
    _last = model
    return model


def _evaluation_order(spec: ModelSpec, reads: dict[str, set[str]]) -> tuple[str, ...]:
    """Dependency-sort auxiliaries and flows, preserving declaration order.

    `reads` maps each auxiliary and flow to the names its expression reads.
    Only references between computed variables form edges; stocks and
    parameters are plain state. Depth-first postorder gives a deterministic
    order; a back edge is reported as CycleError with the cycle path. The
    search keeps its own stacks, so a long chain does not recurse.
    """
    deps = {name: [d for d in sorted(names) if d in reads] for name, names in reads.items()}

    order: list[str] = []
    state: dict[str, int] = {}  # 0 absent, 1 visiting, 2 done
    for root in [a.name for a in spec.auxiliaries] + [f.name for f in spec.flows]:
        if state.get(root):
            continue
        # `path` holds the names being visited, `pending` their unvisited deps.
        state[root] = 1
        path, pending = [root], [iter(deps[root])]
        while pending:
            for dep in pending[-1]:
                mark = state.get(dep, 0)
                if mark == 1:
                    raise CycleError(path[path.index(dep):] + [dep])
                if mark == 0:
                    state[dep] = 1
                    path.append(dep)
                    pending.append(iter(deps[dep]))
                    break
            else:
                pending.pop()
                name = path.pop()
                state[name] = 2
                order.append(name)
    return tuple(order)
