"""Model structure validation, copy-with-override helpers, and the
generated evaluator."""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import re
import struct
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfdsim.expr
import sfdsim.model

from sfdsim import (
    AuxDef,
    CycleError,
    DuplicateNameError,
    EventAction,
    EventDef,
    FlowDef,
    InvalidParameterError,
    ModelError,
    ModelSpec,
    NonFiniteError,
    ParamDef,
    SimConfig,
    StockDef,
    UnitError,
    UnknownSymbolError,
    build_baseline,
    parse_expression,
    parse_model,
    run_simulation,
    validate_model,
)
from sfdsim.expr import BUILTINS, BinOp, Call, Num, Var, eval_expression, validate_expression

from modelgen import generate_model, unbounded
from reference_integrator import attachments


def tiny_model(**kwargs) -> ModelSpec:
    base = dict(
        name="Tiny",
        stocks=(StockDef("Tank", 10.0, "m3"),),
        flows=(FlowDef("drain", parse_expression("Rate * Tank"), "Tank", None, "m3/day"),),
        auxiliaries=(),
        parameters=(ParamDef("Rate", 0.1),),
        events=(),
    )
    base.update(kwargs)
    return ModelSpec(**base)


class TestValidation:
    def test_valid_model_passes(self):
        vm = validate_model(tiny_model())
        assert vm.order == ("drain",)
        inflows, outflows = attachments(vm.spec)
        assert outflows["Tank"] == ("drain",)
        assert inflows["Tank"] == ()

    def test_duplicate_name_rejected(self):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1), ParamDef("Rate", 0.2)))
        with pytest.raises(DuplicateNameError):
            validate_model(spec)

    def test_duplicate_across_kinds_rejected(self):
        spec = tiny_model(auxiliaries=(AuxDef("Tank", parse_expression("1")),))
        with pytest.raises(DuplicateNameError):
            validate_model(spec)

    def test_time_symbol_reserved(self):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1), ParamDef("t", 1.0)))
        with pytest.raises(DuplicateNameError):
            validate_model(spec)

    @pytest.mark.parametrize("bound, error, message", [
        ((">", 0.1), InvalidParameterError, "Rate: must be > 0.1, got 0.1"),
        ((">=", 0.2), InvalidParameterError, "Rate: must be >= 0.2, got 0.1"),
        (("<", 1.0), ModelError, "parameter 'Rate' has unknown bound '<'"),
    ])
    def test_parameter_outside_or_with_an_unknown_bound_rejected(self, bound, error, message):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1, bound=bound),))
        with pytest.raises(error) as err:
            validate_model(spec)
        assert type(err.value) is error and str(err.value) == message
        inside = tiny_model(parameters=(ParamDef("Rate", 0.3, bound=(">=", 0.2)),))
        assert validate_model(inside).params == {"Rate": 0.3}

    def test_unknown_symbol_rejected(self):
        spec = tiny_model(
            flows=(FlowDef("drain", parse_expression("Missing * Tank"), "Tank", None),)
        )
        with pytest.raises(UnknownSymbolError):
            validate_model(spec)

    @pytest.mark.parametrize("text, error, message", [
        ("q + min(1)", UnknownSymbolError, "undefined symbol 'q'"),
        ("min(1) + q", ValueError, "min() takes 2 arguments, got 1"),
    ])
    def test_first_expression_fault_is_raised_with_its_variable(self, text, error, message):
        cases = {
            "in 'a': ": tiny_model(auxiliaries=(AuxDef("a", parse_expression(text)),)),
            "in 'drain': ": tiny_model(
                flows=(FlowDef("drain", parse_expression(text), "Tank", None),)),
            "in event 'e': ": tiny_model(events=(EventDef("e", 1.0, 1.0, (
                EventAction("Tank", "add", parse_expression("Rate")),
                EventAction("Tank", "add", parse_expression(text)),
                EventAction("Tank", "add", parse_expression("tan(1)")))),)),
        }
        for prefix, spec in cases.items():
            with pytest.raises(error) as err:
                validate_model(spec)
            assert type(err.value) is error and str(err.value) == prefix + message

    def test_auxiliary_faults_precede_flow_faults(self):
        spec = tiny_model(auxiliaries=(AuxDef("a", parse_expression("min(1)")),),
                          flows=(FlowDef("drain", parse_expression("q"), "Tank", None),))
        with pytest.raises(ValueError, match=r"^in 'a': min\(\) takes 2 arguments"):
            validate_model(spec)

    def test_unknown_stock_endpoint_rejected(self):
        spec = tiny_model(
            flows=(FlowDef("drain", parse_expression("Rate"), "Nowhere", None),)
        )
        with pytest.raises(UnknownSymbolError):
            validate_model(spec)

    def test_unattached_flow_rejected(self):
        spec = tiny_model(flows=(FlowDef("drain", parse_expression("Rate"), None, None),))
        with pytest.raises(ModelError):
            validate_model(spec)

    def test_cycle_rejected_with_path(self):
        spec = tiny_model(
            auxiliaries=(
                AuxDef("a", parse_expression("b + 1")),
                AuxDef("b", parse_expression("a + 1")),
            ),
        )
        with pytest.raises(CycleError) as err:
            validate_model(spec)
        assert set(err.value.cycle) >= {"a", "b"}

    def test_self_cycle_rejected(self):
        spec = tiny_model(auxiliaries=(AuxDef("a", parse_expression("a")),))
        with pytest.raises(CycleError):
            validate_model(spec)

    def test_unit_mismatch_rejected(self):
        spec = tiny_model(
            flows=(FlowDef("drain", parse_expression("Rate * Tank"), "Tank", None, "kg/day"),)
        )
        with pytest.raises(UnitError):
            validate_model(spec)

    def test_unitless_flow_unchecked(self):
        spec = tiny_model(
            flows=(FlowDef("drain", parse_expression("Rate * Tank"), "Tank", None, ""),)
        )
        validate_model(spec)

    def test_non_finite_initial_rejected(self):
        spec = tiny_model(stocks=(StockDef("Tank", float("nan"), "m3"),))
        with pytest.raises(ModelError):
            validate_model(spec)

    def test_event_unknown_target_rejected(self):
        spec = tiny_model(events=(
            EventDef("e", 10.0, 10.0,
                     (EventAction("Nowhere", "add", parse_expression("1")),)),
        ))
        with pytest.raises(UnknownSymbolError):
            validate_model(spec)

    def test_event_without_actions_rejected(self):
        spec = tiny_model(events=(EventDef("e", 10.0, 10.0, ()),))
        with pytest.raises(ModelError):
            validate_model(spec)

    def test_event_negative_schedule_rejected(self):
        spec = tiny_model(events=(
            EventDef("e", -5.0, 10.0,
                     (EventAction("Tank", "add", parse_expression("1")),)),
        ))
        with pytest.raises(ModelError):
            validate_model(spec)


def computed_expressions(vm) -> dict:
    """Each auxiliary's and flow's expression by name, auxiliaries first."""
    return {d.name: d.expression for d in (*vm.spec.auxiliaries, *vm.spec.flows)}


def known_names(vm) -> set[str]:
    """Every name a model expression of `vm` may read, but `t`."""
    return {*vm.params, *computed_expressions(vm), *(s.name for s in vm.spec.stocks)}


def kahn_order(expressions: dict, known: set[str]) -> list[str]:
    """Independent topological sort used to cross-check the engine's DFS."""
    computed = set(expressions)
    deps = {
        name: {d for d in validate_expression(e, known)[0] if d in computed}
        for name, e in expressions.items()
    }
    order: list[str] = []
    while len(order) < len(expressions):
        ready = sorted(
            n for n, d in deps.items() if not d and n not in order
        )
        assert ready, "cycle left over"
        node = ready[0]
        order.append(node)
        for other in deps:
            deps[other].discard(node)
    return order


class TestEvaluationOrder:
    def test_dependencies_precede_dependents(self):
        spec = tiny_model(
            auxiliaries=(
                AuxDef("c", parse_expression("b * 2")),
                AuxDef("b", parse_expression("a + 1")),
                AuxDef("a", parse_expression("Rate")),
            ),
        )
        vm = validate_model(spec)
        order = list(vm.order)
        assert order.index("a") < order.index("b") < order.index("c")

    @pytest.mark.parametrize("seed", range(20))
    def test_random_models_sort_consistently(self, seed):
        vm = validate_model(generate_model(seed))
        position = {name: i for i, name in enumerate(vm.order)}
        known = known_names(vm)
        expressions = computed_expressions(vm)
        reference = kahn_order(expressions, known)
        assert sorted(vm.order) == sorted(reference)
        for name in vm.order:
            for dep in validate_expression(expressions[name], known)[0]:
                if dep in expressions:
                    assert position[dep] < position[name]

    def test_sorting_leaves_no_reference_cycle(self, gc_off):
        validate_model(build_baseline())  # warm the compile caches
        gc.collect()
        validate_model(build_baseline())
        assert gc.collect() == 0

    @pytest.mark.parametrize("acyclic", [True, False])
    def test_matches_the_recursive_sort_on_random_graphs(self, acyclic):
        cycles = 0
        for seed in range(300):
            spec, reads = random_graph(random.Random(seed), acyclic)
            got = sort_outcome(sfdsim.model._evaluation_order, spec, reads)
            assert got == sort_outcome(recursive_order, spec, reads), seed
            cycles += got[0] is CycleError
        assert cycles == 0 if acyclic else cycles > 100

    def test_chain_deeper_than_the_recursion_limit(self):
        n = 5000
        spec = ModelSpec("Chain", auxiliaries=tuple(AuxDef(f"a{i}", Num(0.0)) for i in range(n)))
        reads = {f"a{i}": {f"a{i + 1}"} for i in range(n - 1)} | {f"a{n - 1}": {"S"}}
        assert sfdsim.model._evaluation_order(spec, reads) == tuple(
            f"a{i}" for i in reversed(range(n)))
        reads[f"a{n - 1}"] = {"a0"}
        with pytest.raises(CycleError) as err:
            sfdsim.model._evaluation_order(spec, reads)
        assert err.value.cycle == [f"a{i}" for i in range(n)] + ["a0"]


def recursive_order(spec, reads):
    """The evaluation order by a recursive depth-first sort, as the model
    computed it before its sort kept its own stacks: the reference for
    `model._evaluation_order`."""
    deps = {name: [d for d in sorted(names) if d in reads] for name, names in reads.items()}
    order, state = [], {}

    def visit(name, path):
        mark = state.get(name, 0)
        if mark == 2:
            return
        if mark == 1:
            raise CycleError(path[path.index(name):] + [name])
        state[name] = 1
        path.append(name)
        for dep in deps[name]:
            visit(dep, path)
        path.pop()
        state[name] = 2
        order.append(name)

    for name in [a.name for a in spec.auxiliaries] + [f.name for f in spec.flows]:
        visit(name, [])
    return tuple(order)


def random_graph(rng, acyclic):
    """A spec of 1-14 auxiliaries and flows in random declaration order,
    and the names each reads: 0-3 of the others (only those ranked below
    it when `acyclic`), plus a stock and a parameter, which form no edge."""
    names = [f"v{i}" for i in range(rng.randint(1, 14))]
    ranked = rng.sample(names, len(names))
    reads = {}
    for i, name in enumerate(ranked):
        pool = ranked[:i] if acyclic else names
        reads[name] = {*rng.sample(pool, min(len(pool), rng.randint(0, 3))), "S", "Rate"}
    declared = rng.sample(names, len(names))
    split = rng.randint(0, len(names))
    spec = ModelSpec("Graph",
                     auxiliaries=tuple(AuxDef(name, Num(0.0)) for name in declared[:split]),
                     flows=tuple(FlowDef(name, Num(0.0), "S") for name in declared[split:]))
    return spec, reads


def sort_outcome(sort, spec, reads):
    """The order `sort` gives, or CycleError and the cycle it names."""
    try:
        return sort(spec, reads)
    except CycleError as err:
        return CycleError, err.cycle


class TestOverrides:
    def test_with_params_replaces_value(self):
        spec = tiny_model().with_params({"Rate": 0.5})
        assert spec.param("Rate") == 0.5

    def test_with_params_unknown_name(self):
        with pytest.raises(UnknownSymbolError):
            tiny_model().with_params({"Missing": 1.0})

    def test_with_initial(self):
        spec = tiny_model().with_initial({"Tank": 99.0})
        assert spec.stocks[0].initial == 99.0

    def test_overrides_are_stored_as_floats(self):
        spec = tiny_model().with_params({"Rate": 2}).with_initial({"Tank": 7})
        assert type(spec.param("Rate")) is float and type(spec.stocks[0].initial) is float

    def test_first_unknown_override_in_sorted_order_is_named(self):
        spec = tiny_model()
        with pytest.raises(UnknownSymbolError, match="^no parameter named 'Apple'$"):
            spec.with_params({"Zebra": 1.0, "Rate": 1.0, "Apple": 1.0})
        with pytest.raises(UnknownSymbolError, match="^no stock named 'Apple'$"):
            spec.with_initial({"Zebra": 1.0, "Tank": 1.0, "Apple": 1.0})

    def test_with_event_schedule(self):
        spec = tiny_model(events=(
            EventDef("e", 10.0, 10.0,
                     (EventAction("Tank", "add", parse_expression("1")),)),
        ))
        moved = spec.with_event_schedule("e", start=20.0, interval=5.0)
        assert moved.events[0].start == 20.0
        assert moved.events[0].interval == 5.0
        with pytest.raises(UnknownSymbolError):
            spec.with_event_schedule("missing", start=1.0)

    def test_overrides_do_not_mutate_original(self):
        spec = tiny_model()
        spec.with_params({"Rate": 0.9})
        assert spec.param("Rate") == 0.1


def interpreted(vm, stocks, t, g):
    """Per-variable `eval_expression` walk over `vm.order`: the row, the
    stocks as given and then the flow and auxiliary values, or the
    (exception type, variable) it stops at."""
    env = dict(vm.params)
    env.update(zip((s.name for s in vm.spec.stocks), stocks))
    expressions = computed_expressions(vm)
    for name in vm.order:
        try:
            v = eval_expression(expressions[name], env, t, g)
        except (ZeroDivisionError, OverflowError, ValueError) as err:
            return type(err), name
        if not math.isfinite(v):
            return NonFiniteError, name
        env[name] = v
    return [env[d.name] for d in (*vm.spec.stocks, *vm.spec.flows, *vm.spec.auxiliaries)]


def generated(vm, stocks, t, g):
    """The generated evaluator's row, or (NonFiniteError, variable) for the
    variable it names."""
    try:
        return list(vm.evaluator(t, g, *stocks))
    except NonFiniteError as err:
        assert err.t == t
        return NonFiniteError, err.name


def as_bits(outcome):
    if isinstance(outcome, list):
        return [struct.pack("<d", v) for v in outcome]
    return outcome


# Auxiliary value texts that are not finite or are -0.0, by arithmetic,
# and each one's value.
SPECIAL_VALUES = [("1e308", 1e308), ("-1e308", -1e308), ("1e308 * 10", math.inf),
                  ("-1e308 * 10", -math.inf), ("1e308 * 10 - 1e308 * 10", math.nan),
                  ("0 * -1", -0.0)]


@settings(max_examples=150, deadline=None)
@given(picks=st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(
        lambda v: (sfdsim.expr.format_number(v), v)), st.sampled_from(SPECIAL_VALUES)),
    min_size=1, max_size=8))
def test_evaluate_returns_exactly_when_every_value_is_finite(picks):
    # Each auxiliary a{i} is its drawn value times the stock S = 1, so the
    # evaluator computes it; a sum of finite ones may pass the largest float.
    auxes = "\n".join(f"aux a{i} = ({text}) * S" for i, (text, _) in enumerate(picks))
    vm = validate_model(parse_model(f"model Drawn {{\nstock S = 1\n{auxes}\n}}"))
    values = [value for _, value in picks]
    bad = [name for name in vm.order if not math.isfinite(values[int(name[1:])])]
    expected = (NonFiniteError, bad[0]) if bad else [1.0, *values]
    assert as_bits(generated(vm, [1.0], 3.0, 0.0)) == as_bits(expected)


class TestGeneratedEvaluator:
    def test_matches_interpreter_on_random_models(self):
        # Stock values include ones that fault the generated templates:
        # -Level0 zeroes a denominator, +-1e308 overflows a product to inf.
        outcomes = set()
        for seed in range(60):
            spec = generate_model(seed)
            vm = validate_model(spec)
            rng = random.Random(seed)
            picks = (0.0, -0.0, -spec.param("Level0"), 1e308, -1e308)
            for _ in range(40):
                stocks = [rng.choice(picks) if rng.random() < 0.3 else rng.uniform(-200.0, 200.0)
                          for _ in spec.stocks]
                t = rng.choice((0.0, 365.0, rng.uniform(-50.0, 500.0)))
                g = rng.gauss(0.0, 1.0)
                expected = interpreted(vm, stocks, t, g)
                outcomes.add(expected[0] if isinstance(expected, tuple) else list)
                if isinstance(expected, tuple):
                    # An arithmetic fault is named as a non-finite value.
                    expected = NonFiniteError, expected[1]
                assert as_bits(generated(vm, stocks, t, g)) == as_bits(expected), (seed, stocks, t)
        assert {list, ZeroDivisionError, NonFiniteError} <= outcomes

    def test_parameter_variants_share_generated_code(self):
        spec = tiny_model()
        a = validate_model(spec)
        b = validate_model(spec.with_params({"Rate": 0.5}))
        assert a.source == b.source
        assert a.evaluator.__code__ is b.evaluator.__code__
        assert a.evaluator(0.0, 0.0, 10.0) == (10.0, 1.0)
        assert b.evaluator(0.0, 0.0, 10.0) == (10.0, 5.0)

    def test_dropped_bind_is_freed_by_refcount(self, gc_off):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1), ParamDef("Unused", 1.0)))
        vm = validate_model(spec)
        bind = weakref.ref(sfdsim.model._compile_evaluator(vm.source))
        sfdsim.model._compile_evaluator.cache_clear()
        assert bind() is None
        # The model keeps what bind returned, not bind.
        assert vm.evaluator(0.0, 0.0, 10.0) == (10.0, 1.0)

    def test_non_identifier_names_get_positional_locals(self):
        spec = ModelSpec(
            name="Odd",
            stocks=(StockDef("a b", 4.0),),
            flows=(FlowDef("out flow", parse_expression("0"), "a b", None),),
            auxiliaries=(AuxDef("half", BinOp("/", Var("a b"), Num(2.0))),),
        )
        vm = validate_model(spec)
        assert "def evaluate(t, g, _0):" in vm.source
        assert vm.evaluator(0.0, 0.0, 4.0) == (4.0, 0.0, 2.0)

    def test_fault_names_the_variable_at_its_source_line(self):
        # Non-identifier names get positional locals, and the events add
        # action functions after the evaluator: the last variable in `order`
        # divides by zero at the RK4 stage time t = 0.5.
        spec = ModelSpec(
            name="Lines",
            stocks=(StockDef("pond level", 5.0), StockDef("B", 0.0)),
            flows=(FlowDef("drain out", BinOp("*", Var("k rate"), Var("pond level")),
                           "pond level", "B"),
                   FlowDef("last one", BinOp("/", Num(1.0), BinOp("-", Var("t"), Num(0.5))),
                           "B", None)),
            auxiliaries=(AuxDef("half level", BinOp("/", Var("pond level"), Num(2.0))),
                         AuxDef("ratio", BinOp("/", Var("half level"),
                                               BinOp("+", Var("k rate"), Num(1.0))))),
            parameters=(ParamDef("k rate", 0.5),),
            events=(EventDef("top up", 1.0, 1.0, (
                EventAction("pond level", "add", Var("ratio")),
                EventAction("B", "set", BinOp("/", Var("pond level"), Num(4.0))))),),
        )
        vm = validate_model(spec)
        assert vm.order[-1] == "last one"
        assert "_0" in vm.source and "o = evaluate(t, draw, x[0], x[1])" in vm.source
        traj = run_simulation(spec, SimConfig(t_end=3.0))
        assert traj.events
        with pytest.raises(NonFiniteError) as err:
            run_simulation(spec, SimConfig(t_end=3.0, method="rk4"))
        assert (err.value.name, err.value.t) == ("last one", 0.5)
        with pytest.raises(NonFiniteError) as err:
            vm.evaluator(0.5, 0.0, 5.0, 0.0)
        assert err.value.name == "last one"
        assert set(vars(vm)) == {f.name for f in dataclasses.fields(vm)}

    @pytest.mark.parametrize("text, draws", [
        ("noise(0)", False),
        ("noise(Rate - 0.1)", False),
        ("noise(Rate)", True),
        ("noise(Tank * 0)", True),
        ("noise(t)", True),
        ("noise(noise(0))", True),
        ("noise(1 / (Rate - 0.1))", True),
    ])
    def test_draws_noise(self, text, draws):
        spec = tiny_model(auxiliaries=(AuxDef("wobble", parse_expression(text)),))
        assert validate_model(spec).draws_noise is draws


def parameter_heavy_tree(rng, params, others, depth):
    """A random expression mostly over `params`, that also reads `others`,
    `t` and `noise()`: many of its subtrees read only parameters, and
    divisions, powers and faulting builtins make some of those fault."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.55:
            return Var(rng.choice(params))
        if pick < 0.7:
            return Num(rng.choice((0.0, 1.0, 2.5)))
        return Var(rng.choice(others)) if pick < 0.9 else Var("t")

    def sub():
        return parameter_heavy_tree(rng, params, others, depth - 1)

    if rng.random() < 0.55:
        return BinOp(rng.choice(("+", "-", "*", "/", "/", "^", ">")), sub(), sub())
    fn = rng.choice(("max", "min", "if", "ln", "exp", "sin", "ceil", "abs", "noise"))
    return Call(fn, tuple(sub() for _ in range(BUILTINS[fn])))


def hoisting_model(seed):
    """`generate_model(seed)` with three more auxiliaries from
    `parameter_heavy_tree`, each of which may read the earlier ones."""
    spec = generate_model(seed)
    rng = random.Random(f"hoist{seed}")
    params = [p.name for p in spec.parameters]
    others = [s.name for s in spec.stocks]
    auxiliaries = list(spec.auxiliaries)
    for k in range(3):
        auxiliaries.append(AuxDef(f"h{k}", parameter_heavy_tree(rng, params, others, 4)))
        others.append(f"h{k}")
    return dataclasses.replace(spec, auxiliaries=tuple(auxiliaries))


def hand_model(text):
    """One stock `Tank` at 5, drained at `Rate`, and the auxiliary `a` =
    `text` over the parameters Zero = 0 and Big = 1e308."""
    return tiny_model(auxiliaries=(AuxDef("a", parse_expression(text)),),
                      parameters=(ParamDef("Rate", 0.1), ParamDef("Zero", 0.0),
                                  ParamDef("Big", 1e308)),
                      stocks=(StockDef("Tank", 5.0, "m3"),))


class TestHoistedValues:
    """`bind` computes parameter-only values once; a fault among them must
    surface where and when the interpreter meets it."""

    def test_random_parameter_overrides_match_interpreter(self):
        outcomes = set()
        hoisted = 0
        for seed in range(40):
            spec = hoisting_model(seed)
            vm = validate_model(spec)
            hoisted += vm.source.partition("def evaluate")[0].count("    try: ")
            rng = random.Random(seed)
            params = list(vm.params)
            for _ in range(8):
                overrides = {}
                for name in params:
                    pick = rng.random()
                    if pick < 0.4:
                        overrides[name] = rng.choice((0.0, -0.0, 1e308, -1e308))
                    elif pick < 0.55:  # zeroes a sum of two parameters
                        overrides[name] = -vm.params[rng.choice(params)]
                variant = validate_model(spec.with_params(overrides))
                for _ in range(6):
                    stocks = [rng.choice((0.0, rng.uniform(-50.0, 200.0))) for _ in spec.stocks]
                    t = rng.choice((0.0, 0.35, rng.uniform(-50.0, 500.0)))
                    g = rng.gauss(0.0, 1.0)
                    expected = interpreted(variant, stocks, t, g)
                    outcomes.add(expected[0] if isinstance(expected, tuple) else list)
                    if isinstance(expected, tuple):
                        expected = NonFiniteError, expected[1]
                    got = generated(variant, stocks, t, g)
                    assert as_bits(got) == as_bits(expected), (seed, overrides, stocks, t)
        assert hoisted >= 80
        assert {list, ZeroDivisionError, OverflowError, ValueError, NonFiniteError} <= outcomes

    @pytest.mark.parametrize("text, raises", [
        ("max(Tank, 1 / Zero)", True),  # a fault under max() still raises
        ("if(1 / Zero > Tank, 1, 2)", True),  # and in a condition
        ("Tank + exp(Big)", True),  # overflow raises
        ("Tank + Big * Big", True),  # overflow to inf
        ("if(Tank > 1e9, 1 / Zero, Tank)", False),  # untaken branch
        ("if(Zero > 0, ln(Zero), Tank)", False),  # untaken by a constant condition
        ("max(0, 0 - Big * Big) + Tank", False),
        ("max(0 * Tank, 0 - Big * Big)", False),  # -inf under max()
        ("if(Zero < Rate, 1 / Zero, Tank)", True),  # a hoisted comparison
        ("if(Zero < Rate, Tank, 1 / Zero) + if(Zero > Rate, ln(Zero), Tank)", False),
    ])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_hand_models(self, text, raises, method):
        vm = validate_model(hand_model(text))
        assert "    try: " in vm.source.partition("def evaluate")[0]
        expected = interpreted(vm, [5.0], 2.0, 0.0)
        assert isinstance(expected, tuple) is raises
        config = SimConfig(t_start=2.0, t_end=6.0, method=method)
        if raises:
            with pytest.raises(NonFiniteError) as err:
                run_simulation(vm.spec, config)
            assert (err.value.name, err.value.t) == ("a", 2.0)
        else:
            traj = run_simulation(vm.spec, config)
            for t, row in zip(traj.row_times, traj.rows):
                assert as_bits(generated(vm, row[:1], t, 0.0)) == as_bits(
                    interpreted(vm, row[:1], t, 0.0))

    FAULT_ORDER = [
        ("1 / Tank", "1 / Zero + Tank", "first", ZeroDivisionError),
        ("1 / Zero + Tank", "1 / Tank", "first", ZeroDivisionError),
        ("Tank + 1", "1 / Zero + Tank", "second", ZeroDivisionError),
        # Values that overflow to inf raise nothing where they are computed.
        ("Tank + 1e308 * 10", "1e308 * 10", "first", NonFiniteError),
        ("Tank + 1e308 * 10", "1 / Zero + Tank", "first", NonFiniteError),
        ("Tank + 1", "Tank - 1e308 * 10", "second", NonFiniteError),
    ]

    @pytest.mark.parametrize("first, second, name, fault", FAULT_ORDER,
                             ids=["-".join(case[:3]) for case in FAULT_ORDER])
    def test_first_fault_in_order_is_named(self, first, second, name, fault):
        spec = tiny_model(auxiliaries=(AuxDef("first", parse_expression(first)),
                                       AuxDef("second", parse_expression(second))),
                          parameters=(ParamDef("Rate", 0.1), ParamDef("Zero", 0.0)),
                          stocks=(StockDef("Tank", 0.0, "m3"),))
        vm = validate_model(spec)
        assert interpreted(vm, [0.0], 3.0, 0.0) == (fault, name)
        with pytest.raises(NonFiniteError) as err:
            run_simulation(spec, SimConfig(t_start=3.0, t_end=4.0, method="rk4"))
        assert (err.value.name, err.value.t) == (name, 3.0)

    @pytest.mark.parametrize("constant, text, faults", [("1e308 * 10", "(1e+308 * 10.0)", True),
                                                        ("1 / Zero", "(1.0 / _Zero)", True),
                                                        ("Rate * 10", "(_Rate * 10.0)", False)])
    @pytest.mark.parametrize("whole_first", [False, True])
    def test_text_shared_by_a_variable_and_a_subtree_computed_once(self, constant, text, faults,
                                                                  whole_first):
        # `second` is computed whole in `bind`, and `first` reads a subtree
        # of the same text: one computation serves both, whichever is first
        # in evaluation order, and a fault names the first of them in it.
        auxiliaries = [AuxDef("first", parse_expression(f"Tank + {constant}")),
                       AuxDef("second", parse_expression(constant))]
        spec = tiny_model(auxiliaries=tuple(auxiliaries[::-1] if whole_first else auxiliaries),
                          parameters=(ParamDef("Rate", 0.1), ParamDef("Zero", 0.0)),
                          stocks=(StockDef("Tank", 0.0, "m3"),))
        vm = validate_model(spec)
        assert vm.source.count(text) == 1
        for stocks in ([0.0], [2.5]):
            expected = interpreted(vm, stocks, 3.0, 0.0)
            if faults:
                assert expected[1] == ("second" if whole_first else "first")
                expected = NonFiniteError, expected[1]
            assert as_bits(generated(vm, stocks, 3.0, 0.0)) == as_bits(expected)

    @pytest.mark.parametrize("zero", [0.0, -0.0, 1.0])
    def test_nodes_shared_between_variables(self, zero):
        # Expression nodes are values, so a spec built in Python may use one
        # node in several variables; each variable must still read its own
        # subtrees.
        double, inverse = parse_expression("Rate * 2"), parse_expression("1 / Zero")

        def tank_plus(node):
            return BinOp("+", Var("Tank"), node)

        spec = tiny_model(
            auxiliaries=(
                AuxDef("a", tank_plus(double)),
                AuxDef("b", BinOp("*", tank_plus(double), parse_expression("Tank + Rate * 3"))),
                AuxDef("c", double),
                AuxDef("d", BinOp("*", tank_plus(double), parse_expression("Tank + Rate * 5"))),
                AuxDef("e", BinOp("-", tank_plus(double), inverse)),
                AuxDef("f", inverse),
                AuxDef("h", BinOp("*", tank_plus(inverse), parse_expression("Tank + Rate * 7"))),
            ),
            parameters=(ParamDef("Rate", 0.1), ParamDef("Zero", zero)),
            stocks=(StockDef("Tank", 5.0, "m3"),),
        )
        vm = validate_model(spec)
        assert vm.order == ("a", "b", "c", "d", "e", "f", "h", "drain")
        for stocks, t in (([5.0], 1.0), ([-0.2], 2.0), ([1e308], 3.0)):
            expected = interpreted(vm, stocks, t, 0.0)
            if isinstance(expected, tuple):
                expected = NonFiniteError, expected[1]
            assert as_bits(generated(vm, stocks, t, 0.0)) == as_bits(expected), stocks

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_faulting_baseline_value_is_named_at_the_first_time(self, baseline_spec, method):
        # Dose = -KHalf is outside Dose's bound, so the baseline's bounds are
        # dropped to reach the run; with them, validation rejects it first.
        base = unbounded(baseline_spec)
        variant = base.with_params({"Dose": -base.param("KHalf")})
        variant = variant.with_event_schedule("pickup", start=30.35)
        config = SimConfig(t_start=0.35, t_end=5.35, method=method)
        for remembered in (None, base):  # validated cold, then as a variant
            sfdsim.model._last = None
            if remembered is not None:
                validate_model(remembered)
            with pytest.raises(NonFiniteError) as err:
                run_simulation(variant, config)
            assert (err.value.name, err.value.t) == ("eta", 0.35)
        with pytest.raises(InvalidParameterError, match="Dose: must be >= 0, got -20"):
            run_simulation(baseline_spec.with_params({"Dose": -20.0}), config)

    def test_baseline_evaluator_reads_hoisted_values_only(self, baseline_spec):
        vm = validate_model(baseline_spec.with_params({"Dose": 20.0}))
        for t in (0.0, 400.0):
            stocks = [1000.0, 200.0, 5000.0]
            assert as_bits(generated(vm, stocks, t, 0.0)) == as_bits(interpreted(vm, stocks, t, 0.0))
        free = set(vm.evaluator.__code__.co_freevars)
        assert not free & {"_EthanolProduction", "_VinassePerEthanol", "_EtaMax", "_KHalf",
                           "_Dose", "_KEvap", "_PondArea", "_CoagulantUnitCost",
                           "_CapexPerM3", "_BaseCapacity"}
        assert {"_vinasseSupply", "_eta", "_TotalCapacity", "_AmortDays"} <= free

    def test_baseline_pickup_load_is_computed_once_in_bind(self, baseline_spec):
        vm = validate_model(baseline_spec)
        text = "(_TruckCapacityKg * _TrucksPerPickup)"
        assert vm.source.count(text) == 1
        before, _, action = vm.source.partition("    def act0(t, x, draw):")
        (var,) = re.findall(rf"^    try: (_\d+) = {re.escape(text)}$", before, re.M)
        assert action.partition("\n    try:")[0].count(var) == 6  # min(x[1], load), three times
        env = dict(vm.params)
        for stocks in ([1000.0, 200.0, 5000.0], [1000.0, 1e5, 5000.0]):
            env.update(zip((s.name for s in vm.spec.stocks), stocks))
            expected = [eval_expression(a.expression, env) for a in vm.spec.events[0].actions]
            assert as_bits(list(vm.actions[0](30.0, stocks, 0.0))) == as_bits(expected)

    @pytest.mark.parametrize("aux", ["Tank + Rate * 3", "Rate * 3"])
    def test_action_shares_a_text_the_evaluator_hoists(self, aux):
        spec = tiny_model(auxiliaries=(AuxDef("a", parse_expression(aux)),),
                          events=(EventDef("top", 1.0, 1.0, (EventAction(
                              "Tank", "add", parse_expression("max(Tank, Rate * 3)")),)),))
        vm = validate_model(spec)
        assert vm.source.count("(_Rate * 3.0)") == 1
        assert "_Rate" not in vm.source.partition("def act0")[2]
        for tank in (0.1, 5.0):
            assert vm.actions[0](1.0, [tank], 0.0) == (max(tank, 0.1 * 3),)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_faulting_action_subtree_names_the_event(self, method):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1), ParamDef("Zero", 0.0)),
                          events=(EventDef("empty", 2.0, 2.0, (EventAction(
                              "Tank", "subtract", parse_expression("min(Tank, 1 / Zero)")),)),))
        vm = validate_model(spec)
        assert "try: _4 = (1.0 / _Zero)" in vm.source.partition("def act0")[0]
        with pytest.raises(NameError):
            vm.actions[0](2.0, [5.0], 0.0)
        with pytest.raises(NonFiniteError) as err:
            run_simulation(spec, SimConfig(t_end=6.0, method=method))
        assert (err.value.name, err.value.t) == ("event empty", 2.0)

    def test_whole_parameter_value_reads_the_text_a_later_action_hoists(self):
        spec = tiny_model(events=(EventDef("top", 1.0, 1.0, (
            EventAction("Tank", "add", parse_expression("Rate * 3")),
            EventAction("Tank", "add", parse_expression("Tank + Rate * 3")))),))
        vm = validate_model(spec)
        assert vm.source.count("(_Rate * 3.0)") == 1
        assert "return (_3, (x[0] + _3), )" in vm.source.partition("def act0")[2]
        for tank in (0.1, 5.0, -7.25):
            expected = [eval_expression(a.expression, {"Rate": 0.1, "Tank": tank})
                        for a in spec.events[0].actions]
            assert as_bits(list(vm.actions[0](1.0, [tank], 0.0))) == as_bits(expected)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_faulting_whole_parameter_value_names_the_event(self, method):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1), ParamDef("Zero", 0.0)),
                          events=(EventDef("bump", 2.0, 2.0, (
                              EventAction("Tank", "add", parse_expression("1 / Zero")),
                              EventAction("Tank", "add", parse_expression("Tank + 1 / Zero")))),))
        vm = validate_model(spec)
        assert vm.source.count("(1.0 / _Zero)") == 1
        with pytest.raises(NonFiniteError) as err:
            run_simulation(spec, SimConfig(t_end=6.0, method=method))
        assert (err.value.name, err.value.t) == ("event bump", 2.0)


def raised(make):
    """`(type, message)` of the error `make()` raises, or None."""
    try:
        make()
    except Exception as err:  # noqa: BLE001 - the comparison is the point
        return type(err), str(err)
    return None


def hex_outcome(fn, *args):
    """`fn(*args)` as the float.hex of each value, or the error it raises."""
    try:
        return [float(v).hex() for v in fn(*args)]
    except Exception as err:  # noqa: BLE001 - the comparison is the point
        return type(err), str(err)


def bit_equal(got, expected):
    """`got` and `expected` agree in spec, order, source, parameter bits and
    noise, and their evaluator and actions give bit-equal outcomes."""
    assert got.spec is expected.spec
    assert got.order == expected.order
    assert got.source == expected.source
    assert ([(k, v.hex()) for k, v in got.params.items()]
            == [(k, v.hex()) for k, v in expected.params.items()])
    assert got.draws_noise is expected.draws_noise
    rng = random.Random(got.spec.name)
    for _ in range(5):
        stocks = [rng.uniform(0.0, 200.0) for _ in got.spec.stocks]
        t, g = rng.uniform(0.0, 365.0), rng.gauss(0.0, 1.0)
        assert hex_outcome(got.evaluator, t, g, *stocks) == hex_outcome(
            expected.evaluator, t, g, *stocks)
        for act, want in zip(got.actions, expected.actions, strict=True):
            assert hex_outcome(act, t, stocks, g) == hex_outcome(want, t, stocks, g)


def cold(spec):
    """`validate_model(spec)` with no structure remembered."""
    sfdsim.model._last = None
    return validate_model(spec)


# An event whose action evaluates the model, noise included, and draws
# noise of its own, which it reads as 0.
WET = parse_model("""model Wet {
    param Wetness = 0.5
    param Top = 1
    stock S = 10
    aux wet = 1 + noise(Wetness)
    flow out : S -> = 0.1 * S * wet
    event top every 4 { S += Top * wet + noise(1) }
  }""")


def variant_case(seed):
    """A model to make variants of, parameter overrides, and its event: the
    baseline plant for seed None, `WET` for "wet", else a generated model."""
    if seed is None:
        return build_baseline(), {"Dose": 30.0, "KEvap": 0.004}, "pickup"
    if seed == "wet":
        return WET, {"Wetness": 0.25, "Top": 2.0}, "top"
    spec = generate_model(seed)
    return spec, {"Rate0": 2.5, "Level0": 17.0}, spec.events[0].name if spec.events else None


VARIANT_SEEDS = [None, "wet", *range(12)]
EVENT_SEEDS = [seed for seed in VARIANT_SEEDS if variant_case(seed)[2] is not None]


class TestValidatedVariants:
    """A parameter, initial value or schedule variant of the last spec
    validated is bound to its code without walking an expression; the
    result, and any error, must be what validating it from scratch gives."""

    @staticmethod
    def hit(spec, variant, walks):
        """`validate_model(variant)` after `validate_model(spec)`, checked
        to walk nothing and to equal a cold validation bit for bit."""
        remembered = validate_model(spec)
        walks.clear()
        got = validate_model(variant)
        assert walks == []
        assert got.source is remembered.source
        bit_equal(got, cold(variant))
        return got

    @staticmethod
    def hit_raises_as_cold(spec, variant, walks):
        """The error that validating `variant()` raises cold, checked to be
        raised, with no walk, after `validate_model(spec)`."""
        expected = raised(lambda: cold(variant()))
        assert expected is not None
        validate_model(spec)
        walks.clear()
        assert raised(lambda: validate_model(variant())) == expected
        assert walks == []
        return expected

    @pytest.mark.parametrize("seed", VARIANT_SEEDS)
    def test_with_params_equals_revalidation(self, seed, walks):
        spec, overrides, _ = variant_case(seed)
        variant = self.hit(spec, spec.with_params(overrides), walks)
        assert [variant.params[name] for name in overrides] == list(overrides.values())
        bit_equal(validate_model(spec), cold(spec))

    @pytest.mark.parametrize("seed", EVENT_SEEDS)
    def test_with_event_schedule_equals_revalidation(self, seed, walks):
        spec, _, event = variant_case(seed)
        for start, interval in ((21.0, 7.0), (5.0, None), (None, 0.0)):
            self.hit(spec, spec.with_event_schedule(event, start, interval), walks)

    @pytest.mark.parametrize("seed", VARIANT_SEEDS)
    def test_with_initial_equals_revalidation(self, seed, walks):
        spec, _, _ = variant_case(seed)
        overrides = {s.name: 123.5 + i for i, s in enumerate(spec.stocks[::2])}
        variant = self.hit(spec, spec.with_initial(overrides), walks)
        assert [s.initial for s in variant.spec.stocks] == [
            overrides.get(s.name, s.initial) for s in spec.stocks]
        bit_equal(validate_model(spec), cold(spec))

    @pytest.mark.parametrize("overrides", [
        {"Missing": 1.0},
        {"Tank": math.nan},
        {"Tank": -math.inf},
        {"Spill": math.inf, "Tank": math.nan},
        {"Spill": math.nan, "Missing": 1.0},
    ])
    def test_bad_initials_raise_as_validation_does(self, overrides, walks):
        spec = tiny_model(stocks=(StockDef("Tank", 10.0, "m3"), StockDef("Spill", 0.0, "m3")))
        self.hit_raises_as_cold(spec, lambda: spec.with_initial(overrides), walks)

    def test_noise_turns_on_and_off_with_its_scale(self, baseline_spec):
        vm = validate_model(baseline_spec)
        assert vm.spec.param("NoiseStdDev") == 0.0 and not vm.draws_noise
        noisy = baseline_spec.with_params({"NoiseStdDev": 1.5})
        assert validate_model(noisy).draws_noise
        assert not validate_model(noisy.with_params({"NoiseStdDev": 0.0})).draws_noise
        moved = noisy.with_event_schedule("pickup", start=10.0, interval=10.0)
        assert validate_model(moved).draws_noise

    def test_noise_scales_are_evaluated_without_walking_expressions(self, baseline_spec, walks):
        validate_model(baseline_spec)
        walks.clear()
        assert validate_model(baseline_spec.with_params({"NoiseStdDev": 2.0})).draws_noise
        assert walks == []
        # Fresh flows: a structure not seen before, so validation walks it.
        validate_model(dataclasses.replace(baseline_spec, flows=tuple(list(baseline_spec.flows))))
        assert walks  # the patch sees the walks that validation makes

    @pytest.mark.parametrize("overrides", [
        {"Missing": 1.0},
        {"Rate": math.nan},
        {"Rate": math.inf},
        {"Rate": -math.inf, "Missing": 1.0},
    ])
    def test_bad_params_raise_as_validation_does(self, overrides, walks):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1), ParamDef("Other", 2.0)))
        self.hit_raises_as_cold(spec, lambda: spec.with_params(overrides), walks)

    def test_first_non_finite_parameter_is_named(self, walks):
        spec = tiny_model(parameters=(ParamDef("Rate", 0.1), ParamDef("Other", 2.0)))
        got = self.hit_raises_as_cold(
            spec, lambda: spec.with_params({"Other": math.nan, "Rate": math.inf}), walks)
        assert got == (ModelError, "parameter 'Rate' has non-finite value")

    @pytest.mark.parametrize("name, start, interval", [
        ("missing", 1.0, 1.0),
        ("e", -1.0, None),
        ("e", None, -2.0),
        ("e", math.nan, None),
        ("e", None, math.inf),
        ("e", -math.inf, 1.0),
    ])
    def test_bad_schedules_raise_as_validation_does(self, name, start, interval, walks):
        spec = tiny_model(events=(
            EventDef("e", 10.0, 10.0, (EventAction("Tank", "add", parse_expression("1")),)),
        ))
        self.hit_raises_as_cold(spec, lambda: spec.with_event_schedule(name, start, interval),
                                walks)

    @pytest.mark.parametrize("bad, message", [
        (("initial", "parameter"), "stock 'Tank' has non-finite initial value"),
        (("initial",), "stock 'Tank' has non-finite initial value"),
        (("parameter",), "parameter 'Rate' has non-finite value"),
        ((), "event 'e' has a negative schedule"),
    ])
    def test_bad_values_are_checked_in_cold_order(self, bad, message, walks):
        # Each variant also has a bad schedule.
        spec = tiny_model(events=(
            EventDef("e", 10.0, 10.0, (EventAction("Tank", "add", parse_expression("1")),)),
        ))

        def variant():
            out = spec
            if "initial" in bad:
                out = out.with_initial({"Tank": math.nan})
            if "parameter" in bad:
                out = out.with_params({"Rate": math.inf})
            return out.with_event_schedule("e", start=-1.0)

        assert self.hit_raises_as_cold(spec, variant, walks) == (ModelError, message)

    def test_a_hit_checks_only_the_values_it_does_not_share(self, baseline_spec, monkeypatch):
        # A variant shares every object it does not override, and a hit
        # checks only the parameters that are not the remembered spec's.
        checked = []
        check = ParamDef.check
        monkeypatch.setattr(ParamDef, "check",
                            lambda p, value: checked.append(p.name) or check(p, value))
        validate_model(baseline_spec)
        assert len(checked) == len(baseline_spec.parameters)
        variant = baseline_spec.with_params({"Dose": 10.0})
        assert [p is q for p, q in zip(variant.parameters, baseline_spec.parameters)] == [
            p.name != "Dose" for p in baseline_spec.parameters]
        assert all(getattr(variant, group) is getattr(baseline_spec, group)
                   for group in ("stocks", "flows", "auxiliaries", "events"))
        checked.clear()
        validate_model(variant)
        assert checked == ["Dose"]
        checked.clear()
        moved = variant.with_initial({"TotalCost": 1.0}).with_event_schedule("pickup", 10.0)
        validate_model(moved)
        assert checked == ["Dose"]
        checked.clear()
        with pytest.raises(InvalidParameterError, match="Dose"):
            validate_model(variant.with_params({"Dose": -1.0, "Sigma": 2.0}))
        assert checked == ["Sigma", "Dose"]  # in declaration order, to the first bad one


class TestLastStructure:
    """`validate_model` remembers the last structure it validated. A spec
    with its key and its expression tuples is bound to the remembered code;
    the result must be what validating it from scratch gives, bit for bit.
    Any other spec is validated from scratch."""

    @pytest.mark.parametrize("seed", VARIANT_SEEDS)
    def test_a_hit_equals_a_cold_validation(self, seed, walks):
        # Without bounds, so that every value is one validation accepts.
        spec, overrides, _ = variant_case(seed)
        spec = unbounded(spec)
        cold(spec)
        for value in (0.0, -0.0, 1e308, -1e308, 0.0):
            variant = spec.with_params(dict.fromkeys(overrides, value))
            walks.clear()
            hit = validate_model(variant)
            assert walks == []
            bit_equal(hit, cold(variant))

    def test_a_nan_parameter_on_a_hit_raises_as_cold(self, baseline_spec, walks):
        variant = baseline_spec.with_params({"KEvap": math.nan})
        expected = raised(lambda: cold(variant))
        assert expected == (ModelError, "parameter 'KEvap' has non-finite value")
        validate_model(baseline_spec)
        walks.clear()
        assert raised(lambda: validate_model(variant)) == expected
        assert walks == []

    @pytest.mark.parametrize("name, value, message", [
        ("Dose", -1e308, "Dose: must be >= 0, got -1e+308"),
        ("Dose", -5e-324, "Dose: must be >= 0, got -5e-324"),
        ("KEvap", 0.0, "KEvap: must be > 0, got 0"),
        ("KEvap", -0.0, "KEvap: must be > 0, got -0"),
    ])
    def test_an_out_of_range_parameter_on_a_hit_raises_as_cold(self, baseline_spec, walks,
                                                               name, value, message):
        variant = baseline_spec.with_params({name: value})
        expected = raised(lambda: cold(variant))
        assert expected == (InvalidParameterError, message)
        validate_model(baseline_spec)
        walks.clear()
        assert raised(lambda: validate_model(variant)) == expected
        assert walks == []

    def test_the_baseline_built_twice_walks_once(self, walks):
        first = validate_model(build_baseline())
        once = list(walks)
        assert once
        second = validate_model(build_baseline())
        assert walks == once
        assert second.source is first.source
        bit_equal(second, cold(second.spec))

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (1, 1.0)])
    def test_equal_specs_that_emit_other_text_get_their_own_source(self, first, second):
        def flows(value):
            return (FlowDef("drain", BinOp("*", Num(value), Var("Tank")), "Tank", None, "m3/day"),)

        a = tiny_model(flows=flows(first))
        b = dataclasses.replace(a, flows=flows(second))
        assert a == b  # equal, yet their code differs
        got_a, got_b = validate_model(a), validate_model(b)
        assert got_a.source != got_b.source
        bit_equal(validate_model(b), cold(b))
        bit_equal(validate_model(a), cold(a))
        assert hex_outcome(got_a.evaluator, 0.0, 0.0, 10.0) == ["0x1.4000000000000p+3",
                                                                (first * 10.0).hex()]
        assert hex_outcome(got_b.evaluator, 0.0, 0.0, 10.0) == ["0x1.4000000000000p+3",
                                                                (second * 10.0).hex()]

    @pytest.mark.parametrize("group", ["flows", "auxiliaries", "actions"])
    def test_fresh_tuples_are_a_miss(self, baseline_spec, group, walks):
        validate_model(baseline_spec)
        walks.clear()
        validate_model(baseline_spec.with_params({"Dose": 5.0}))
        assert walks == []
        if group == "actions":
            pickup = baseline_spec.events[0]
            fresh = dataclasses.replace(baseline_spec, events=(
                dataclasses.replace(pickup, actions=tuple(list(pickup.actions))),))
        else:
            fresh = dataclasses.replace(baseline_spec,
                                        **{group: tuple(list(getattr(baseline_spec, group)))})
        assert fresh == baseline_spec
        validate_model(fresh)
        assert walks

    @pytest.mark.parametrize("group", ["stocks", "events"])
    def test_fresh_stocks_and_events_tuples_hit(self, baseline_spec, group, walks):
        # Only each stock's name and unit, and each event's actions, enter
        # the code and the structural checks.
        validate_model(baseline_spec)
        fresh = dataclasses.replace(baseline_spec,
                                    **{group: tuple(list(getattr(baseline_spec, group)))})
        assert getattr(fresh, group) is not getattr(baseline_spec, group)
        walks.clear()
        hit = validate_model(fresh)
        assert walks == []
        bit_equal(hit, cold(fresh))

    @pytest.mark.parametrize("change", ["unit", "name", "order"])
    def test_changed_stocks_are_a_miss(self, change, walks):
        spec = tiny_model(stocks=(StockDef("Tank", 10.0, "m3"), StockDef("Spill", 0.0, "m3")))
        tank, spill = spec.stocks
        changed = dataclasses.replace(spec, stocks={
            "unit": (dataclasses.replace(tank, unit="kg"), spill),
            "name": (tank, dataclasses.replace(spill, name="Pool")),
            "order": (spill, tank),
        }[change])
        validate_model(spec)
        walks.clear()
        try:
            got = validate_model(changed)
        except UnitError as err:  # a stock in kg drained in m3/day
            got = err
        assert walks
        if change == "unit":
            assert raised(lambda: cold(changed)) == (UnitError, str(got))
        else:
            bit_equal(got, cold(changed))

    def test_other_parameter_names_are_a_miss(self, walks):
        spec = tiny_model()
        validate_model(spec)
        walks.clear()
        more = dataclasses.replace(spec, parameters=(*spec.parameters, ParamDef("Extra", 1.0)))
        assert "_Extra" in validate_model(more).source
        assert walks

    def test_groups_held_in_lists_are_not_remembered(self):
        # A spec holds a copy of a list it is given, as a tuple: changing
        # the list afterwards changes neither the spec nor its code.
        flows = list(tiny_model().flows)
        spec = tiny_model(flows=flows)
        assert type(spec.flows) is tuple
        assert validate_model(spec).evaluator(0.0, 0.0, 10.0) == (10.0, 1.0)
        flows[0] = FlowDef("drain", parse_expression("2 * Rate * Tank"), "Tank", None, "m3/day")
        assert spec == tiny_model()
        assert validate_model(spec).evaluator(0.0, 0.0, 10.0) == (10.0, 1.0)
        bit_equal(validate_model(spec), cold(spec))

    @pytest.mark.parametrize("held", ["actions", "args"])
    def test_a_list_in_an_event_or_call_changed_later_changes_nothing(self, held):
        actions = [EventAction("Tank", "add", Num(1.0))]
        args = [Num(0.0), Num(1.0)]
        spec = ModelSpec("Held", stocks=(StockDef("Tank", 0.0),),
                         flows=(FlowDef("fill", Call("max", args), None, "Tank"),),
                         events=(EventDef("top", 1.0, 1.0, actions),))
        config = SimConfig(t_end=3.0)

        def tank():
            return [row[0].hex() for row in run_simulation(spec, config).rows]

        before = tank()
        assert before == [v.hex() for v in (0.0, 2.0, 4.0, 6.0)]
        if held == "actions":
            actions[0] = EventAction("Tank", "add", Num(5.0))
        else:
            args[1] = Num(7.0)
        assert tank() == before
        sfdsim.model._last = None
        assert tank() == before
