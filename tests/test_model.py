"""Model structure validation, copy-with-override helpers, and the
generated evaluator."""

from __future__ import annotations

import math
import random
import struct

import pytest

from sfdsim import (
    AuxDef,
    CycleError,
    DuplicateNameError,
    EventAction,
    EventDef,
    FlowDef,
    ModelError,
    ModelSpec,
    NonFiniteError,
    ParamDef,
    StockDef,
    UnitError,
    UnknownSymbolError,
    parse_expression,
    validate_model,
)
from sfdsim.expr import BinOp, Num, Var, eval_expression, variables

from modelgen import generate_model


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
        assert vm.outflows["Tank"] == ("drain",)
        assert vm.inflows["Tank"] == ()

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

    def test_unknown_symbol_rejected(self):
        spec = tiny_model(
            flows=(FlowDef("drain", parse_expression("Missing * Tank"), "Tank", None),)
        )
        with pytest.raises(UnknownSymbolError):
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


def kahn_order(expressions: dict) -> list[str]:
    """Independent topological sort used to cross-check the engine's DFS."""
    computed = set(expressions)
    deps = {
        name: {d for d in variables(e) if d in computed}
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
        reference = kahn_order(vm.expressions)
        assert sorted(vm.order) == sorted(reference)
        for name in vm.order:
            for dep in variables(vm.expressions[name]):
                if dep in vm.expressions:
                    assert position[dep] < position[name]


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
    """Per-variable `eval_expression` walk over `vm.order`: the flow and
    auxiliary values, or the (exception type, variable) it stops at."""
    env = dict(vm.params)
    env.update(zip(vm.stocks, stocks))
    for name in vm.order:
        try:
            v = eval_expression(vm.expressions[name], env, t, g)
        except (ZeroDivisionError, OverflowError, ValueError) as err:
            return type(err), name
        if not math.isfinite(v):
            return NonFiniteError, name
        env[name] = v
    return [env[d.name] for d in (*vm.spec.flows, *vm.spec.auxiliaries)]


def generated(vm, stocks, t, g):
    """The generated evaluator's values, or (NonFiniteError, variable) for
    the variable it names."""
    try:
        return list(vm.evaluator(t, g, *stocks))
    except NonFiniteError as err:
        assert err.t == t
        return NonFiniteError, err.name


def as_bits(outcome):
    if isinstance(outcome, list):
        return [struct.pack("<d", v) for v in outcome]
    return outcome


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
        assert a.evaluator_source() == b.evaluator_source()
        assert a.evaluator.__code__ is b.evaluator.__code__
        assert a.evaluator(0.0, 0.0, 10.0) == (1.0,)
        assert b.evaluator(0.0, 0.0, 10.0) == (5.0,)

    def test_non_identifier_names_get_positional_locals(self):
        spec = ModelSpec(
            name="Odd",
            stocks=(StockDef("a b", 4.0),),
            flows=(FlowDef("out flow", parse_expression("0"), "a b", None),),
            auxiliaries=(AuxDef("half", BinOp("/", Var("a b"), Num(2.0))),),
        )
        vm = validate_model(spec)
        assert "def evaluate(t, g, _0):" in vm.evaluator_source()
        assert vm.evaluator(0.0, 0.0, 4.0) == (0.0, 2.0)

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
