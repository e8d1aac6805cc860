"""Expression tree semantics, printing, code generation, and noise draws."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdsim import (
    AuxDef,
    EventAction,
    EventDef,
    ModelSpec,
    NonFiniteError,
    ParamDef,
    SimConfig,
    StockDef,
    UnknownSymbolError,
    parse_expression,
    run_simulation,
    validate_model,
)
from sfdsim.expr import (
    FAULTS_OR_UNBOUND,
    BinOp,
    Call,
    Num,
    Var,
    daily_gauss,
    eval_expression,
    format_number,
    to_source,
    validate_expression,
)

ENV = {"x": 3.0, "y": -2.0, "z": 0.5}


def ev(text: str, env=None, t: float = 0.0, g: float = 0.0) -> float:
    return eval_expression(parse_expression(text), env or dict(ENV), t, g)


class TestEvaluation:
    def test_arithmetic(self):
        assert ev("1 + 2 * 3") == 7.0
        assert ev("(1 + 2) * 3") == 9.0
        assert ev("7 / 2") == 3.5
        assert ev("2 ^ 10") == 1024.0
        assert ev("x - y") == 5.0

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 512.0

    def test_signed_literals(self):
        assert ev("-3 + 1") == -2.0
        assert ev("2 * -4") == -8.0
        assert ev("x - -2") == 5.0

    def test_comparisons_return_indicator(self):
        assert ev("3 < 4") == 1.0
        assert ev("4 < 3") == 0.0
        assert ev("3 <= 3") == 1.0
        assert ev("3 >= 4") == 0.0
        assert ev("x == 3") == 1.0
        assert ev("x != 3") == 0.0

    def test_builtins(self):
        assert ev("min(3, 4)") == 3.0
        assert ev("max(3, 4)") == 4.0
        assert ev("clamp(5, 0, 4)") == 4.0
        assert ev("clamp(-1, 0, 4)") == 0.0
        assert ev("abs(y)") == 2.0
        assert ev("ln(exp(2))") == pytest.approx(2.0)
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("ceil(2.1)") == 3.0
        assert ev("floor(2.9)") == 2.0

    def test_if_is_lazy(self):
        # The untaken branch would divide by zero if evaluated.
        assert ev("if(x > 0, 1, 1 / 0)") == 1.0
        assert ev("if(x < 0, 1 / 0, 2)") == 2.0

    def test_time_symbol(self):
        assert ev("t * 2", t=21.0) == 42.0

    def test_noise_scales_draw(self):
        assert ev("noise(2)", g=1.5) == 3.0
        assert ev("noise(0)", g=123.4) == 0.0

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            ev("nope + 1")

    def test_division_by_zero_propagates(self):
        with pytest.raises(ZeroDivisionError):
            ev("1 / (x - 3)")


class TestValidation:
    def test_accepts_known_names(self):
        validate_expression(parse_expression("x + t"), {"x"})

    def test_rejects_unknown_names(self):
        with pytest.raises(UnknownSymbolError):
            validate_expression(parse_expression("q"), {"x"})

    def test_rejects_unknown_function(self):
        with pytest.raises(UnknownSymbolError):
            validate_expression(Call("tan", (Num(1.0),)), {"x"})

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            validate_expression(Call("min", (Num(1.0),)), set())

    def test_rejects_non_finite_literal(self):
        with pytest.raises(ValueError):
            validate_expression(Num(float("inf")), set())

    def test_returns_names_read_and_noise_scales(self):
        expression = parse_expression("min(a, b) + c * t + noise(k * noise(2)) - noise(t)")
        names, scales = validate_expression(expression, {"a", "b", "c", "k"})
        assert names == {"a", "b", "c", "k", "t"}
        assert scales == [parse_expression("k * noise(2)"), Num(2.0), Var("t")]
        assert validate_expression(parse_expression("1 + 2"), set()) == (set(), [])

    def test_adds_to_the_given_containers(self):
        names, scales = {"z"}, [Num(9.0)]
        got = validate_expression(parse_expression("x + noise(y)"), {"x", "y"}, names, scales)
        assert got[0] is names and got[1] is scales
        assert (names, scales) == ({"x", "y", "z"}, [Num(9.0), Var("y")])

    @pytest.mark.parametrize("expression, error, message", [
        (parse_expression("q + min(1)"), UnknownSymbolError, "undefined symbol 'q'"),
        (parse_expression("min(1) + q"), ValueError, "min() takes 2 arguments, got 1"),
        (parse_expression("tan(min(1))"), UnknownSymbolError, "unknown function 'tan'"),
        (parse_expression("min(q, 1, 2)"), ValueError, "min() takes 2 arguments, got 3"),
        (parse_expression("noise(q) + noise(1, 2)"), UnknownSymbolError,
         "undefined symbol 'q'"),
        (BinOp("%", Var("q"), Num(1.0)), ValueError, "unknown operator '%'"),
        (BinOp("+", Num(math.inf), Var("q")), ValueError, "non-finite literal inf"),
        (BinOp("+", Var("q"), Num(math.inf)), UnknownSymbolError, "undefined symbol 'q'"),
    ])
    def test_first_fault_in_pre_order_is_raised(self, expression, error, message):
        with pytest.raises(error) as err:
            validate_expression(expression, {"x"})
        assert type(err.value) is error and str(err.value) == message


    @pytest.mark.parametrize("op", ["%", "**", "=", "+=", "<>", "and"])
    def test_rejects_an_operator_outside_the_table(self, op):
        with pytest.raises(ValueError, match=re.escape(f"unknown operator '{op}'")):
            validate_expression(BinOp(op, Num(1.0), Num(2.0)), set())


class TestPrinting:
    CASES = [
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "a - (b - c)",
        "a - b - c",
        "2 ^ 3 ^ 2",
        "(2 ^ 3) ^ 2",
        "-3 * x",
        "a / (b * c)",
        "min(a, max(b, c))",
        "if(a > 0, a / b, 0)",
        "(a < b) * 4",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_is_stable(self, text):
        tree = parse_expression(text)
        printed = to_source(tree)
        assert parse_expression(printed) == tree
        assert to_source(parse_expression(printed)) == printed

    def test_minimal_parentheses(self):
        assert to_source(parse_expression("(a * b) + c")) == "a * b + c"
        assert to_source(parse_expression("a + (b + c)")) == "a + (b + c)"

    def test_format_number(self):
        assert format_number(18000.0) == "18000"
        assert format_number(12.5) == "12.5"
        assert format_number(-3.0) == "-3"
        assert format_number(0.1) == "0.1"
        assert format_number(1e20) == "1e+20"
        assert format_number(0.0) == "0"
        assert format_number(-0.0) == "-0"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_format_number_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            format_number(value)


# Random expression trees over a fixed environment; used to pin the
# interpreter and the generated model evaluator to identical behavior.
_names = st.sampled_from(["x", "y", "z", "t"])
_numbers = st.floats(min_value=-50, max_value=50, allow_nan=False).map(
    lambda v: Num(round(v, 3))
)


def _exprs(depth: int):
    leaf = st.one_of(_numbers, _names.map(Var))
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    binop = st.tuples(
        st.sampled_from(["+", "-", "*", "/", "^", "<", "<=", ">", ">=", "==", "!="]),
        sub, sub,
    ).map(lambda x: BinOp(*x))
    unary_call = st.tuples(
        st.sampled_from(["abs", "sin", "cos", "exp", "ln", "ceil", "floor", "noise"]), sub
    ).map(lambda x: Call(x[0], (x[1],)))
    binary_call = st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
        lambda x: Call(x[0], (x[1], x[2]))
    )
    ternary_call = st.tuples(st.sampled_from(["clamp", "if"]), sub, sub, sub).map(
        lambda x: Call(x[0], (x[1], x[2], x[3]))
    )
    return st.one_of(leaf, binop, unary_call, binary_call, ternary_call)


def one_aux_model(tree) -> ModelSpec:
    """`tree` as auxiliary `e` and as the action of an event adding to
    stock z, over parameters x, y and stock z."""
    return ModelSpec(
        name="One",
        stocks=(StockDef("z", 0.0),),
        auxiliaries=(AuxDef("e", tree),),
        parameters=(ParamDef("x", 3.0), ParamDef("y", -2.0)),
        events=(EventDef("bump", 1.0, 0.0, (EventAction("z", "add", tree),)),),
    )


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=300, deadline=None)
@given(tree=_exprs(3), g=st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_compiled_matches_interpreter(tree, g):
    env = {"x": 3.0, "y": -2.0, "z": 0.5}
    vm = validate_model(one_aux_model(tree))

    # As an event action its own noise reads as 0 whatever the step's
    # draw. A fault propagates, or is a NameError where the faulting
    # subtree reads only parameters and so stays unbound in `bind`; a run
    # names the event for either.
    try:
        expected = eval_expression(tree, env, 7.0, 0.0)
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        with pytest.raises((type(err), NameError)) as raised:
            vm.actions[0](7.0, [0.5], g)
        assert isinstance(raised.value, FAULTS_OR_UNBOUND)
        if raised.type is NameError:
            run_alone = ModelSpec(
                name="Alone", stocks=(StockDef("z", 0.5),),
                parameters=(ParamDef("x", 3.0), ParamDef("y", -2.0)),
                events=(EventDef("bump", 7.0, 0.0, (EventAction("z", "add", tree),)),))
            with pytest.raises(NonFiniteError) as failed:
                run_simulation(run_alone, SimConfig(t_end=7.0))
            assert (failed.value.name, failed.value.t) == ("event bump", 7.0)
    else:
        (actual,) = vm.actions[0](7.0, [0.5], g)
        assert bits(actual) == bits(expected)

    # As an auxiliary, a fault or a non-finite value is named.
    try:
        expected = eval_expression(tree, env, 7.0, g)
    except (ZeroDivisionError, OverflowError, ValueError):
        expected = math.nan
    if not math.isfinite(expected):
        with pytest.raises(NonFiniteError) as err:
            vm.evaluator(7.0, g, 0.5)
        assert (err.value.name, err.value.t) == ("e", 7.0)
        return
    # The row is the stock as passed in, then `e`.
    assert list(map(bits, vm.evaluator(7.0, g, 0.5))) == [bits(0.5), bits(expected)]


INF = 1e308 * 10
# Edge operands of min, max and clamp as model text, with their values.
EDGES = {"0": 0.0, "-0": -0.0, "1": 1.0, "-1": -1.0, "1e308 * 10": INF, "-1e308 * 10": -INF,
         "1e308 * 10 - 1e308 * 10": INF - INF}
EDGE_CASES = [(fn, texts) for fn, arity in (("min", 2), ("max", 2), ("clamp", 3))
              for texts in itertools.product(EDGES, repeat=arity)]


def stock_model(aux: str, actions: tuple[str, ...] = (), stocks: int = 3) -> ModelSpec:
    """Stocks s0, s1, ..., the auxiliary `e` = `aux`, and an event whose
    actions add each of `actions` to s0."""
    events = (EventDef("bump", 1.0, 0.0, tuple(EventAction("s0", "add", parse_expression(a))
                                               for a in actions)),) if actions else ()
    return ModelSpec(name="Stocks", stocks=tuple(StockDef(f"s{i}", 0.0) for i in range(stocks)),
                     auxiliaries=(AuxDef("e", parse_expression(aux)),), events=events)


def assert_evaluates_as_interpreted(vm, stocks, g=0.0):
    """The evaluator's row is the stocks as passed in and the interpreter's
    bits for `e`, or it names `e` when the interpreter's value is not
    finite."""
    env = {s.name: v for s, v in zip(vm.spec.stocks, stocks)}
    expected = eval_expression(vm.spec.auxiliaries[0].expression, env, 7.0, g)
    if math.isfinite(expected):
        row = vm.evaluator(7.0, g, *stocks)
        assert list(map(bits, row)) == [*map(bits, stocks), bits(expected)], (stocks, vm.source)
    else:
        with pytest.raises(NonFiniteError) as err:
            vm.evaluator(7.0, g, *stocks)
        assert (err.value.name, err.value.t) == ("e", 7.0), (stocks, vm.source)


@pytest.mark.parametrize("context", ["bind", "auxiliary", "held", "noise"])
def test_min_max_clamp_edge_values_match_interpreter(context):
    # +-0, +-1, +-inf and NaN in each operand position: as a value computed
    # in `bind`, in the evaluator on names and on operands held in
    # temporaries, and as a noise() scale, whose noise decision is made in
    # `bind`.
    for fn, texts in EDGE_CASES:
        stocks = [EDGES[text] for text in texts] + [0.0] * (3 - len(texts))
        names = [f"s{i}" for i in range(len(texts))]
        operands = {"bind": texts, "noise": texts, "auxiliary": names,
                    "held": [f"{name} * 1" for name in names]}[context]
        call = f"{fn}({', '.join(operands)})"
        vm = validate_model(stock_model(f"noise({call})" if context == "noise" else call))
        if context == "bind":
            assert "    try: _e = " in vm.source.partition("def evaluate")[0]
        if context == "noise":
            scale = eval_expression(parse_expression(call), {})
            assert vm.draws_noise is (scale != 0.0), call
        assert_evaluates_as_interpreted(vm, stocks, 0.5)


def test_min_max_clamp_edge_values_in_actions():
    for fn, texts in EDGE_CASES:
        stocks = [EDGES[text] for text in texts] + [0.0] * (3 - len(texts))
        # An action reads stock i as x[i], which is held in a temporary.
        on_stocks = f"{fn}({', '.join(f's{i}' for i in range(len(texts)))})"
        vm = validate_model(stock_model("s0", (on_stocks, f"{fn}({', '.join(texts)})")))
        env = dict(zip(("s0", "s1", "s2"), stocks))
        expected = [eval_expression(a.expression, env, 7.0, 0.0)
                    for a in vm.spec.events[0].actions]
        actual = vm.actions[0](7.0, stocks, 0.5)
        assert list(map(bits, actual)) == list(map(bits, expected)), (fn, texts)


@pytest.mark.parametrize("text, value", [("max(0, s0)", 0.0), ("max(s0, 0)", None),
                                         ("min(1, s0)", 1.0), ("clamp(s0, -1, 1)", None)])
@pytest.mark.parametrize("wrap", ["{}", "{} * 1"])
def test_nan_masked_only_where_the_builtin_masks_it(text, value, wrap):
    vm = validate_model(stock_model(text.replace("s0", wrap.format("s0")), stocks=1))
    if value is None:
        with pytest.raises(NonFiniteError) as err:
            vm.evaluator(7.0, 0.0, INF - INF)
        assert err.value.name == "e"
    else:
        nan = INF - INF
        assert list(map(bits, vm.evaluator(7.0, 0.0, nan))) == [bits(nan), bits(value)]


NESTED = [
    "min(max(a, b), max(c, min(d, e)))",
    "max(min(a, b), min(c, max(d, e)))",
    "min(min(min(a, b), c), min(d, max(e, a)))",
    "clamp(min(a, b), max(c, d), clamp(e, a, b))",
    "max(a, clamp(b, min(c, d), max(e, a))) - min(clamp(a, b, c), d)",
]


@pytest.mark.parametrize("text", NESTED)
@pytest.mark.parametrize("wrap", ["{}", "{} * 1"])
def test_nested_min_max_clamp_match_interpreter(text, wrap):
    # Each call holds its operands in temporaries that a nested call must
    # not overwrite while they are live; distinct values show a clash.
    text = re.sub(r"\b[a-e]\b", lambda m: wrap.format(f"s{ord(m.group()) - ord('a')}"), text)
    vm = validate_model(stock_model(text, (text,), stocks=5))
    rng = random.Random(text)
    pool = [0.0, -0.0, 1.0, -1.0, INF, -INF, INF - INF]
    for _ in range(200):
        stocks = [rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-9.0, 9.0)
                  for _ in range(5)]
        assert_evaluates_as_interpreted(vm, stocks)
        env = {f"s{i}": v for i, v in enumerate(stocks)}
        expected = eval_expression(vm.spec.events[0].actions[0].expression, env, 7.0, 0.0)
        (actual,) = vm.actions[0](7.0, stocks, 0.0)
        assert bits(actual) == bits(expected), stocks


@pytest.mark.parametrize("x", [0.0, -0.0, 0.5, 1.0, 2.0, -3.0, INF - INF])
def test_if_on_min_is_not_read_as_a_comparison(x):
    # min(s0, 1) is emitted with the "(1.0 if " prefix of a comparison's
    # text; if() must still test it against zero.
    vm = validate_model(stock_model("if(min(s0, 1), 10, 20)", ("if(min(s0, 1), 10, 20)",)))
    assert "(1.0 if _s0 > 1.0 else _s0)" in vm.source
    assert_evaluates_as_interpreted(vm, [x, 0.0, 0.0])
    expected = eval_expression(parse_expression("if(min(s0, 1), 10, 20)"), {"s0": x})
    assert vm.actions[0](7.0, [x, 0.0, 0.0], 0.0) == (expected,)


@pytest.mark.parametrize("text", ["clamp(s0, 3, 1)", "clamp(s0 * 1, s1 + 3, s1 + 1)"])
@pytest.mark.parametrize("x", [-5.0, 0.0, 2.0, 5.0])
def test_clamp_with_crossed_bounds_gives_the_upper(text, x):
    vm = validate_model(stock_model(text))
    assert vm.evaluator(7.0, 0.0, x, 0.0, 0.0) == (x, 0.0, 0.0, 1.0)
    assert_evaluates_as_interpreted(vm, [x, 0.0, 0.0])


@pytest.mark.parametrize("text, emitted", [
    ("s0 - s1 + s2", "(_s0 - _s1 + _s2)"),
    ("s0 / s1 * s2", "(_s0 / _s1 * _s2)"),
    ("s0 - (s1 - s2)", "(_s0 - (_s1 - _s2))"),
    ("s0 / (s1 * s2) / s0", "(_s0 / (_s1 * _s2) / _s0)"),
    ("s0 * s1 - s2 / s0 + abs(s1) ^ s2", "((_s0 * _s1) - (_s2 / _s0) + pow(abs(_s1), _s2))"),
    ("s0 + P * Q - s1 + (P - Q) + s2", "(_s0 + _6 - _s1 + _7 + _s2)"),
    ("P - Q - s0 + s1", "(_6 - _s0 + _s1)"),
    ("P * Q / s0 * Q", "(_6 / _s0 * _Q)"),
])
def test_left_operand_of_its_own_level_is_emitted_bare(text, emitted):
    # Python groups `a - b + c` as the tree does, so the same operations run
    # in the same order; a right operand keeps its parentheses. `_6` and
    # `_7` are subtrees on parameters alone, hoisted into `bind`.
    spec = dataclasses.replace(stock_model(text),
                               parameters=(ParamDef("P", 3.7), ParamDef("Q", -0.3)))
    vm = validate_model(spec)
    assert f"_e = {emitted}\n" in vm.source
    rng = random.Random(text)
    for _ in range(200):
        stocks = [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 9.0) for _ in range(3)]
        env = {"P": 3.7, "Q": -0.3, **{f"s{i}": v for i, v in enumerate(stocks)}}
        expected = eval_expression(spec.auxiliaries[0].expression, env, 7.0, 0.0)
        row = vm.evaluator(7.0, 0.0, *stocks)
        assert list(map(bits, row)) == [*map(bits, stocks), bits(expected)]


@settings(max_examples=200, deadline=None)
@given(tree=_exprs(3))
def test_printer_round_trips_random_trees(tree):
    assert parse_expression(to_source(tree)) == tree


def test_compile_source_names_env():
    src = validate_model(one_aux_model(parse_expression("x + t"))).source
    assert "def bind(_x, _y):" in src
    assert "def evaluate(t, g, _z):" in src
    assert "_e = (_x + t)" in src
    # One finiteness test, a sum; where it fails, or on a fault, the scan
    # names the first bad variable in evaluation order.
    assert ("            if (s := _e) - s == 0.0 or first_bad(ORDER, locals()) is None:\n"
            "                return (_z, _e, )\n") in src
    assert ("        except FAULTS_OR_UNBOUND:\n            pass\n"
            "        raise NonFiniteError(first_bad(ORDER, locals()), t)\n") in src
    assert src.count(" - s == 0.0") == 1 and src.count("raise") == 1
    lines = src.splitlines()
    assert lines[-1] == "ORDER = (('e', '_e'), )"
    assert lines[3] == "            _e = (_x + t)"
    for gone in ("NAMES", "tb_lineno", "raise NonFiniteError('e', t)", "fail"):
        assert gone not in src
    assert src.partition("def act0")[0].count("try:") == 1  # one in the evaluator
    assert "    def act0(t, x, draw):\n        g = 0.0\n" in src
    assert "o = evaluate(" not in src  # the action reads no flow or auxiliary
    assert "return ((_x + t), )" in src
    assert "noisy = False" in src
    assert "return evaluate, (act0, ), noisy" in src


def test_compiled_globals_are_the_codegen_names():
    vm = validate_model(one_aux_model(parse_expression("x + t")))
    names = {name: value for name, value in vm.evaluator.__globals__.items()
             if name != "__builtins__"}
    assert set(names) == {"ceil", "cos", "exp", "floor", "log", "pow", "sin", "FAULTS",
                          "FAULTS_OR_UNBOUND", "NonFiniteError", "first_bad", "ORDER"}
    assert names["ceil"] is math.ceil and names["pow"] is math.pow
    assert names["FAULTS"] == (ZeroDivisionError, OverflowError, ValueError)
    assert names["FAULTS_OR_UNBOUND"] == (*names["FAULTS"], NameError)
    assert names["NonFiniteError"] is NonFiniteError
    assert names["ORDER"] == (("e", "_e"),)


class TestDailyGauss:
    def test_repeatable(self):
        assert daily_gauss(42, 100) == daily_gauss(42, 100)

    def test_day_and_seed_sensitivity(self):
        assert daily_gauss(42, 100) != daily_gauss(42, 101)
        assert daily_gauss(42, 100) != daily_gauss(43, 100)

    def test_independent_of_call_order(self):
        forward = [daily_gauss(7, d) for d in range(10)]
        backward = [daily_gauss(7, d) for d in reversed(range(10))]
        assert forward == backward[::-1]

    def test_negative_day_allowed(self):
        assert math.isfinite(daily_gauss(1, -5))

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, -5, 2**40, 2**70])
    def test_bit_equal_to_random_normalvariate(self, seed):
        mask64, mask32 = (1 << 64) - 1, (1 << 32) - 1
        for day in range(-3, 400):
            key = ((seed & mask64) << 32) ^ (day & mask32)
            expected = random.Random(key).normalvariate(0.0, 1.0)
            assert daily_gauss(seed, day).hex() == expected.hex(), day
