"""Arithmetic expression trees for model equations.

Expressions are built from numeric literals, variable references, binary
operators, and a fixed set of builtin functions. Four walks read a tree:

- `validate_expression` checks it, and collects the names it reads and its
  `noise()` scales, for the evaluation order and the noise decision;
- `hoisting_source` renders it as Python expression text. It is the one
  emitter: from its texts `model.validate_model` generates one evaluator
  and one action function per event for each model, with the values that
  read only parameters computed once, in `bind`. The package evaluates
  expressions only through that code;
- `to_source` renders it as model-language text;
- `eval_expression` interprets it, performing the same floating-point
  operations in the same order as the generated code, so its results, and
  the exceptions it raises, are identical. It is kept as the tests'
  reference; `bench/tracer.py` also calls it.

The symbol `t` always refers to current simulation time. `noise(scale)`
multiplies its argument by the per-evaluation Gaussian draw `g` supplied by
the engine, which makes stochastic terms reproducible under a fixed seed.
"""

from __future__ import annotations

import _random
import math
from dataclasses import dataclass
from typing import Callable, Container

from .errors import UnknownSymbolError

# Builtin function name -> arity. `if` is lazy: only the taken branch is
# evaluated, so guarded divisions like if(x > 0, y / x, 0) are safe.
BUILTINS: dict[str, int] = {
    "min": 2,
    "max": 2,
    "clamp": 3,
    "abs": 1,
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "ln": 1,
    "if": 3,
    "ceil": 1,
    "floor": 1,
    "noise": 1,
}

COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")

# Binary operator -> precedence, for parsing, validation, printing and
# emitting. Comparisons bind loosest and do not chain; `^` binds tightest and
# associates to the right, the others to the left.
PRECEDENCE = {
    "<": 1, "<=": 1, ">": 1, ">=": 1, "==": 1, "!=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3,
    "^": 4,
}

# The exceptions an evaluation raises on an arithmetic fault (division by
# zero, overflow of pow/exp, a math domain error).
FAULTS = (ZeroDivisionError, OverflowError, ValueError)
# What generated code raises on a fault: also the NameError of reading a
# value left unbound because it faulted in `bind`.
FAULTS_OR_UNBOUND = (*FAULTS, NameError)


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


def eval_expression(expr: Expr, env: dict[str, float], t: float = 0.0, g: float = 0.0) -> float:
    """Evaluate `expr` against `env`, with time `t` and noise draw `g`.

    Comparison operators return 1.0 or 0.0. Raises UnknownSymbolError for
    names missing from `env`; arithmetic faults (division by zero, log of a
    negative) propagate as the usual Python exceptions for the caller to map.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name == "t":
            return t
        try:
            return env[expr.name]
        except KeyError:
            raise UnknownSymbolError(f"undefined symbol '{expr.name}'") from None
    if isinstance(expr, BinOp):
        a = eval_expression(expr.left, env, t, g)
        b = eval_expression(expr.right, env, t, g)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if op == "^":
            return math.pow(a, b)
        if op == "<":
            return 1.0 if a < b else 0.0
        if op == "<=":
            return 1.0 if a <= b else 0.0
        if op == ">":
            return 1.0 if a > b else 0.0
        if op == ">=":
            return 1.0 if a >= b else 0.0
        if op == "==":
            return 1.0 if a == b else 0.0
        if op == "!=":
            return 1.0 if a != b else 0.0
        raise ValueError(f"unknown operator '{op}'")
    if isinstance(expr, Call):
        fn = expr.fn
        if fn == "if":
            cond = eval_expression(expr.args[0], env, t, g)
            branch = expr.args[1] if cond != 0.0 else expr.args[2]
            return eval_expression(branch, env, t, g)
        args = [eval_expression(a, env, t, g) for a in expr.args]
        if fn == "min":
            return min(args[0], args[1])
        if fn == "max":
            return max(args[0], args[1])
        if fn == "clamp":
            return min(max(args[0], args[1]), args[2])
        if fn == "abs":
            return abs(args[0])
        if fn == "sin":
            return math.sin(args[0])
        if fn == "cos":
            return math.cos(args[0])
        if fn == "exp":
            return math.exp(args[0])
        if fn == "ln":
            return math.log(args[0])
        if fn == "ceil":
            return float(math.ceil(args[0]))
        if fn == "floor":
            return float(math.floor(args[0]))
        if fn == "noise":
            return args[0] * g
        raise UnknownSymbolError(f"unknown function '{fn}'")
    raise TypeError(f"not an expression node: {expr!r}")


def validate_expression(expr: Expr, known: Container[str], names: set[str] | None = None,
                        scales: list[Expr] | None = None) -> tuple[set[str], list[Expr]]:
    """Check that all names resolve and builtin calls have correct arity.

    Returns `(names, scales)`: every name `expr` reads, `t` included, added
    to `names`, and the argument of every `noise()` call, an outer call
    first, appended to `scales`. Each is a new container if not given. The
    tree is checked in pre-order, left to right, so the first fault found
    is the one raised.
    """
    if names is None:
        names = set()
    if scales is None:
        scales = []
    if isinstance(expr, Num):
        if not math.isfinite(expr.value):
            raise ValueError(f"non-finite literal {expr.value!r}")
    elif isinstance(expr, Var):
        if expr.name != "t" and expr.name not in known:
            raise UnknownSymbolError(f"undefined symbol '{expr.name}'")
        names.add(expr.name)
    elif isinstance(expr, BinOp):
        if expr.op not in PRECEDENCE:
            raise ValueError(f"unknown operator '{expr.op}'")
        validate_expression(expr.left, known, names, scales)
        validate_expression(expr.right, known, names, scales)
    elif isinstance(expr, Call):
        arity = BUILTINS.get(expr.fn)
        if arity is None:
            raise UnknownSymbolError(f"unknown function '{expr.fn}'")
        if len(expr.args) != arity:
            raise ValueError(f"{expr.fn}() takes {arity} arguments, got {len(expr.args)}")
        if expr.fn == "noise":
            scales.append(expr.args[0])
        for a in expr.args:
            validate_expression(a, known, names, scales)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    return names, scales


def to_source(expr: Expr) -> str:
    """Render `expr` as model-language text with minimal parentheses.

    Round-trips through the parser: parse(to_source(e)) == e.
    """
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Num):
        return format_number(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return expr.fn + "(" + ", ".join(_render(a, 0) for a in expr.args) + ")"
    if isinstance(expr, BinOp):
        prec = PRECEDENCE[expr.op]
        # `^` groups to the right, a comparison not at all, the rest to the left.
        left = prec + 1 if expr.op == "^" or prec == 1 else prec
        right = prec if expr.op == "^" else prec + 1
        text = _render(expr.left, left) + f" {expr.op} " + _render(expr.right, right)
        return "(" + text + ")" if prec < parent_prec else text
    raise TypeError(f"not an expression node: {expr!r}")


def format_number(value: float) -> str:
    """Shortest text the parser reads back as `value`, sign of zero
    included. ValueError for a non-finite value, which it cannot read."""
    if not math.isfinite(value):
        raise ValueError(f"no literal for non-finite {value!r}")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value)) if value or math.copysign(1.0, value) > 0 else "-0"
    return repr(value)


# Globals of generated code (see model.ValidatedModel): the math
# functions that builtins are emitted as; `min`, `max` and `clamp` need
# none (see `_pick`). No name here starts with "_", so none can clash with
# a model variable's local, which always does.
CODEGEN_GLOBALS: dict[str, object] = {
    "pow": math.pow, "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": math.log, "ceil": math.ceil, "floor": math.floor,
}


def hoisting_source(expr: Expr, local: Callable[[str], str], fixed: Container[str],
                    hoist: Callable[[str], str] | None) -> tuple[str, bool]:
    """Python expression text equivalent to `expr`, and whether `expr`
    reads only names in `fixed`, and neither `t` nor `noise()`.

    Variables become the names `local(name)` returns; `t` and `g` stay
    free, as do the builtins and `CODEGEN_GLOBALS`. The text mirrors
    `eval_expression` operation for operation, so the two cannot drift
    apart numerically. `min`, `max` and `clamp` become conditional
    expressions that give the builtins' bits, for `-0.0` and NaN too (see
    `_pick`). An operation is parenthesized whole, but the left operand of
    a `+ - * /` operation at its own `PRECEDENCE` level loses its outer
    parentheses, as Python groups it the same way: a long sum nests none.
    A right operand keeps them, so each text still comes from one tree.
    If `expr` does not read only `fixed` names, and `hoist` is given, each
    maximal operation or call subtree that does is replaced by the name
    `hoist` returns for the subtree's own text, its value computed
    elsewhere. A bare name or number stays in place.
    """
    if isinstance(expr, Num):
        return repr(expr.value), True
    if isinstance(expr, Var):
        if expr.name == "t":
            return "t", False
        return local(expr.name), expr.name in fixed
    if isinstance(expr, BinOp):
        a, left = hoisting_source(expr.left, local, fixed, hoist)
        b, right = hoisting_source(expr.right, local, fixed, hoist)
        invariant = left and right
        if hoist and not invariant:
            a, b = _hoisted((expr.left, expr.right), [a, b], [left, right], hoist)
        if expr.op in COMPARISONS:
            return f"(1.0 if {a} {expr.op} {b} else 0.0)", invariant
        if expr.op == "^":
            return f"pow({a}, {b})", invariant
        if (isinstance(expr.left, BinOp) and a[0] == "("  # not hoisted
                and PRECEDENCE[expr.left.op] == PRECEDENCE[expr.op]):
            a = a[1:-1]  # Python groups `a - b + c` to the left too
        return f"({a} {expr.op} {b})", invariant
    if isinstance(expr, Call):
        texts, flags = [], []
        for arg in expr.args:
            text, flag = hoisting_source(arg, local, fixed, hoist)
            texts.append(text)
            flags.append(flag)
        fn = expr.fn
        invariant = fn != "noise" and all(flags)
        if hoist and not invariant and any(flags):
            texts = _hoisted(expr.args, texts, flags, hoist)
        if fn == "if":
            return f"({texts[1]} if {_test(expr.args[0], texts[0])} else {texts[2]})", invariant
        if fn in ("min", "max"):
            return _pick(fn, texts[0], texts[1]), invariant
        if fn in ("abs", "sin", "cos", "exp"):
            return f"{fn}({texts[0]})", invariant
        if fn == "clamp":
            return _pick("min", _pick("max", texts[0], texts[1]), texts[2]), invariant
        if fn == "ln":
            return f"log({texts[0]})", invariant
        if fn in ("ceil", "floor"):
            return f"float({fn}({texts[0]}))", invariant
        if fn == "noise":
            return f"({texts[0]} * g)", False
        raise UnknownSymbolError(f"unknown function '{fn}'")
    raise TypeError(f"not an expression node: {expr!r}")


def _pick(fn: str, a: str, b: str) -> str:
    """`fn(a, b)`, for "min" or "max", with the builtin's comparison:
    `(b if a > b else a)` for min and `(b if a < b else a)` for max. Each
    operand is evaluated once, `a` first; one that is not a name or a
    number is held in the temporary `a{n}` or `b{n}`, n = len(a) + len(b).
    A call nested in an operand has a shorter text, so it never reuses a
    live temporary, and equal subtrees still give equal text. No other
    name in `bind`, `evaluate`, an action or the engine's fused step loop
    (whose RK4 stage rates are `ra{j}`, `rb{j}` and `rc{j}`) has this
    form."""
    n, held = len(a) + len(b), []
    for name, text in ((f"a{n}", a), (f"b{n}", b)):
        plain = text.isidentifier() or text.lstrip("-")[:1].isdigit()
        held.append((text, text) if plain else (f"({name} := {text})", name))
    (first, a), (second, b) = held
    return f"({b} if {first} {'>' if fn == 'min' else '<'} {second} else {a})"


def _hoisted(children: tuple[Expr, ...], texts: list[str], flags: list[bool],
             hoist: Callable[[str], str]) -> list[str]:
    """`texts` of the operands `children` of a node that reads more than
    the fixed names, with each operation or call that reads only them
    replaced by its hoisted name."""
    return [hoist(text) if flag and isinstance(child, (BinOp, Call)) else text
            for child, text, flag in zip(children, texts, flags)]


def _test(condition: Expr, text: str) -> str:
    """Python test that holds exactly when `condition`, of text `text`, is
    non-zero, as `if()` reads it. A comparison that is not hoisted has the
    text `(1.0 if test else 0.0)`, and `test` is used directly."""
    if (isinstance(condition, BinOp) and condition.op in COMPARISONS
            and text.startswith("(1.0 if ")):
        return text.removeprefix("(1.0 if ").removesuffix(" else 0.0)")
    return f"{text} != 0.0"


_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)  # as in `random`


def daily_gauss(seed: int, day: int) -> float:
    """Standard-normal draw for (seed, day), stable across runs and order.

    Each day gets its own generator keyed by seed and day index, so changing
    the horizon or recording stride never shifts the noise sequence.
    The value is `random.Random(key).normalvariate(0.0, 1.0)`, from the C
    generator and an inlined copy of its Kinderman-Monahan loop.
    """
    rand = _random.Random(((seed & _MASK64) << 32) ^ (day & _MASK32)).random
    while True:
        u1 = rand()
        u2 = 1.0 - rand()
        z = _NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -math.log(u2):
            return z
