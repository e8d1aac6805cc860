"""Text format for models: lexer, parser, linter, and formatter.

The format is line-oriented in style but whitespace-insensitive in fact;
every definition starts with a keyword, so no separators are needed. A
model file looks like:

    model Treatment {
      param TotalCapacity = 18000 [m3]
      stock AccumulatedVinasse = 0 [m3]
      flow vinasseInflow : -> AccumulatedVinasse = min(a, b) [m3/day]
      aux temperature = TMean + TAmp * sin(6.28 * t / 365) [C]
      event pickup every 30 start 30 {
        AccumulatedSludge -= min(AccumulatedSludge, TruckCapacityKg)
      }
    }

Flows read `source -> target`; either side may be blank for a boundary
flow. Units in square brackets are optional everywhere. A stock may be
marked `allow_negative` after its unit. `#` starts a comment. Keywords are
contextual, so they remain usable as variable names.

`format_model` renders a ModelSpec back to canonical text and round-trips
with `parse_model`. `lint_model` reports naming-convention violations:
parameters and stocks are UpperCamelCase, flows, auxiliaries, and events
lowerCamelCase.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .errors import ParseError
from .model import (
    AuxDef,
    EventAction,
    EventDef,
    FlowDef,
    ModelSpec,
    ParamDef,
    StockDef,
)

_PUNCT = (
    "->", "+=", "-=", "<=", ">=", "==", "!=",
    "{", "}", "(", ")", ",", "=", ":", ";", "+", "-", "*", "/", "^", "<", ">",
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident", "number", "punct", "unit", "string", "eof"
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "[":
            j = text.find("]", i + 1)
            if j < 0:
                raise ParseError("unterminated unit bracket", line, col)
            unit = text[i + 1:j].strip()
            if "\n" in text[i:j]:
                raise ParseError("unit bracket spans lines", line, col)
            tokens.append(Token("unit", unit, line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            if "\n" in text[i:j]:
                raise ParseError("string spans lines", line, col)
            tokens.append(Token("string", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.definitions: list[tuple[str, Token]] = []  # (keyword, name token)

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        got = tok.text or "end of input"
        return ParseError(f"{message}, got {got!r}", tok.line, tok.column)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise self.fail(f"expected '{text}'")
        return self.advance()

    def take_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            self.advance()
            return True
        return False

    def expect_ident(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected {what}")
        return self.advance()

    def define(self, keyword: str, what: str) -> str:
        """Read the name a `keyword` definition introduces."""
        tok = self.expect_ident(what)
        self.definitions.append((keyword, tok))
        return tok.text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def take_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    # --- literals -----------------------------------------------------

    def number(self) -> float:
        sign = 1.0
        if self.peek().kind == "punct" and self.peek().text == "-":
            self.advance()
            sign = -1.0
        tok = self.peek()
        if tok.kind != "number":
            raise self.fail("expected a number")
        self.advance()
        return sign * float(tok.text)

    def unit(self) -> str:
        if self.peek().kind == "unit":
            return self.advance().text
        return ""

    def string(self, what: str = "string") -> str:
        tok = self.peek()
        if tok.kind != "string":
            raise self.fail(f"expected a quoted {what}")
        return self.advance().text

    # --- expressions ----------------------------------------------------

    def expression(self) -> ex.Expr:
        left = self.sum_()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ex.COMPARISONS:
            self.advance()
            right = self.sum_()
            return ex.BinOp(tok.text, left, right)
        return left

    def sum_(self) -> ex.Expr:
        node = self.product()
        while self.peek().kind == "punct" and self.peek().text in ("+", "-"):
            op = self.advance().text
            node = ex.BinOp(op, node, self.product())
        return node

    def product(self) -> ex.Expr:
        node = self.power()
        while self.peek().kind == "punct" and self.peek().text in ("*", "/"):
            op = self.advance().text
            node = ex.BinOp(op, node, self.power())
        return node

    def power(self) -> ex.Expr:
        base = self.atom()
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.advance()
            return ex.BinOp("^", base, self.power())
        return base

    def atom(self) -> ex.Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            node = self.expression()
            self.expect_punct(")")
            return node
        if tok.kind == "punct" and tok.text == "-":
            # A sign is permitted only directly before a numeric literal.
            nxt = self.peek(1)
            if nxt.kind != "number":
                raise self.fail("'-' must be followed by a number here")
            self.advance()
            self.advance()
            return ex.Num(-float(nxt.text))
        if tok.kind == "number":
            self.advance()
            return ex.Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "punct" and self.peek().text == "(":
                self.advance()
                args = [self.expression()]
                while self.peek().kind == "punct" and self.peek().text == ",":
                    self.advance()
                    args.append(self.expression())
                self.expect_punct(")")
                return ex.Call(tok.text, tuple(args))
            return ex.Var(tok.text)
        raise self.fail("expected an expression")

    # --- definitions ----------------------------------------------------

    def model(self) -> ModelSpec:
        if not self.take_keyword("model"):
            raise self.fail("expected 'model'")
        name = self.expect_ident("model name").text
        self.expect_punct("{")
        stocks: list[StockDef] = []
        flows: list[FlowDef] = []
        auxes: list[AuxDef] = []
        params: list[ParamDef] = []
        events: list[EventDef] = []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            if self.take_keyword("param"):
                pname = self.define("param", "parameter name")
                self.expect_punct("=")
                value = self.number()
                params.append(ParamDef(pname, value, self.unit()))
            elif self.take_keyword("stock"):
                sname = self.define("stock", "stock name")
                self.expect_punct("=")
                initial = self.number()
                unit = self.unit()
                non_negative = not self.take_keyword("allow_negative")
                stocks.append(StockDef(sname, initial, unit, non_negative))
            elif self.take_keyword("flow"):
                fname = self.define("flow", "flow name")
                self.expect_punct(":")
                source = None
                if self.peek().kind == "ident":
                    source = self.advance().text
                self.expect_punct("->")
                target = None
                if self.peek().kind == "ident":
                    target = self.advance().text
                self.expect_punct("=")
                expression = self.expression()
                flows.append(FlowDef(fname, expression, source, target, self.unit()))
            elif self.take_keyword("aux"):
                aname = self.define("aux", "auxiliary name")
                self.expect_punct("=")
                expression = self.expression()
                auxes.append(AuxDef(aname, expression, self.unit()))
            elif self.take_keyword("event"):
                events.append(self.event())
            else:
                raise self.fail(
                    "expected 'param', 'stock', 'flow', 'aux', or 'event'"
                )
        self.expect_punct("}")
        if self.peek().kind != "eof":
            raise self.fail("expected end of input after model")
        return ModelSpec(
            name=name,
            stocks=tuple(stocks),
            flows=tuple(flows),
            auxiliaries=tuple(auxes),
            parameters=tuple(params),
            events=tuple(events),
        )

    def event(self) -> EventDef:
        name = self.define("event", "event name")
        if not self.take_keyword("every"):
            raise self.fail("expected 'every'")
        interval = self.number()
        start = interval
        if self.take_keyword("start"):
            start = self.number()
        self.expect_punct("{")
        actions: list[EventAction] = []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            target = self.expect_ident("stock name").text
            tok = self.peek()
            if tok.kind == "punct" and tok.text in ("+=", "-=", "="):
                op = {"+=": "add", "-=": "subtract", "=": "set"}[self.advance().text]
            else:
                raise self.fail("expected '+=', '-=', or '='")
            actions.append(EventAction(target, op, self.expression()))
        self.expect_punct("}")
        return EventDef(name=name, start=start, interval=interval, actions=tuple(actions))


def parse_model(text: str) -> ModelSpec:
    """Parse model text into a ModelSpec. Raises ParseError with position."""
    return _Parser(tokenize(text)).model()


def parse_expression(text: str) -> ex.Expr:
    """Parse a standalone expression in the model language."""
    parser = _Parser(tokenize(text))
    node = parser.expression()
    if parser.peek().kind != "eof":
        raise parser.fail("unexpected trailing input")
    return node


def format_model(spec: ModelSpec) -> str:
    """Render a ModelSpec as canonical model text.

    Definitions keep their declaration order within each section; sections
    are ordered param, stock, aux, flow, event. parse(format(m)) == m.
    """
    def unit_suffix(unit: str) -> str:
        return f" [{unit}]" if unit else ""

    lines = [f"model {spec.name} {{"]
    for p in spec.parameters:
        lines.append(f"  param {p.name} = {ex.format_number(p.value)}{unit_suffix(p.unit)}")
    if spec.parameters and spec.stocks:
        lines.append("")
    for s in spec.stocks:
        flag = "" if s.non_negative else " allow_negative"
        lines.append(
            f"  stock {s.name} = {ex.format_number(s.initial)}{unit_suffix(s.unit)}{flag}"
        )
    if spec.stocks and (spec.flows or spec.auxiliaries):
        lines.append("")
    for a in spec.auxiliaries:
        lines.append(f"  aux {a.name} = {ex.to_source(a.expression)}{unit_suffix(a.unit)}")
    for f in spec.flows:
        endpoints = f"{f.source or ''} -> {f.target or ''}".strip()
        lines.append(
            f"  flow {f.name} : {endpoints} = "
            f"{ex.to_source(f.expression)}{unit_suffix(f.unit)}"
        )
    for e in spec.events:
        lines.append("")
        header = f"  event {e.name} every {ex.format_number(e.interval)}"
        if e.start != e.interval:
            header += f" start {ex.format_number(e.start)}"
        lines.append(header + " {")
        symbol = {"add": "+=", "subtract": "-=", "set": "="}
        for act in e.actions:
            lines.append(
                f"    {act.target} {symbol[act.op]} {ex.to_source(act.expression)}"
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class LintIssue:
    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


_UPPER_KINDS = {"param": "parameter", "stock": "stock"}
_LOWER_KINDS = {"flow": "flow", "aux": "auxiliary", "event": "event"}


def lint_model(text: str) -> list[LintIssue]:
    """Check model text against the naming convention.

    Parameters and stocks name quantities that are set from outside the
    dynamics and start with an uppercase letter; flows, auxiliaries, and
    events are computed or scheduled behavior and start lowercase. The text
    must parse; structural problems raise ParseError instead.
    """
    parser = _Parser(tokenize(text))
    parser.model()
    issues: list[LintIssue] = []
    for kind, tok in parser.definitions:
        name = tok.text
        if kind in _UPPER_KINDS and not name[0].isupper():
            issues.append(LintIssue(
                tok.line, tok.column, "naming",
                f"{_UPPER_KINDS[kind]} '{name}' should start with an uppercase letter",
            ))
        elif kind in _LOWER_KINDS and not name[0].islower():
            issues.append(LintIssue(
                tok.line, tok.column, "naming",
                f"{_LOWER_KINDS[kind]} '{name}' should start with a lowercase letter",
            ))
    return issues
