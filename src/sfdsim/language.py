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
contextual, so they remain usable as variable names. Operators bind as
`expr.PRECEDENCE` says: comparisons loosest and unchained, `^` tightest.

Identifiers start with a letter (`str.isalpha`) or `_` and go on with
letters, digits, other numeric characters (`str.isalnum`) or `_`, so `é1`
and `a²` are names. Numbers use decimal digits (`str.isdecimal`), in any
script: `٣` reads as 3. Any other character, such as `²`, `①` or `½`
where a token starts, is a ParseError at its line and column.

A token records the offset of its first character. The line and column of
a ParseError or a LintIssue are computed from that offset only when one is
reported, one column per character: a tab or a CR counts as one.

`format_model` renders a ModelSpec back to canonical text and round-trips
with `parse_model`. `lint_model` reports naming-convention violations:
parameters and stocks are UpperCamelCase, flows, auxiliaries, and events
lowerCamelCase.

`parse_model` and `lint_model` share one parse per text: a small,
bounded cache keyed by the text itself, so `lint`, `fmt` and `simulate`
of one file in one process parse it once, and an edited file is parsed
again. A ParseError is not cached. The cached ModelSpec and Tokens are
immutable, so every caller may share them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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

# One match per token: skip whitespace and comments, then take the token.
# A comment on the last line belongs to `eof`, which so starts at the `#`.
# `\d` is a decimal digit and `\w` a character for which `str.isalnum`
# holds, or `_`; `word` is a non-ASCII `\w` run, an identifier only when
# it starts with a letter. `error` takes any other character.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*"
    r"(?:(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")"
    r"|(?P<unit>\[[^\]\n]*\])"
    r'|(?P<string>"[^"\n]*")'
    r"|(?P<word>\w+)"
    r"|(?P<eof>(?:#[^\n]*)?\Z)"
    r"|(?P<error>.))",
    re.DOTALL,
)
_PLAIN = frozenset(("ident", "number", "punct"))
_ACTION_OPS = {"+=": "add", "-=": "subtract", "=": "set"}  # spelling -> EventAction.op


class Token(NamedTuple):
    kind: str  # "ident", "number", "punct", "unit", "string", "eof"
    text: str
    offset: int  # index in the text of the token's first character


def tokenize(text: str) -> list[Token]:
    # Some group matches at every position (`error` takes any character and
    # `eof` the end), so each match starts where the last one ended.
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind in _PLAIN:
            tokens.append(Token(kind, text[start:end], start))
        elif kind == "unit":
            tokens.append(Token(kind, text[start + 1:end - 1].strip(), start))
        elif kind == "string":
            tokens.append(Token(kind, text[start + 1:end - 1], start))
        elif kind == "word" and text[start].isalpha():
            tokens.append(Token("ident", text[start:end], start))
        elif kind == "eof":
            tokens.append(Token(kind, "", start))
            return tokens
        else:
            raise _lex_error(text, start)


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset`, one column per character."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex_error(text: str, start: int) -> ParseError:
    """The error for the token that cannot start at `start`."""
    ch = text[start]
    message = f"unexpected character {ch!r}"
    if ch in "[\"":
        what = "unit bracket" if ch == "[" else "string"
        close = text.find("]" if ch == "[" else '"', start + 1)
        message = f"unterminated {what}" if close < 0 else f"{what} spans lines"
    return ParseError(message, *_line_column(text, start))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.definitions: list[tuple[str, Token]] = []  # (keyword, name token)

    def peek(self) -> Token:
        # `eof` is the last token and `advance` never passes it.
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        got = tok.text or "end of input"
        return ParseError(f"{message}, got {got!r}", *_line_column(self.text, tok.offset))

    def at_punct(self, *texts: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "punct" and tok.text in texts

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.fail(f"expected '{text}'")
        return self.advance()

    def take_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.pos += 1
            return True
        return False

    def expect_ident(self, what: str = "name") -> Token:
        if self.peek().kind != "ident":
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
        if self.take_punct("-"):
            sign = -1.0
        if self.peek().kind != "number":
            raise self.fail("expected a number")
        return sign * float(self.advance().text)

    def unit(self) -> str:
        if self.peek().kind == "unit":
            return self.advance().text
        return ""

    def string(self, what: str = "string") -> str:
        if self.peek().kind != "string":
            raise self.fail(f"expected a quoted {what}")
        return self.advance().text

    # --- expressions ----------------------------------------------------

    def expression(self, floor: int = 1) -> ex.Expr:
        """Climb `ex.PRECEDENCE` from an atom, over operators at `floor` or
        above. A comparison ends the expression: comparisons do not chain."""
        node = self.atom()
        while True:
            tok = self.tokens[self.pos]
            level = ex.PRECEDENCE.get(tok.text, 0) if tok.kind == "punct" else 0
            if level < floor:
                return node
            self.pos += 1
            op = tok.text
            node = ex.BinOp(op, node, self.expression(level if op == "^" else level + 1))
            if level == 1:
                return node

    def atom(self) -> ex.Expr:
        if self.take_punct("("):
            node = self.expression()
            self.expect_punct(")")
            return node
        tok = self.peek()
        if self.at_punct("-"):
            # A sign is permitted only directly before a numeric literal;
            # a `-` is not `eof`, so a token follows it.
            nxt = self.tokens[self.pos + 1]
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
            if self.take_punct("("):
                args = [self.expression()]
                while self.take_punct(","):
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
        while not self.at_punct("}"):
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
        while not self.at_punct("}"):
            target = self.expect_ident("stock name").text
            if self.at_punct(*_ACTION_OPS):
                op = _ACTION_OPS[self.advance().text]
            else:
                raise self.fail("expected '+=', '-=', or '='")
            actions.append(EventAction(target, op, self.expression()))
        self.expect_punct("}")
        return EventDef(name=name, start=start, interval=interval, actions=tuple(actions))


@lru_cache(maxsize=4)
def _parsed(text: str) -> tuple[ModelSpec, tuple[tuple[str, Token], ...]]:
    """The ModelSpec of `text` and its (keyword, name token) definitions."""
    parser = _Parser(text)
    return parser.model(), tuple(parser.definitions)


def parse_model(text: str) -> ModelSpec:
    """Parse model text into a ModelSpec. Raises ParseError with position."""
    return _parsed(text)[0]


def parse_expression(text: str) -> ex.Expr:
    """Parse a standalone expression in the model language."""
    parser = _Parser(text)
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

    spelling = {op: text for text, op in _ACTION_OPS.items()}
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
        for act in e.actions:
            lines.append(f"    {act.target} {spelling[act.op]} {ex.to_source(act.expression)}")
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
    issues: list[LintIssue] = []
    for kind, tok in _parsed(text)[1]:
        name = tok.text
        if kind in _UPPER_KINDS and not name[0].isupper():
            message = f"{_UPPER_KINDS[kind]} '{name}' should start with an uppercase letter"
        elif kind in _LOWER_KINDS and not name[0].islower():
            message = f"{_LOWER_KINDS[kind]} '{name}' should start with a lowercase letter"
        else:
            continue
        issues.append(LintIssue(*_line_column(text, tok.offset), "naming", message))
    return issues
