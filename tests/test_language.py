"""Lexer, parser, formatter, and linter for the model text format."""

from __future__ import annotations

import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfdsim import (
    ParseError,
    format_model,
    lint_model,
    parse_expression,
    parse_model,
    parse_scenario,
)
from sfdsim import expr as ex
from sfdsim import language
from sfdsim.language import Token, tokenize

from modelgen import generate_model
from reference_lexer import reference_tokenize
from reference_parser import reference_parse_expression

SAMPLE = """
# Water butt with an overflow and a weekly top-up.
model Butt {
  param Capacity = 200 [L]
  param FillRate = 12 [L/day]

  stock Water = 20 [L]
  stock Spilled = 0 [L] allow_negative

  aux headroom = Capacity - Water
  flow fill : -> Water = min(FillRate, headroom) [L/day]
  flow overflow : Water -> Spilled = max(0, Water - Capacity) [L/day]

  event topup every 7 start 3 {
    Water += 5
  }
}
"""


class TestTokenizer:
    def test_kinds_and_positions(self):
        text = "aux x = 1.5e-2 [m3]  # trailing\n+"
        tokens = tokenize(text)
        kinds = [(t.kind, t.text) for t in tokens]
        assert kinds == [
            ("ident", "aux"), ("ident", "x"), ("punct", "="),
            ("number", "1.5e-2"), ("unit", "m3"), ("punct", "+"), ("eof", ""),
        ]
        assert language._line_column(text, tokens[0].offset) == (1, 1)
        assert language._line_column(text, tokens[-2].offset) == (2, 1)

    def test_two_char_operators(self):
        texts = [t.text for t in tokenize("-> += -= <= >= == != < > -")[:-1]]
        assert texts == ["->", "+=", "-=", "<=", ">=", "==", "!=", "<", ">", "-"]

    def test_unterminated_unit(self):
        with pytest.raises(ParseError):
            tokenize("param X = 1 [m3")

    def test_unit_across_lines_rejected(self):
        with pytest.raises(ParseError):
            tokenize("param X = 1 [m\n3]")

    def test_comment_on_last_line_puts_eof_at_the_hash(self):
        assert tokenize("a # end")[-1] == Token("eof", "", 2)
        text = "a\n  # end\n"
        assert tokenize(text)[-1] == Token("eof", "", len(text))
        assert language._line_column(text, len(text)) == (3, 1)

    def test_whitespace_counts_one_column_per_character(self):
        text = "\ta\r b\n\t\tc"
        assert [(t.text, *language._line_column(text, t.offset)) for t in tokenize(text)] == [
            ("a", 1, 2), ("b", 1, 5), ("c", 2, 3), ("", 2, 4)]

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("aux x = 1 $ 2")
        assert err.value.column == 11

    def test_string_token(self):
        tokens = tokenize('description "two words" ;')
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds == [
            ("ident", "description"), ("string", "two words"), ("punct", ";"),
        ]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('description "open ended')

    def test_string_across_lines_rejected(self):
        with pytest.raises(ParseError):
            tokenize('description "first\nsecond"')


class TestNonDecimalDigits:
    """Numbers take decimal digits only; `²`, `①` and `½` are not numbers."""

    @pytest.mark.parametrize("value, column", [("²", 13), ("①", 13), ("½", 13), ("1²", 14)])
    def test_rejected_with_position(self, value, column):
        with pytest.raises(ParseError) as err:
            parse_model(f"model M {{\n  param A = {value}\n}}\n")
        assert (err.value.line, err.value.column) == (2, column)
        assert err.value.message == f"unexpected character {value[-1]!r}"

    @pytest.mark.parametrize("value, expected", [("٣", 3.0), ("١٢.٥", 12.5), ("１e２", 100.0)])
    def test_decimal_digits_of_any_script_parse(self, value, expected):
        spec = parse_model(f"model M {{\n  param A = {value}\n}}\n")
        assert spec.param("A") == expected

    def test_non_decimal_digits_continue_names(self):
        assert [t.text for t in tokenize("é² a½ _①")[:-1]] == ["é²", "a½", "_①"]


def _offset(text: str, line: int, column: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + column - 1


def _positioned(text: str) -> list[tuple]:
    """The lexer's tokens as (kind, text, line, column), as the reference gives them."""
    return [(t.kind, t.text, *language._line_column(text, t.offset)) for t in tokenize(text)]


def _outcome(lex, text: str):
    try:
        return lex(text)
    except ParseError as err:
        return err.message, err.line, err.column


def _reference_tokens(text: str) -> list:
    """The reference's tokens up to its error, if it raises, without `eof`."""
    outcome = _outcome(reference_tokenize, text)
    if isinstance(outcome, tuple):
        outcome = reference_tokenize(text[:_offset(text, *outcome[1:])])
    return outcome[:-1]


def _readable(number: str) -> bool:
    try:
        float(number)
    except ValueError:
        return False
    return True


_CHARS = 'abeEXM_019.+-*/^()<>=!,:;{}[]"# \t\r\n' + "é²٣½１"
_FRAGMENTS = ("model", "param", "aux", "event", "->", "+=", "1.5e-3", "2E+", "٣.٥",
              "[m3/day]", "[ m3 ]", '"a b"', "# note", "\n", "\r\n", "\t")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.text(alphabet=_CHARS, max_size=4)),
                max_size=30).map("".join))
@example("aux x = 1 # end")
@example("param X = 1 [m3")
@example('s "open\n"')
@example("a\n[b\n]")
@example("param A = ²")
@example("x = 1² [u")
def test_tokenize_matches_reference_lexer(text):
    # Equal tokens or an equal ParseError, except from the first number token
    # of the reference that `float` cannot read, such as `²`: before it the
    # results agree, and the lexer never makes such a token.
    bad = next((t for t in _reference_tokens(text)
                if t.kind == "number" and not _readable(t.text)), None)
    if bad is None:
        assert _outcome(_positioned, text) == _outcome(reference_tokenize, text)
        return
    prefix = text[:_offset(text, bad.line, bad.column)]
    assert _outcome(_positioned, prefix) == _outcome(reference_tokenize, prefix)
    outcome = _outcome(tokenize, text)
    if isinstance(outcome, list):
        assert all(_readable(t.text) for t in outcome if t.kind == "number")


def _reported(call, text: str):
    """(message, line, column) of the ParseError `call(text)` raises, or
    the list of them for the LintIssues it returns."""
    try:
        return [(i.message, i.line, i.column) for i in call(text)]
    except ParseError as err:
        return err.message, err.line, err.column


@pytest.mark.parametrize("call, text, expected", [
    (parse_scenario, 'scenario S {\r\n\t# note\n  description "open\n}',
     ("unterminated string", 3, 15)),
    (parse_scenario, "scenario S {\n\tset Dose = 3 $\n}", ("unexpected character '$'", 2, 15)),
    (parse_scenario, "scenario S {\n  set = 3\n}", ("expected parameter name, got '='", 2, 7)),
    (parse_expression, "a +\n\t* b", ("expected an expression, got '*'", 2, 2)),
    (parse_model, "model M {\r\n\tstok S = 0\r\n}",
     ("expected 'param', 'stock', 'flow', 'aux', or 'event', got 'stok'", 2, 2)),
    (lint_model, "model M {\r\n  param x = 1\r\n}",
     [("parameter 'x' should start with an uppercase letter", 2, 9)]),
], ids=["scenario-lex", "scenario-char", "scenario-parse", "expression", "model", "lint"])
def test_reported_position_past_tabs_crs_and_comments(call, text, expected):
    # Each position is on line 2 or later, behind a tab, a CR or a comment.
    assert _reported(call, text) == expected


class TestParser:
    def test_full_model(self):
        spec = parse_model(SAMPLE)
        assert spec.name == "Butt"
        assert [p.name for p in spec.parameters] == ["Capacity", "FillRate"]
        assert [s.name for s in spec.stocks] == ["Water", "Spilled"]
        assert spec.stocks[0].non_negative
        assert not spec.stocks[1].non_negative
        assert spec.flows[0].source is None and spec.flows[0].target == "Water"
        assert spec.flows[1].source == "Water" and spec.flows[1].target == "Spilled"
        assert spec.flows[0].unit == "L/day"
        assert spec.events[0].start == 3.0
        assert spec.events[0].interval == 7.0
        assert spec.events[0].actions[0].op == "add"

    def test_event_start_defaults_to_interval(self):
        spec = parse_model(
            "model M { stock S = 0 flow f : -> S = 1"
            " event e every 10 { S += 1 } }"
        )
        assert spec.events[0].start == 10.0

    def test_signed_param_value(self):
        spec = parse_model("model M { param X = -5 stock S = 0 flow f : -> S = X }")
        assert spec.parameters[0].value == -5.0

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_model("model M {\n  stok S = 0\n}")
        assert err.value.line == 2
        assert "expected" in err.value.message

    def test_missing_close_brace(self):
        with pytest.raises(ParseError):
            parse_model("model M { stock S = 0")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_model("model M { stock S = 0 flow f : -> S = 1 } extra")

    def test_strings_and_semicolons_are_not_model_syntax(self):
        with pytest.raises(ParseError):
            parse_model('model M { description "nope" stock S = 0 }')
        with pytest.raises(ParseError):
            parse_model("model M { stock S = 0; }")

    def test_bad_action_operator(self):
        with pytest.raises(ParseError):
            parse_model("model M { stock S = 0 event e every 1 { S *= 2 } }")

    def test_parse_expression_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 3")

    def test_unary_minus_only_before_numbers(self):
        with pytest.raises(ParseError):
            parse_expression("-x")
        assert parse_expression("0 - x") is not None


class TestFormatter:
    def test_round_trip_structural_equality(self):
        spec = parse_model(SAMPLE)
        assert parse_model(format_model(spec)) == spec

    def test_idempotent(self):
        once = format_model(parse_model(SAMPLE))
        assert format_model(parse_model(once)) == once

    def test_units_and_flags_preserved(self):
        text = format_model(parse_model(SAMPLE))
        assert "[L/day]" in text
        assert "allow_negative" in text
        assert "event topup every 7 start 3 {" in text

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_models_round_trip(self, seed):
        spec = generate_model(seed)
        assert parse_model(format_model(spec)) == spec


def literals(e: ex.Expr):
    if isinstance(e, ex.Num):
        yield e.value
    elif isinstance(e, ex.BinOp):
        yield from literals(e.left)
        yield from literals(e.right)
    elif isinstance(e, ex.Call):
        for arg in e.args:
            yield from literals(arg)


def number_bits(spec) -> list[bytes]:
    """The bits of every number in `spec`, in a fixed order. Structural
    equality cannot tell -0.0 from 0.0; this can."""
    values = [*(p.value for p in spec.parameters), *(s.initial for s in spec.stocks)]
    values += [v for d in (*spec.auxiliaries, *spec.flows) for v in literals(d.expression)]
    for e in spec.events:
        values += [e.start, e.interval, *(v for a in e.actions for v in literals(a.expression))]
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=200, deadline=None)
@example(value=-0.0)
@example(value=5e-324)
@example(value=-1.7976931348623157e308)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_format_keeps_every_number_bit_for_bit(value):
    n = ex.format_number(value)
    text = f"""model M {{
      param P = {n}
      stock S = {n} allow_negative
      aux a = {n} - {n} * max({n}, P)
      flow f : S -> = {n}
      event e every {n} start {n} {{ S += {n} }}
    }}"""
    spec = parse_model(text)
    assert number_bits(spec) == [struct.pack("<d", value)] * 9
    assert number_bits(parse_model(format_model(spec))) == number_bits(spec)


class TestLinter:
    def test_flags_exactly_seeded_violations(self, fixtures_dir):
        text = (fixtures_dir / "lint" / "naming_violations.sfd").read_text()
        issues = lint_model(text)
        found = {msg.message.split("'")[1] for msg in issues}
        assert found == {"totalCapacity", "pond", "Overflow", "Temperature2"}
        assert len(issues) == 4
        assert all(issue.code == "naming" for issue in issues)
        assert all(issue.line > 0 and issue.column > 0 for issue in issues)

    def test_clean_model_has_no_issues(self, fixtures_dir):
        assert lint_model((fixtures_dir / "baseline.sfd").read_text()) == []
        assert lint_model(SAMPLE) == []

    def test_names_come_from_definitions_only(self):
        # A parameter named like a keyword, used in an expression just before
        # the next definition: `stock aux` is not a stock definition.
        text = ("model M {\n  param stock = 2\n  aux level = stock\n"
                "  aux other = 1\n}\n")
        issues = lint_model(text)
        assert [(i.line, i.column, i.message) for i in issues] == [
            (2, 9, "parameter 'stock' should start with an uppercase letter")]

    def test_unparseable_text_raises(self):
        with pytest.raises(ParseError):
            lint_model("model M {")


class TestParseCache:
    """`parse_model` and `lint_model` share one bounded parse per text."""

    def test_same_text_gives_the_same_model(self):
        first = parse_model(SAMPLE)
        assert parse_model("".join(list(SAMPLE))) is first  # equal text, another string
        language._parsed.cache_clear()
        fresh = parse_model(SAMPLE)
        assert fresh is not first
        assert fresh == first

    def test_text_differing_past_the_name_is_parsed_again(self):
        edited = SAMPLE.replace("Capacity = 200", "Capacity = 250")
        assert len(edited) == len(SAMPLE)
        assert parse_model(SAMPLE).parameters[0].value == 200.0
        assert parse_model(edited).parameters[0].value == 250.0

    def test_lint_is_the_same_cold_and_warm(self, fixtures_dir):
        text = (fixtures_dir / "lint" / "naming_violations.sfd").read_text()
        language._parsed.cache_clear()
        cold = lint_model(text)
        warm = lint_model(text)
        assert language._parsed.cache_info().hits == 1
        language._parsed.cache_clear()
        parse_model(text)
        after_parse = lint_model(text)
        assert len(cold) == 4
        assert warm == cold  # every field: line, column, code and message
        assert after_parse == cold

    @pytest.mark.parametrize("text", [
        "model M {",
        "model M {\n  param X = 1 [m3\n}\n",
        "model M {\n  aux x = 1 $ 2\n}\n",
    ])
    def test_parse_error_is_raised_on_every_call(self, text):
        language._parsed.cache_clear()
        seen = []
        for call in (parse_model, lint_model, parse_model, lint_model):
            with pytest.raises(ParseError) as info:
                call(text)
            seen.append((info.value.message, info.value.line, info.value.column))
        assert seen == [seen[0]] * 4
        info = language._parsed.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4, 0)

    def test_size_stays_bounded(self):
        maxsize = language._parsed.cache_info().maxsize
        assert maxsize is not None
        for i in range(3 * maxsize):
            parse_model(f"model M{i} {{\n  param P = {i}\n}}\n")
            assert language._parsed.cache_info().currsize <= maxsize
        assert language._parsed.cache_info().currsize == maxsize


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_parser_total_on_arbitrary_text(text):
    # Any input either parses or raises ParseError; nothing else escapes.
    try:
        parse_model(text)
    except ParseError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet='ax1+-*/^()<>=!, .;"\n', max_size=80))
def test_expression_parser_total(text):
    try:
        parse_expression(text)
    except ParseError:
        pass


def _as_tuples(node: ex.Expr) -> tuple:
    """`node` as the reference parser's plain tuples."""
    if isinstance(node, ex.Num):
        return ("num", node.value)
    if isinstance(node, ex.Var):
        return ("var", node.name)
    if isinstance(node, ex.BinOp):
        return ("bin", node.op, _as_tuples(node.left), _as_tuples(node.right))
    return ("call", node.fn, tuple(map(_as_tuples, node.args)))


# Grammar oracle vocabulary, spelled out rather than read from the package.
_OPERATORS = ("<", "<=", ">", ">=", "==", "!=", "+", "-", "*", "/", "^")
_LEAVES = ("0", "1", "2.5", "3e2", "- 4", "-0", "a", "b", "t", "x1")
_VOCABULARY = (*_OPERATORS, *_LEAVES, "(", ")", "(", ")", ",", "min", "f", "=", ";")
_JOINERS = (" ", " ", " ", "", "\n", "\t")


def _well_formed(rng: random.Random, depth: int) -> list[str]:
    """Tokens of a random expression; chained comparisons are left in."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return [rng.choice(_LEAVES)]
    if roll < 0.7:
        return [*_well_formed(rng, depth - 1), rng.choice(_OPERATORS),
                *_well_formed(rng, depth - 1)]
    if roll < 0.85:
        return ["(", *_well_formed(rng, depth - 1), ")"]
    tokens = [rng.choice(("min", "f")), "("]
    for k in range(rng.randint(1, 3)):
        tokens += [","] * (k > 0) + _well_formed(rng, depth - 1)
    return tokens + [")"]


def _token_string(rng: random.Random) -> str:
    """Random tokens, or a random expression with up to two tokens
    inserted, deleted or replaced, joined by random white space."""
    if rng.random() < 0.3:
        tokens = [rng.choice(_VOCABULARY) for _ in range(rng.randint(0, 12))]
    else:
        tokens = _well_formed(rng, rng.randint(1, 4))
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(tokens) + 1)
            edit = rng.choice(("insert", "delete", "replace"))
            if edit == "insert":
                tokens.insert(i, rng.choice(_VOCABULARY))
            elif i < len(tokens):
                tokens[i:i + 1] = [rng.choice(_VOCABULARY)] if edit == "replace" else []
    return "".join(tok + rng.choice(_JOINERS) for tok in tokens)


def test_expression_parser_matches_reference_grammar():
    # The same tree, signs of zero included, or the same ParseError, for
    # each of 4000 token strings over operators of every level, parentheses,
    # signs, numbers, names, calls and stray commas.
    rng = random.Random(20)
    trees, errors, operators = 0, 0, set()
    for _ in range(4000):
        text = _token_string(rng)
        try:
            want = reference_parse_expression(text)
        except ParseError as err:
            want = (err.message, err.line, err.column)
            errors += 1
        else:
            trees += 1
            operators |= set(re.findall(r"\('bin', '([^']+)'", repr(want)))
        try:
            got = _as_tuples(parse_expression(text))
        except ParseError as err:
            got = (err.message, err.line, err.column)
        assert repr(got) == repr(want), text
    assert trees > 1000 and errors > 1000
    assert operators == set(_OPERATORS)


def test_deep_parentheses_parse():
    # One level of parentheses costs the parser two stack frames.
    assert parse_expression("(" * 300 + "a" + ")" * 300) == ex.Var("a")


class TestOperatorTable:
    def test_every_operator_is_a_token(self):
        assert set(ex.PRECEDENCE) <= set(language._PUNCT)

    def test_comparisons_are_the_loosest_level(self):
        assert {op for op, level in ex.PRECEDENCE.items() if level == 1} == set(ex.COMPARISONS)
        assert min(ex.PRECEDENCE.values()) == 1
