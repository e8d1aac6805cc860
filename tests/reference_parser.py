"""Reference parser: the model language's former four-method expression
grammar.

`reference_parse_expression` is the recursive descent that
`sfdsim.language` used before its parser climbed `expr.PRECEDENCE`: one
method per precedence level, each spelling its own operators. It reads
`reference_lexer`'s tokens and builds plain tuples,

    ("num", value), ("var", name), ("bin", op, left, right), ("call", fn, args)

so it shares no operator table, tree type or code with the parser it
checks, but ParseError. It is the oracle of the grammar's differential
test: the parser and the printer read one table, so a wrong entry in it
would still pass every round-trip test.
"""

from __future__ import annotations

from sfdsim.errors import ParseError

from reference_lexer import Token, reference_tokenize


def reference_parse_expression(text: str) -> tuple:
    """The tree of the standalone expression `text`; ParseError, with the
    parser's message, line and column, if it is not one."""
    parser = _Parser(reference_tokenize(text))
    node = parser.expression()
    if parser.peek().kind != "eof":
        raise parser.fail("unexpected trailing input")
    return node


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        got = tok.text or "end of input"
        return ParseError(f"{message}, got {got!r}", tok.line, tok.column)

    def at(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text in texts

    def take(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expression(self) -> tuple:
        left = self.sum_()
        if self.at("<", "<=", ">", ">=", "==", "!="):
            op = self.advance().text
            return ("bin", op, left, self.sum_())
        return left

    def sum_(self) -> tuple:
        node = self.product()
        while self.at("+", "-"):
            op = self.advance().text
            node = ("bin", op, node, self.product())
        return node

    def product(self) -> tuple:
        node = self.power()
        while self.at("*", "/"):
            op = self.advance().text
            node = ("bin", op, node, self.power())
        return node

    def power(self) -> tuple:
        base = self.atom()
        if self.take("^"):
            return ("bin", "^", base, self.power())
        return base

    def atom(self) -> tuple:
        if self.take("("):
            node = self.expression()
            if not self.take(")"):
                raise self.fail("expected ')'")
            return node
        tok = self.peek()
        if self.at("-"):
            # A sign is allowed only directly before a number.
            nxt = self.tokens[self.pos + 1]
            if nxt.kind != "number":
                raise self.fail("'-' must be followed by a number here")
            self.pos += 2
            return ("num", -float(nxt.text))
        if tok.kind == "number":
            self.advance()
            return ("num", float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.take("("):
                args = [self.expression()]
                while self.take(","):
                    args.append(self.expression())
                if not self.take(")"):
                    raise self.fail("expected ')'")
                return ("call", tok.text, tuple(args))
            return ("var", tok.text)
        raise self.fail("expected an expression")
