"""Reference lexer: the model language's former character-by-character
tokenizer.

`reference_tokenize` walks the text one character at a time with `str`
predicates, exactly as `sfdsim.language.tokenize` did before it became one
compiled-pattern match per token. It is the oracle of the lexer's
differential test. It differs from the package in one known way: it starts
a number at any character for which `str.isdigit` holds, so `²` or `①`
become a number token that `float` cannot read, where the package accepts
decimal digits only and raises ParseError. Its tokens are its own type
and carry their line and column, so the oracle shares nothing with the
lexer it checks but ParseError.
"""

from __future__ import annotations

from typing import NamedTuple

from sfdsim.errors import ParseError


class Token(NamedTuple):
    """A reference token at its 1-based line and column."""

    kind: str
    text: str
    line: int
    column: int


PUNCT = (
    "->", "+=", "-=", "<=", ">=", "==", "!=",
    "{", "}", "(", ")", ",", "=", ":", ";", "+", "-", "*", "/", "^", "<", ">",
)


def reference_tokenize(text: str) -> list[Token]:
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
        for p in PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
