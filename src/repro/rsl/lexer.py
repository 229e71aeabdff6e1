"""Tokenizer for RSL text.

Token kinds: ``(`` ``)`` ``&`` ``|`` ``+`` ``=``, bare-word ATOMs
(``count``, ``4``, ``my-host.domain``) and quoted STRINGs
(``"a value with spaces"``, with ``""`` as the escaped quote, as in
Globus RSL).  Quoted strings are never numerically coerced by the
parser.  ``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from repro.errors import RSLSyntaxError


class Token(NamedTuple):
    kind: str  # one of: LPAREN RPAREN AMP PIPE PLUS EQUALS DOLLAR ATOM STRING EOF
    text: str
    pos: int  # character offset, for error messages
    line: int
    col: int

    def __repr__(self) -> str:
        return f"<{self.kind} {self.text!r} @{self.line}:{self.col}>"


_SIMPLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    "&": "AMP",
    "|": "PIPE",
    "+": "PLUS",
    "=": "EQUALS",
    "$": "DOLLAR",
}

#: One alternative per lexeme, tried in order at every position; between
#: them they match any character, so ``finditer`` never skips input.
#: ``\s`` is ``str.isspace``.  A STRING's closing quote is one that is
#: not the first half of a ``""`` escape; an opening quote that never
#: finds one falls through to UNTERMINATED.
_LEXEME = re.compile(
    r"""
      (?P<SKIP>\s+|\#[^\n]*)
    | (?P<ATOM>[^\s()&|+="#$]+)
    | (?P<SIMPLE>[()&|+=$])
    | (?P<STRING>"[^"]*(?:""[^"]*)*"(?!"))
    | (?P<UNTERMINATED>")
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens, ending with a single EOF token."""
    line = 1
    line_start = 0
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        start = match.start()
        col = start - line_start + 1
        if kind == "ATOM":
            yield Token("ATOM", match.group(), start, line, col)
            continue
        if kind == "SIMPLE":
            lexeme = match.group()
            yield Token(_SIMPLE[lexeme], lexeme, start, line, col)
            continue
        # Whitespace, comments and strings can span lines; an
        # unterminated string swallows the rest of the text.
        end = len(text) if kind == "UNTERMINATED" else match.end()
        newlines = text.count("\n", start, end)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, end) + 1
        # A string's token (and an unterminated one's error) carries
        # the column of its opening quote and the line of its end.
        if kind == "STRING":
            body = text[start + 1:end - 1].replace('""', '"')
            yield Token("STRING", body, start, line, col)
        elif kind == "UNTERMINATED":
            raise RSLSyntaxError(
                f"unterminated string starting at line {line}, col {col}"
            )
    yield Token("EOF", "", len(text), line, len(text) - line_start + 1)
