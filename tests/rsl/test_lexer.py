"""The regex tokenizer yields exactly what the character walk did.

:func:`reference_tokenize` is the tokenizer that preceded the compiled
regex in :mod:`repro.rsl.lexer` — one character at a time — kept here
as the oracle.  Its quirks are part of the contract: a STRING token
carries the column of its opening quote but the line of its *closing*
one, and the "unterminated string" error names the line the text ends
on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RSLSyntaxError
from repro.rsl.lexer import Token, tokenize

_PUNCT = set("()&|+=\"#$")
_SIMPLE = {
    "(": "LPAREN", ")": "RPAREN", "&": "AMP", "|": "PIPE",
    "+": "PLUS", "=": "EQUALS", "$": "DOLLAR",
}


def reference_tokenize(text):
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        if ch in _SIMPLE:
            yield Token(_SIMPLE[ch], ch, i, line, col)
            i += 1
            continue
        if ch == '"':
            start = i
            i += 1
            chunks = []
            while True:
                if i >= n:
                    raise RSLSyntaxError(
                        f"unterminated string starting at line {line}, col {col}"
                    )
                if text[i] == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        chunks.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                if text[i] == "\n":
                    line += 1
                    line_start = i + 1
                chunks.append(text[i])
                i += 1
            yield Token("STRING", "".join(chunks), start, line, col)
            continue
        start = i
        while i < n and not text[i].isspace() and text[i] not in _PUNCT:
            i += 1
        yield Token("ATOM", text[start:i], start, line, col)
    yield Token("EOF", "", n, line, n - line_start + 1)


def _outcome(tokenizer, text):
    try:
        return list(tokenizer(text))
    except RSLSyntaxError as exc:
        return str(exc)


# Fragments that stress the lexer's seams: escaped and dangling quotes,
# comments (with quotes inside), newlines inside strings, Unicode
# whitespace that ``str.isspace`` accepts, and ordinary RSL.
_FRAGMENTS = st.sampled_from([
    '"', '""', '"""', 'a"b', '"a b"', '"say ""hi"""', '"line\nbreak"',
    "# comment\n", '# "quoted" comment', "#", "\n", "\r\n", " ", "\t",
    "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " ",
    "(", ")", "&", "|", "+", "=", "$", "$(HOME)",
    "count", "4", "my-host.domain:gatekeeper", "/bin/app", "é",
    "&(count=2)", '(executable="/bin/a out")', "+(&(a=1))(&(b=2))",
])

_TEXTS = st.one_of(
    st.lists(_FRAGMENTS, max_size=12).map("".join),
    st.text(alphabet='ab1 \t\n"#()&|+=$-.', max_size=30),
    st.text(max_size=30),
)


@given(_TEXTS)
@settings(max_examples=1500, deadline=None)
def test_same_tokens_and_same_errors_as_the_character_walk(text):
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


def test_every_whitespace_code_point_is_skipped():
    spaces = "".join(ch for ch in map(chr, range(0x3000 + 1)) if ch.isspace())
    assert "\x85" in spaces and " " in spaces
    tokens = list(tokenize(f"a{spaces}b"))
    assert [(t.kind, t.text) for t in tokens] == [("ATOM", "a"), ("ATOM", "b"), ("EOF", "")]


def test_string_token_carries_opening_column_and_closing_line():
    tokens = list(tokenize('x = "one\ntwo" y'))
    string = tokens[2]
    assert string == Token("STRING", "one\ntwo", 4, 2, 5)
    assert tokens[3] == Token("ATOM", "y", 14, 2, 6)
    assert tokens[-1] == Token("EOF", "", 15, 2, 7)


@pytest.mark.parametrize("text,message", [
    ('"open', "unterminated string starting at line 1, col 1"),
    ('a\n  "open\n\nmore', "unterminated string starting at line 4, col 3"),
    ('"a""', "unterminated string starting at line 1, col 1"),
    ('("ok") """', "unterminated string starting at line 1, col 8"),
])
def test_unterminated_string_message(text, message):
    with pytest.raises(RSLSyntaxError) as excinfo:
        list(tokenize(text))
    assert str(excinfo.value) == message
    assert _outcome(reference_tokenize, text) == message


def test_long_unterminated_string_fails_in_linear_time():
    # A pattern that retried every split of the body would not return.
    text = '"' + "ab" * 50_000 + '""' * 1000
    with pytest.raises(RSLSyntaxError):
        list(tokenize(text))
