"""The offset-based tokenizer against the line-tracking one it replaced."""

import re
from typing import Iterator, NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from twf.dsl import RESERVED, Diagnostic, ParseError, _position, _quote, _tokenize

# ---------------------------------------------------------------------------
# Reference: the former tokenizer, which tracked line and column per token


class Token(NamedTuple):
    kind: str  # IDENT, STRING, ARROW, one-char punctuation, EOF
    value: str
    line: int
    col: int


# One alternative per token kind, tried in order.  A quoted name ends on
# its own line unless a backslash escapes the newline; a quote that starts
# no such name falls through to BAD, as does any character no token takes.
_TOKEN_RE = re.compile(
    r"""(?P<STRING>'(?:\\.|[^\\'\n])*'|"(?:\\.|[^\\"\n])*")"""
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<ARROW>->)|(?P<PUNCT>[{}():;|,=])"
    r"|(?P<SKIP>[ \t\r\n]+)|(?P<COMMENT>#[^\n]*)|(?P<BAD>.)",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def reference_tokenize(text: str) -> Iterator[Token]:
    """Tokens with 1-based line:col positions; every character but a
    newline is one column."""
    line, line_start, end = 1, 0, 0
    for match in _TOKEN_RE.finditer(text):
        kind, start, end = match.lastgroup, match.start(), match.end()
        col = start - line_start + 1
        if kind in ("IDENT", "ARROW", "PUNCT"):
            value = match.group()
            yield Token(value if kind == "PUNCT" else kind, value, line, col)
            continue
        if kind == "BAD":
            ch = match.group()
            message = "unterminated string" if ch in "'\"" else f"unexpected character {ch!r}"
            raise ParseError([Diagnostic(line, col, message)])
        if kind == "COMMENT":
            end = start  # input that ends in a comment ends at its '#'
            continue
        if kind == "STRING":
            yield Token(kind, _ESCAPE_RE.sub(r"\1", text[start + 1 : end - 1]), line, col)
        # only blanks and quoted names span newlines
        newline = text.rfind("\n", start, end)
        if newline >= 0:
            line += text.count("\n", start, end)
            line_start = newline + 1
    yield Token("EOF", "", line, end - line_start + 1)


# ---------------------------------------------------------------------------
# Random source texts

_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def _quoted(draw) -> str:
    """A quoted name, with escapes and escaped newlines, sometimes left open."""
    quote = draw(st.sampled_from("'\""))
    body = draw(
        st.lists(
            st.sampled_from(["a", "b c", " ", "#", "'", '"', "\\\\", "\\'", '\\"', "\\\n", "\\n", "\\"]),
            max_size=5,
        )
    )
    return quote + "".join(body) + (quote if draw(st.booleans()) else "")


_PIECES = st.one_of(
    _NAMES,
    st.sampled_from(sorted(RESERVED)),
    _quoted(),
    st.sampled_from(["->", "-", ">", "{", "}", "(", ")", ":", ";", "|", ",", "="]),
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\r"]),
    st.text(st.sampled_from(" \t\r#'\"a-"), max_size=6).map(lambda body: "#" + body),
    st.sampled_from(["@", "\x0c", "\\", "'", '"', "é", "\x00", "7"]),
)
_TEXTS = st.lists(_PIECES, max_size=25).map("".join)


def _outcome(tokens) -> list | str:
    try:
        return list(tokens)
    except ParseError as exc:
        return str(exc)


@given(_TEXTS)
@settings(max_examples=600, deadline=None)
def test_tokens_match_the_reference(text):
    want = _outcome(reference_tokenize(text))
    try:
        got = _tokenize(text)
    except ParseError as exc:
        # a lexical error has the same text, position included
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    assert [(kind, value) for kind, value, _ in got] == [(t.kind, t.value) for t in want]
    assert [_position(text, offset) for _, _, offset in got] == [(t.line, t.col) for t in want]


@given(st.one_of(_NAMES, st.sampled_from(sorted(RESERVED)), st.text(max_size=6)))
@settings(max_examples=300, deadline=None)
def test_quote_leaves_bare_what_the_reference_reads_as_one_identifier(name):
    bare = _TOKEN_RE.fullmatch(name)
    one_identifier = bare is not None and bare.lastgroup == "IDENT"
    assert (_quote(name) == name) == (one_identifier and name not in RESERVED)
