"""The one-pass lexer against the per-match lexer it replaced
(tests/lexer_oracle.py): the same tokens with the same kind, text, line and
column, or the same ParseError with the same span."""

import pytest
from hypothesis import example, given, settings, strategies as st

from natstrat.casestudy import DATA_DIR
from natstrat.dsl import _KEYWORDS, _tokenize
from natstrat.errors import ParseError

import lexer_oracle


def _lex(tokenize, text: str):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text, "f.nsm")]
    except ParseError as exc:
        return str(exc), exc.span


_FRAGMENTS = st.sampled_from(
    sorted(_KEYWORDS) + [
        # identifiers, integers and operators
        "x", "Voter", "_a1", "check4_ok", "A", "U", "0", "42", "007",
        "<<", ">>", "->", ":=", "==", "!=", "<=", ">=", "&&", "||", "{", "}",
        "(", ")", "[", "]", ";", ",", "@", "!", "<", ">", "=", "^", "*", "?",
        ":", "+", "-", ".", "<=>", "&", "|", "/",
        # strings, closed and not
        '"voter_base.nsm"', '""', '"ab', '"',
        # blanks, line ends and comments
        " ", "  ", "\t", "\r", "\n", "\r\n", "\n\n", "// note", "//", "//x\r",
        # characters no token starts with
        "$", "#", "é", "\x0c", " ",
    ])


@settings(deadline=None)
@given(text=st.one_of(st.lists(_FRAGMENTS, max_size=30).map("".join),
                      st.lists(_FRAGMENTS, max_size=12).map(" ".join),
                      st.text(alphabet=' \t\r\n/"$#a1_<>=!&|-;', max_size=30)))
@example(text="")
@example(text="end // a comment with no newline")
@example(text="x\t== 1\r\n  y")
@example(text='include "a.nsm";\n"open')
@example(text="a\n\n  $")
@example(text="//")
@example(text="٣")  # a digit outside ASCII reads as an int, as before
def test_tokens_and_errors_match_the_oracle(text):
    assert _lex(_tokenize, text) == _lex(lexer_oracle.tokenize, text)


@pytest.mark.parametrize("path", sorted(DATA_DIR.iterdir()), ids=lambda p: p.name)
def test_bundled_sources_lex_alike(path):
    text = path.read_text(encoding="utf-8")
    tokens = _lex(_tokenize, text)
    assert isinstance(tokens, list) and tokens == _lex(lexer_oracle.tokenize, text)


def test_positions_count_characters():
    # a tab and a carriage return each take one column
    assert _lex(_tokenize, "a\tb\r\n c // d\n") == [
        ("ident", "a", 1, 1), ("ident", "b", 1, 3), ("ident", "c", 2, 2),
        ("eof", "", 3, 1)]
    with pytest.raises(ParseError) as exc:
        _tokenize('x\t"y', "f.nsm")
    assert str(exc.value) == "f.nsm:1:3: illegal character '\"'"
