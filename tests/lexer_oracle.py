"""The lexer natstrat used before its one-pass `finditer` scan: one regex
match per blank run, comment, newline and token, with the line and column
counted as it goes, and a frozen dataclass per token. It is kept as the
oracle of `natstrat.dsl._tokenize`."""

import re
from dataclasses import dataclass

from natstrat.dsl import _KEYWORDS, SourceSpan
from natstrat.errors import ParseError

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<op><<|>>|->|:=|==|!=|<=|>=|&&|\|\||[{}()\[\];,@!<>=^*?:+\-.])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'ident' | 'string' | 'op' | 'eof' or a keyword
    text: str
    line: int
    column: int


def tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"illegal character {text[pos]!r}",
                             SourceSpan(filename, line, col))
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens
