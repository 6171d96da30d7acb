"""MiniC lexer.

One compiled regular expression, an alternation of one named group per
token class, matches the source token by token; the operator group is
built from :data:`OPERATORS`, longest operator first, so ``<<=`` wins
over ``<<`` and ``<``.  A final catch-all group matches any character
no token starts with, and the lexer turns it into the
:class:`CompileError` the malformed token calls for (unterminated
comment, bad character or string literal, or unexpected character),
with the line the token starts on.  Tokens are :class:`Token` tuples.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from repro.errors import CompileError

KEYWORDS = frozenset(
    {
        "int",
        "char",
        "void",
        "if",
        "else",
        "while",
        "for",
        "do",
        "return",
        "break",
        "continue",
        "switch",
        "case",
        "default",
    }
)

# Longest-match-first operator table.
OPERATORS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    "?",
)


class Token(NamedTuple):
    kind: str  # 'ident' | 'num' | 'string' | 'kw' | 'op' | 'eof'
    text: str
    value: int | None
    line: int


# Builds a Token from a 4-tuple without a Python-level __new__ frame.
_token = partial(tuple.__new__, Token)

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}
_ESCAPE_CHARS = "[" + re.escape("".join(_ESCAPES)) + "]"

# A string body: anything but a quote, backslash or newline, or a known
# escape.  The lexer stops at the first character that breaks this.
_STRING_BODY = r'(?:[^"\\\n]|\\' + _ESCAPE_CHARS + r")*"

# One alternation, tried in order at each position; the ``error``
# group catches every character no other group starts with.
_TOKEN_RE = re.compile(
    "|".join(
        [
            r"(?P<ws>[ \t\r\n]+)",
            r"(?P<comment>//[^\n]*|/\*[\s\S]*?\*/)",
            r"(?P<open_comment>/\*)",
            r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
            r"(?P<hex>0[xX][0-9a-fA-F]*)",
            r"(?P<num>[0-9]+)",
            r"(?P<char>'(?:\\[\s\S]|[^\\])')",
            r'(?P<string>"' + _STRING_BODY + '")',
            "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
            r"(?P<error>[\s\S])",
        ]
    )
)
_STRING_PREFIX_RE = re.compile('"' + _STRING_BODY)
_ESCAPE_RE = re.compile(r"\\([\s\S])")


def _unescape(match: re.Match) -> str:
    return chr(_ESCAPES[match.group(1)])


def tokenize(source: str) -> list[Token]:
    """Convert MiniC source text into tokens; raises CompileError.

    The list ends with an ``eof`` token carrying the last line number.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        text = match.group()
        if group == "ws":
            line += text.count("\n")
        elif group == "ident":
            append(_token(("kw" if text in KEYWORDS else "ident", text, None, line)))
        elif group == "op":
            append(_token(("op", text, None, line)))
        elif group == "num":
            append(_token(("num", text, int(text), line)))
        elif group == "comment":
            line += text.count("\n")
        elif group == "hex":
            if len(text) == 2:
                raise CompileError("hex literal has no digits", line)
            append(_token(("num", text, int(text, 16), line)))
        elif group == "char":
            if text[1] == "\\":
                if text[2] not in _ESCAPES:
                    raise CompileError(f"unknown escape \\{text[2]}", line)
                value = _ESCAPES[text[2]]
            else:
                value = ord(text[1])
            append(_token(("num", text, value, line)))
        elif group == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            append(_token(("string", body, None, line)))
        else:
            _raise_at(source, match.start(), line)
    append(_token(("eof", "", None, line)))
    return tokens


def _raise_at(source: str, pos: int, line: int) -> None:
    """Raise the CompileError for the malformed token at ``pos``."""
    ch = source[pos]
    if ch == "/":
        raise CompileError("unterminated block comment", line)
    if ch == "'":
        raise CompileError("bad character literal", line)
    if ch == '"':
        end = _STRING_PREFIX_RE.match(source, pos).end()
        if source.startswith("\\", end):
            raise CompileError("bad string escape", line)
        raise CompileError("unterminated string literal", line)
    raise CompileError(f"unexpected character {ch!r}", line)
