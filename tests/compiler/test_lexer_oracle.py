"""The master-regex lexer against a character-walk reference lexer.

``reference_tokenize`` is the lexer MiniC used before the master regex:
it walks the source one character at a time and tries the operator
table with ``startswith``.  It lives here, not in ``src/``, as the
oracle the fast lexer must agree with: on any text, both produce the
same tokens, or both raise :class:`CompileError` with the same message
and line.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.compiler.lexer import KEYWORDS, OPERATORS, tokenize
from repro.errors import CompileError

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


def reference_tokenize(source: str) -> list[tuple]:
    """Tokenize one character at a time; tokens as 4-tuples."""
    tokens: list[tuple] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise CompileError("unterminated block comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            j = i
            while j < n and source[j].isascii() and (
                source[j].isalnum() or source[j] == "_"
            ):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append((kind, text, None, line))
            i = j
            continue
        if ch in "0123456789":
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise CompileError("hex literal has no digits", line)
                value = int(source[i:j], 16)
            else:
                while j < n and source[j] in "0123456789":
                    j += 1
                value = int(source[i:j])
            tokens.append(("num", source[i:j], value, line))
            i = j
            continue
        if ch == "'":
            j = i + 1
            if j < n and source[j] == "\\":
                if j + 2 >= n or source[j + 2] != "'":
                    raise CompileError("bad character literal", line)
                esc = source[j + 1]
                if esc not in _ESCAPES:
                    raise CompileError(f"unknown escape \\{esc}", line)
                tokens.append(("num", source[i : j + 3], _ESCAPES[esc], line))
                i = j + 3
            else:
                if j + 1 >= n or source[j + 1] != "'":
                    raise CompileError("bad character literal", line)
                tokens.append(("num", source[i : j + 2], ord(source[j]), line))
                i = j + 2
            continue
        if ch == '"':
            j = i + 1
            chars: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    if j + 1 >= n or source[j + 1] not in _ESCAPES:
                        raise CompileError("bad string escape", line)
                    chars.append(chr(_ESCAPES[source[j + 1]]))
                    j += 2
                elif source[j] == "\n":
                    raise CompileError("unterminated string literal", line)
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise CompileError("unterminated string literal", line)
            tokens.append(("string", "".join(chars), None, line))
            i = j + 1
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(("op", op, None, line))
                i += len(op)
                break
        else:
            raise CompileError(f"unexpected character {ch!r}", line)
    tokens.append(("eof", "", None, line))
    return tokens


def _outcome(lex, source):
    try:
        return [tuple(t) for t in lex(source)]
    except CompileError as exc:
        return ("error", str(exc), exc.line)


def assert_agrees(source):
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


# Fragments that exercise every lexer rule and its error paths; the
# text strategy below glues them together with arbitrary characters.
_FRAGMENTS = [
    *OPERATORS, *sorted(KEYWORDS), "x", "_a1", "é", "²", "$", "\x0c",
    "0", "07", "42", "0x", "0x1F", "0Xg", "00x5",
    "'", "'a'", "''", "'''", "'\\n'", "'\\q'", "'\\", "'\n'",
    '"', '"s"', '"a\\"b"', '"\\q"', '"\\', '"x\n"', "\\",
    "//", "// c\n", "/*", "/* a\nb */", "*/", " ", "\t", "\r", "\n",
]


@given(st.text(max_size=300))
@settings(max_examples=400, deadline=None)
def test_arbitrary_text_matches_reference(source):
    assert_agrees(source)


@given(
    st.lists(
        st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=3)), max_size=40
    )
)
@settings(max_examples=600, deadline=None)
@example(["/*", "x"])
@example(['"a', "\\", "q"])
@example(["'\\", "n"])
@example(["a", "\n", '"x', "\n", '"'])
def test_fragment_soup_matches_reference(fragments):
    assert_agrees("".join(fragments))


def test_suite_sources_match_reference():
    from repro.compiler.runtime import RUNTIME_SOURCE
    from repro.workloads import BENCHMARK_NAMES
    from repro.workloads.suite import benchmark_source

    for name in BENCHMARK_NAMES:
        assert_agrees(benchmark_source(name, 0.3))
    assert_agrees(RUNTIME_SOURCE)
