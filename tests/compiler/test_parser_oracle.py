"""Precedence climbing against the recursive binary-level chain.

``ReferenceParser`` parses binary operators the way MiniC's parser did
before precedence climbing: ``||``, then ``&&``, then one recursive
method call per level of a loosest-first precedence list, down to the
unary operators.  It lives here, not in ``src/``, as the oracle the
fast parser must agree with: on every expression, both build the same
tree, or both raise :class:`CompileError` with the same message and
line.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.compiler import ast_nodes as ast
from repro.compiler.lexer import tokenize
from repro.compiler.parser import Parser
from repro.errors import CompileError

# Binary operator precedence, loosest first (logical handled apart).
_LEVELS: list[tuple[str, ...]] = [
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_BINARY_OPS = ["||", "&&", *(op for level in _LEVELS for op in level)]


class ReferenceParser(Parser):
    """Parses each binary level with its own recursive call."""

    def _cur(self):
        return self._tokens[self._pos]

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        return self._parse_logical_or()

    def _parse_logical_or(self) -> ast.Expr:
        left = self._parse_logical_and()
        while self._check("op", "||"):
            token = self._advance()
            right = self._parse_logical_and()
            left = ast.Logical(token.line, "||", left, right)
        return left

    def _parse_logical_and(self) -> ast.Expr:
        left = self._parse_level(0)
        while self._check("op", "&&"):
            token = self._advance()
            right = self._parse_level(0)
            left = ast.Logical(token.line, "&&", left, right)
        return left

    def _parse_level(self, level: int) -> ast.Expr:
        if level >= len(_LEVELS):
            return self._parse_unary()
        left = self._parse_level(level + 1)
        while self._cur().kind == "op" and self._cur().text in _LEVELS[level]:
            token = self._advance()
            right = self._parse_level(level + 1)
            left = ast.Binary(token.line, token.text, left, right)
        return left


def _outcome(parser_class, source):
    try:
        return parser_class(tokenize(source)).parse_unit()
    except CompileError as exc:
        return ("error", str(exc), exc.line)


def assert_agrees(source):
    assert _outcome(Parser, source) == _outcome(ReferenceParser, source)


def _wrap(expr: str) -> str:
    return f"int t[4];\nint g() {{ return 1; }}\nint f(int a, int b, int c) {{\n  return {expr};\n}}\n"


_SPACE = st.sampled_from([" ", "", "\n"])
_LEAVES = st.sampled_from(
    ["a", "b", "c", "0", "1", "42", "'x'", "t[a]", "g()", "++a", "t[b]--"]
)


def _extend(children):
    """Well-formed expressions: every mix of operators the grammar allows."""
    return st.one_of(
        st.tuples(children, _SPACE, st.sampled_from(_BINARY_OPS), _SPACE, children).map(
            "".join
        ),
        children.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["-", "~", "!", "+"]), _SPACE, children).map("".join),
        st.tuples(children, st.just(" ? "), children, st.just(" : "), children).map(
            "".join
        ),
        st.tuples(
            st.just("("),
            st.sampled_from(["a", "t[b]"]),
            st.sampled_from([" = ", " += ", " <<= "]),
            children,
            st.just(")"),
        ).map("".join),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=40)


@given(_EXPRESSIONS)
@settings(max_examples=600, deadline=None)
def test_generated_expressions_match_reference(expr):
    assert_agrees(_wrap(expr))


@given(
    _LEAVES,
    st.lists(
        st.tuples(_SPACE, st.sampled_from(_BINARY_OPS), _SPACE, _EXPRESSIONS), max_size=8
    ),
)
@settings(max_examples=600, deadline=None)
def test_flat_operator_chains_match_reference(first, rest):
    assert_agrees(_wrap(first + "".join("".join(part) for part in rest)))


@given(
    st.lists(
        st.sampled_from(
            [*_BINARY_OPS, "a", "1", "(", ")", "-", "!", "~", "++", "?", ":", "=", "[", "]", ",", "\n"]
        ),
        max_size=30,
    )
)
@settings(max_examples=600, deadline=None)
def test_operator_soup_matches_reference(tokens):
    assert_agrees(_wrap(" ".join(tokens)))


def test_every_binary_operator_is_left_associative():
    for op in _BINARY_OPS:
        assert_agrees(_wrap(f"a {op} b {op} c {op} a"))
    for loose, tight in zip(_BINARY_OPS, _BINARY_OPS[1:]):
        assert_agrees(_wrap(f"a {loose} b {tight} c {loose} a {tight} b"))
        assert_agrees(_wrap(f"a {tight} b {loose} c {tight} a {loose} b"))


def test_suite_sources_match_reference():
    from repro.compiler.runtime import RUNTIME_SOURCE
    from repro.workloads import BENCHMARK_NAMES
    from repro.workloads.suite import benchmark_source

    for name in BENCHMARK_NAMES:
        assert_agrees(benchmark_source(name, 0.3))
    assert_agrees(RUNTIME_SOURCE)
