"""Hostile nesting fails with a typed error, in bounded time.

Every recursive pass over MiniC source (the parser, the semantic
checker, lowering) uses the interpreter's stack, so the parser bounds
the nesting depth of what it accepts: anything deeper than
``MAX_NESTING`` levels is a :class:`CompileError`, never a
``RecursionError`` from the parser or from a later pass.
"""

from __future__ import annotations

import time

import pytest

from repro.compiler import compile_and_link
from repro.compiler.parser import MAX_NESTING, parse
from repro.errors import CompileError

# name -> (source of nesting n, the n the hostile case uses)
SHAPES = {
    "parens": (lambda n: "int main() { return " + "(" * n + "1" + ")" * n + "; }", 5000),
    "blocks": (lambda n: "void main() " + "{" * n + "}" * n, 3000),
    "ifs": (
        lambda n: "void main() { int x; x = 1; " + "if (x) " * n + "x = 2; }",
        3000,
    ),
    "unary": (lambda n: "int main() { return " + "- " * n + "1; }", 5000),
    "chain": (lambda n: "int main() { return " + "+".join(["1"] * n) + "; }", 20000),
    "assign": (
        lambda n: "int main() { int x; x = " + "x = " * n + "1; return x; }",
        5000,
    ),
    "conditional": (
        lambda n: "int main() { int x; x = 1; return " + "x ? 1 : " * n + "0; }",
        5000,
    ),
    "calls": (
        lambda n: "int f(int a) { return a; } int main() { return "
        + "f(" * n + "1" + ")" * n + "; }",
        5000,
    ),
    "logical": (
        lambda n: "int main() { int x; x = 1; if ("
        + " && ".join(["x"] * n) + ") { x = 2; } return x; }",
        20000,
    ),
}

#: The five shapes that raised RecursionError before the bound existed.
HOSTILE = ["parens", "blocks", "ifs", "unary", "chain"]


def _too_deep(source: str) -> bool:
    try:
        parse(source)
    except CompileError as exc:
        if "nesting deeper than" in str(exc):
            return True
        raise
    return False


def deepest_accepted(shape) -> int:
    """The largest n whose source the parser accepts."""
    lo, hi = 1, 4 * MAX_NESTING
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _too_deep(shape(mid)):
            hi = mid - 1
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_hostile_nesting_raises_compile_error_quickly(name):
    shape, n = SHAPES[name]
    start = time.perf_counter()
    with pytest.raises(CompileError, match="nesting deeper than"):
        compile_and_link(shape(n), name=name)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_deepest_accepted_source_compiles_with_stack_to_spare(name):
    """At the bound, every later pass still fits on the stack, with 200
    frames of the caller's own already in use."""
    shape, _ = SHAPES[name]
    n = deepest_accepted(shape)
    assert n >= 49  # generous for hand-written code

    def with_frames_in_use(k):
        if k:
            return with_frames_in_use(k - 1)
        return compile_and_link(shape(n), name=name)

    program = with_frames_in_use(200)
    assert len(program.text) > 0


def test_error_names_the_line_where_the_bound_is_crossed():
    # One brace a line; the body block is one level and each nested
    # block two (its statement and the block itself).
    source = "void main() {\n" + "{\n" * MAX_NESTING + "}\n" * MAX_NESTING + "}"
    with pytest.raises(CompileError) as info:
        parse(source)
    assert info.value.line == 1 + MAX_NESTING // 2
