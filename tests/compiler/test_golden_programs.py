"""Golden digests of the compiler's linked output.

Every part of a linked :class:`~repro.linker.program.Program` that the
compressor, the linker or the simulators read is hashed and compared
with ``golden_programs.json``: the ``.text`` words, each instruction's
role, function, library flag and branch target, the data image, the
symbol table and the jump-table slots.  A compiler change that claims
to keep its output must leave every digest unchanged.

A mismatch prints the new digests.  To regenerate the fixture after a
deliberate, reviewed change of the compiler's output::

    PYTHONPATH=src python tests/compiler/test_golden_programs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("golden_programs.json")


def _sha(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


def program_digests(program) -> dict:
    """The sha256 of each part of ``program`` (plus its text length)."""
    roles = [
        [ti.role.value, ti.function, ti.is_library, ti.target_index]
        for ti in program.text
    ]
    slots = [[s.data_offset, s.target_index] for s in program.jump_table_slots]
    return {
        "text_insns": len(program.text),
        "text": _sha(program.text_bytes()),
        "roles": _sha(json.dumps(roles)),
        "data": _sha(bytes(program.data_image)),
        "symbols": _sha(json.dumps(sorted(program.symbols.items()))),
        "jump_table_slots": _sha(json.dumps(slots)),
        "entry_index": program.entry_index,
    }


def _expected() -> dict:
    return json.loads(FIXTURE.read_text())


def _check(name: str, program) -> None:
    expected = _expected()[name]
    actual = program_digests(program)
    if actual != expected:
        changed = sorted(k for k in actual if actual[k] != expected.get(k))
        pytest.fail(
            f"{name}: compiler output changed in {changed}; new digests:\n"
            + json.dumps({name: actual}, indent=2)
        )


def test_fixture_names_every_suite_program():
    from repro.workloads import BENCHMARK_NAMES

    assert sorted(_expected()) == sorted([*BENCHMARK_NAMES, "tiny"])


@pytest.mark.parametrize(
    "name",
    ["compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"],
)
def test_suite_program_is_byte_identical(small_suite, name):
    _check(name, small_suite[name])


def test_tiny_program_is_byte_identical(tiny_program):
    _check("tiny", tiny_program)


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from conftest import TEST_SCALE, TINY_SOURCE  # noqa: E402

    from repro.compiler import compile_and_link
    from repro.workloads import BENCHMARK_NAMES, build_benchmark

    digests = {
        name: program_digests(build_benchmark(name, TEST_SCALE))
        for name in BENCHMARK_NAMES
    }
    digests["tiny"] = program_digests(compile_and_link(TINY_SOURCE, name="tiny"))
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
