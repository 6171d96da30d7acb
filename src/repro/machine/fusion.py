"""Statement templates: the fast path's one statement of PowerPC semantics.

The fast path (:mod:`repro.machine.fastpath`) executes straight-line
traces as ``for thunk in trace.body: thunk(state, memory)``.  Every
thunk it runs is generated from the template table in this module,
which states each non-control instruction once, as Python statements
with ``{name}`` holes.  Three things are built from it:

* :func:`bound_thunk` — the thunk for one instruction;
* :func:`fused_thunk` — a *superinstruction*: one thunk for an adjacent
  instruction pair, which halves the loop iterations and calls of a
  fused pair;
* :func:`compare_feed` — the compare lead of a fused compare+branch
  control.  A compare's thunk returns the LT/GT/EQ bits it wrote, so
  the control tests its branch condition on that value instead of
  re-reading ``state.cr``.

Generation is **code generation**, not closure composition: the
statements of one *template shape* (the source text a template
produced, so a mnemonic plus its ``rA == 0``-style variant, or a pair
of those) are compiled once into a factory, and each instruction calls
the factory with its extracted operands (register numbers, immediates,
precomputed masks), which the generated thunk reads as closure cells.
A cold job therefore compiles once per shape, not once per instruction.
Thunks and fused pairs are memoized process-wide on ``(mnemonic,
values)``, so the dictionary entry ``addi r3, r3, 1`` shared by every
program in a batch is bound once.

Semantics are exact by construction.  The executor's ``_HANDLERS`` stay
the independent oracle, and the tests check every template against
them:

* ``state.steps`` accounting is per-instruction whenever either half of
  a pair can raise (loads/stores), so an out-of-range access observes
  the identical step count as the reference interpreter; only pure-ALU
  pairs coalesce into one ``state.steps += 2``;
* control instructions, ``divw``/``divwu`` and ``mfspr``/``mtspr`` are
  never fused.

Which pairs fuse is a *plan*: :data:`DEFAULT_PAIRS` carries the
hottest adjacent data-instruction pairs mined from
``profile_program`` fetch counts over the benchmark suite, and
:func:`plan_from_profile` re-mines a plan for any program so callers
(``repro-verify fastpath --fusion profile``, ``repro-bench``) can use
workload-specific pairs.  The active configuration is process-wide;
translation caches key their traces on :func:`config_key` and rebuild
when it changes.

**Control fusion** is the second, independent axis: ~46% of adjacent
executed pairs suite-wide are a compare followed by a conditional
branch.  A *control pair* fuses the trailing lead instruction into the
trace-terminating control closure built by
:func:`repro.machine.fastpath.build_control`: the lead executes inside
the control, and the trace body shrinks by one thunk.  Leads are
restricted to :data:`CONTROL_LEAD_MNEMONICS` (pure ALU/compare
templates that cannot raise), so a fused compare+branch can only fault
in its branch half and error step counts stay trivially exact.  The
control plan is configured/mined separately
(:data:`DEFAULT_CONTROL_PAIRS`, :func:`control_plan_from_profile`) and
contributes its own component to :func:`config_key`.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache

from repro import bitutils
from repro.errors import SimulationError
from repro.isa import registers
from repro.isa.opcodes import spec_for
from repro.machine.executor import CONTROL_MNEMONICS

_U = bitutils.WORD_MASK

# Hottest adjacent data-instruction pairs across the 8-program suite,
# weighted by min(execution count) of the two halves; these twelve
# cover ~70% of all adjacent data-data executions.
DEFAULT_PAIRS: tuple[tuple[str, str], ...] = (
    ("addis", "addi"),
    ("addi", "add"),
    ("rlwinm", "addis"),
    ("add", "lwz"),
    ("addi", "or"),
    ("add", "stw"),
    ("lwz", "cmpw"),
    ("or", "addi"),
    ("add", "or"),
    ("lwz", "add"),
    ("stw", "addi"),
    ("stw", "rlwinm"),
)
DEFAULT_TOP_K = 12

# Compares write one 4-bit CR field; fused into a conditional branch
# they let the decision test the freshly computed field locally.
COMPARE_MNEMONICS = frozenset({"cmpwi", "cmplwi", "cmpw", "cmplw"})

# Conditional branches a control pair may fuse into.  ``bclr``/``bcctr``
# resolve dynamic targets (and ``sc`` halts) — their corners stay on
# the plain control path.
CONTROL_TAIL_MNEMONICS = frozenset({"bc", "bcl"})

# Every compare x conditional-branch combination plus the ``addi + bc``
# loop-tail idiom: together these cover the compare+branch adjacency
# that dominates the suite's control transfers.
DEFAULT_CONTROL_PAIRS: tuple[tuple[str, str], ...] = (
    ("cmpwi", "bc"),
    ("cmplwi", "bc"),
    ("cmpw", "bc"),
    ("cmplw", "bc"),
    ("cmpwi", "bcl"),
    ("cmplwi", "bcl"),
    ("cmpw", "bcl"),
    ("cmplw", "bcl"),
    ("addi", "bc"),
)

_enabled = True
_pairs: frozenset = frozenset(DEFAULT_PAIRS)
_control_enabled = True
_control_pairs: frozenset = frozenset(DEFAULT_CONTROL_PAIRS)


def configure(
    *, enabled=None, pairs=None, control_enabled=None, control_pairs=None
) -> dict:
    """Set the process-wide fusion config; returns the previous one.

    ``pairs``/``control_pairs`` are iterables of ``(mnemonic,
    mnemonic)`` tuples (the data and control plans); ``None`` leaves
    the current plan in place.  A control pair that cannot fuse — a
    lead outside :data:`CONTROL_LEAD_MNEMONICS` or a tail outside
    :data:`CONTROL_TAIL_MNEMONICS` — is dropped.  ``enabled`` is the
    master switch — disabling it turns
    control fusion off too; ``control_enabled`` gates only the
    control-pair axis.
    """
    global _enabled, _pairs, _control_enabled, _control_pairs
    previous = {
        "enabled": _enabled,
        "pairs": tuple(sorted(_pairs)),
        "control_enabled": _control_enabled,
        "control_pairs": tuple(sorted(_control_pairs)),
    }
    if enabled is not None:
        _enabled = bool(enabled)
    if pairs is not None:
        _pairs = frozenset(tuple(pair) for pair in pairs)
    if control_enabled is not None:
        _control_enabled = bool(control_enabled)
    if control_pairs is not None:
        _control_pairs = frozenset(
            (lead, tail)
            for lead, tail in control_pairs
            if lead in CONTROL_LEAD_MNEMONICS and tail in CONTROL_TAIL_MNEMONICS
        )
    return previous


def fusion_enabled() -> bool:
    return _enabled


def control_fusion_enabled() -> bool:
    return _enabled and _control_enabled


def active_pairs() -> frozenset:
    """The pairs traces may fuse right now (empty when disabled)."""
    return _pairs if _enabled else frozenset()


def active_control_pairs() -> frozenset:
    """Lead+branch pairs traces may fuse into control closures."""
    if _enabled and _control_enabled:
        return _control_pairs
    return frozenset()


def config_key() -> tuple:
    """Hashable token for the current config (trace caches key on it).

    Two independent components: the data-pair plan and the control-pair
    plan — a change on either axis invalidates built traces.
    """
    data = ("off",) if not _enabled else ("on", tuple(sorted(_pairs)))
    if _enabled and _control_enabled:
        control = ("on", tuple(sorted(_control_pairs)))
    else:
        control = ("off",)
    return (data, control)


def fusion_stats() -> dict:
    info = _fused.cache_info()
    return {
        "enabled": _enabled,
        "pairs": sorted(_pairs),
        "control_enabled": _enabled and _control_enabled,
        "control_pairs": sorted(_control_pairs),
        "compiled": info.currsize,
        "thunk_hits": info.hits,
        "thunk_misses": info.misses,
        "factories": len(_factories),
    }


# ---------------------------------------------------------------------------
# Plan mining
# ---------------------------------------------------------------------------
def mine_adjacent_pairs(program, counts) -> Counter:
    """Adjacent fusable template pairs weighted by execution count.

    ``counts`` is the per-instruction execution vector from
    :func:`repro.machine.simulator.profile_program`.  A pair's weight
    is ``min(count_i, count_i+1)`` — the number of times the two
    instructions can actually have executed back to back.
    """
    pairs: Counter = Counter()
    text = program.text
    for i in range(len(text) - 1):
        a = text[i].instruction.mnemonic
        b = text[i + 1].instruction.mnemonic
        if a not in FUSABLE_MNEMONICS or b not in FUSABLE_MNEMONICS:
            continue
        weight = min(counts[i], counts[i + 1])
        if weight:
            pairs[(a, b)] += weight
    return pairs


def plan_from_profile(program, counts, top_k: int = DEFAULT_TOP_K):
    """The ``top_k`` hottest fusable pairs for one profiled program."""
    mined = mine_adjacent_pairs(program, counts)
    return tuple(pair for pair, _ in mined.most_common(top_k))


def mine_control_pairs(program, counts) -> Counter:
    """Adjacent lead+branch pairs weighted by execution count.

    A pair qualifies when the lead has a non-raising template (pure
    ALU/compare — memory leads are excluded so a fused control can
    only fault in its branch half) and the tail is a fusable
    conditional branch.  Weights follow the same ``min(count_i,
    count_i+1)`` rule as :func:`mine_adjacent_pairs`.
    """
    pairs: Counter = Counter()
    text = program.text
    for i in range(len(text) - 1):
        a = text[i].instruction.mnemonic
        b = text[i + 1].instruction.mnemonic
        if a not in CONTROL_LEAD_MNEMONICS or b not in CONTROL_TAIL_MNEMONICS:
            continue
        weight = min(counts[i], counts[i + 1])
        if weight:
            pairs[(a, b)] += weight
    return pairs


def control_plan_from_profile(program, counts, top_k: int = DEFAULT_TOP_K):
    """The ``top_k`` hottest lead+branch pairs for one profiled program."""
    mined = mine_control_pairs(program, counts)
    return tuple(pair for pair, _ in mined.most_common(top_k))


# ---------------------------------------------------------------------------
# The template table.  A template maps an instruction's operand values
# (in spec order) to ``(source, params)``: statements over ``state``,
# ``mem`` and ``gpr`` (``state.gpr``) with ``{name}`` holes, and the
# bind-time values of the holes that are parameters.  The other holes
# are temporaries.  A plain string template's parameters are the
# spec's operand names.  A compare leaves its LT/GT/EQ value in
# ``{bits}``.
# ---------------------------------------------------------------------------
_SET = "gpr[{rT}] = {value}"
_ADD_IMM = "gpr[{rT}] = (_s32(gpr[{rA}]) + {imm}) & 0xFFFFFFFF"
_AND_DOT = (
    "{r} = gpr[{rS}] & {imm}\n"
    "gpr[{rA}] = {r}\n"
    "{s} = _s32({r})\n"
    "state.cr = (state.cr & 0x0FFFFFFF)"
    " | ((8 if {s} < 0 else 4 if {s} > 0 else 2) << 28)"
)
_RLWINM = "gpr[{rA}] = _rotl32(gpr[{rS}], {SH}) & {mask}"
_UNSUPPORTED = "raise _SimulationError({message})"


def _add_imm(shift):
    """``addi``/``addis``: ``rA = 0`` reads as zero, so the sum is constant."""

    def template(rt, ra, si):
        imm = si << shift
        if ra:
            return _ADD_IMM, {"rT": rt, "rA": ra, "imm": imm}
        return _SET, {"rT": rt, "value": imm & _U}

    return template


def _shifted_imm(source, shift):
    """An ``(rA, rS, UI)`` form whose immediate is shifted at bind time."""

    def template(ra, rs, ui):
        return source, {"rA": ra, "rS": rs, "imm": ui << shift}

    return template


def _compare(a, b):
    """A compare of ``a`` against ``b`` into CR field ``crfD``."""
    source = (
        f"{{a}} = {a}\n"
        f"{{b}} = {b}\n"
        "{bits} = 8 if {a} < {b} else 4 if {a} > {b} else 2\n"
        "state.cr = (state.cr & {keep}) | ({bits} << {shift})"
    )

    def template(crf, ra, rhs):
        shift = 28 - 4 * crf
        return source, {
            "rA": ra, "rhs": rhs, "keep": _U ^ (0xF << shift), "shift": shift,
        }

    return template


def _rlwinm(ra, rs, sh, mb, me):
    if mb <= me:
        mask = (bitutils.mask(me - mb + 1)) << (31 - me)
    else:  # wrapped mask
        mask = _U ^ ((bitutils.mask(mb - me - 1)) << (31 - mb + 1))
    return _RLWINM, {"rA": ra, "rS": rs, "SH": sh, "mask": mask}


def _memory(access, update=False):
    """A D-form load or store of register ``{r}`` at address ``{ea}``."""
    tail = "\ngpr[{base}] = {ea}" if update else ""
    indexed = "{ea} = (gpr[{base}] + {disp}) & 0xFFFFFFFF\n" + access + tail
    absolute = "{ea} = {disp}\n" + access + tail

    def template(r, displacement):
        disp, base = displacement
        if base:
            return indexed, {"r": r, "base": base, "disp": disp}
        # rA = 0 reads as zero: the address is a bind-time constant.
        return absolute, {"r": r, "base": base, "disp": disp & _U}

    return template


def _mfspr(rt, spr):
    if spr == registers.LR:
        return "gpr[{rT}] = state.lr & 0xFFFFFFFF", {"rT": rt}
    if spr == registers.CTR:
        return "gpr[{rT}] = state.ctr & 0xFFFFFFFF", {"rT": rt}
    return _UNSUPPORTED, {"message": f"mfspr: unsupported SPR {spr}"}


def _mtspr(spr, rs):
    if spr == registers.LR:
        return "state.lr = gpr[{rS}]", {"rS": rs}
    if spr == registers.CTR:
        return "state.ctr = gpr[{rS}]", {"rS": rs}
    return _UNSUPPORTED, {"message": f"mtspr: unsupported SPR {spr}"}


def _plain(mnemonic, source):
    names = tuple(op.name for op in spec_for(mnemonic).operands)

    def template(*values):
        return source, dict(zip(names, values))

    return template


_LOAD = "gpr[{r}] = mem.load({ea}, %d)"
_STORE = "mem.store({ea}, %d, gpr[{r}])"

_TEMPLATES = {
    mnemonic: _plain(mnemonic, template) if isinstance(template, str) else template
    for mnemonic, template in {
        "addi": _add_imm(0),
        "addis": _add_imm(16),
        "mulli": "gpr[{rT}] = (_s32(gpr[{rA}]) * {SI}) & 0xFFFFFFFF",
        "subfic": "gpr[{rT}] = ({SI} - _s32(gpr[{rA}])) & 0xFFFFFFFF",
        "ori": _shifted_imm("gpr[{rA}] = gpr[{rS}] | {imm}", 0),
        "oris": _shifted_imm("gpr[{rA}] = gpr[{rS}] | {imm}", 16),
        "xori": _shifted_imm("gpr[{rA}] = gpr[{rS}] ^ {imm}", 0),
        "xoris": _shifted_imm("gpr[{rA}] = gpr[{rS}] ^ {imm}", 16),
        "andi.": _shifted_imm(_AND_DOT, 0),
        "andis.": _shifted_imm(_AND_DOT, 16),
        "cmpwi": _compare("_s32(gpr[{rA}])", "{rhs}"),
        "cmplwi": _compare("gpr[{rA}]", "{rhs}"),
        "cmpw": _compare("_s32(gpr[{rA}])", "_s32(gpr[{rhs}])"),
        "cmplw": _compare("gpr[{rA}]", "gpr[{rhs}]"),
        "add": "gpr[{rT}] = (gpr[{rA}] + gpr[{rB}]) & 0xFFFFFFFF",
        "subf": "gpr[{rT}] = (gpr[{rB}] - gpr[{rA}]) & 0xFFFFFFFF",
        "neg": "gpr[{rT}] = -_s32(gpr[{rA}]) & 0xFFFFFFFF",
        "mullw": "gpr[{rT}] = (_s32(gpr[{rA}]) * _s32(gpr[{rB}])) & 0xFFFFFFFF",
        "divw": (
            "{b} = _s32(gpr[{rB}])\n"
            "gpr[{rT}] = _cdiv(_s32(gpr[{rA}]), {b}) & 0xFFFFFFFF if {b} else 0"
        ),
        "divwu": "{b} = gpr[{rB}]\ngpr[{rT}] = gpr[{rA}] // {b} if {b} else 0",
        "and": "gpr[{rA}] = gpr[{rS}] & gpr[{rB}]",
        "or": "gpr[{rA}] = gpr[{rS}] | gpr[{rB}]",
        "xor": "gpr[{rA}] = gpr[{rS}] ^ gpr[{rB}]",
        "nor": "gpr[{rA}] = ~(gpr[{rS}] | gpr[{rB}]) & 0xFFFFFFFF",
        "slw": (
            "{n} = gpr[{rB}] & 63\n"
            "gpr[{rA}] = 0 if {n} > 31 else (gpr[{rS}] << {n}) & 0xFFFFFFFF"
        ),
        "srw": "{n} = gpr[{rB}] & 63\ngpr[{rA}] = 0 if {n} > 31 else gpr[{rS}] >> {n}",
        "sraw": (
            "{n} = gpr[{rB}] & 63\n"
            "gpr[{rA}] = (_s32(gpr[{rS}]) >> (31 if {n} > 31 else {n})) & 0xFFFFFFFF"
        ),
        "srawi": "gpr[{rA}] = (_s32(gpr[{rS}]) >> {SH}) & 0xFFFFFFFF",
        "rlwinm": _rlwinm,
        "extsb": "gpr[{rA}] = _sign_extend(gpr[{rS}] & 0xFF, 8) & 0xFFFFFFFF",
        "extsh": "gpr[{rA}] = _sign_extend(gpr[{rS}] & 0xFFFF, 16) & 0xFFFFFFFF",
        "lwz": _memory(_LOAD % 4),
        "lwzu": _memory(_LOAD % 4, update=True),
        "lbz": _memory(_LOAD % 1),
        "lbzu": _memory(_LOAD % 1, update=True),
        "lhz": _memory(_LOAD % 2),
        "lha": _memory(
            "gpr[{r}] = _sign_extend(mem.load({ea}, 2), 16) & 0xFFFFFFFF"
        ),
        "stw": _memory(_STORE % 4),
        "stwu": _memory(_STORE % 4, update=True),
        "stb": _memory(_STORE % 1),
        "stbu": _memory(_STORE % 1, update=True),
        "sth": _memory(_STORE % 2),
        "mfspr": _mfspr,
        "mtspr": _mtspr,
    }.items()
}

# Loads and stores can raise mid-pair, so a pair holding one counts
# its steps per instruction.
_MEMORY_MNEMONICS = frozenset({
    "lwz", "lwzu", "lbz", "lbzu", "lhz", "lha",
    "stw", "stwu", "stb", "stbu", "sth",
})

# SPR moves can fault outside memory, and the pair plans were mined
# without the divisions; both keep to single thunks.
FUSABLE_MNEMONICS = frozenset(_TEMPLATES) - {"divw", "divwu", "mfspr", "mtspr"}

# Leads eligible for control fusion: pure ALU/compare templates only.
# Excluding memory instructions keeps the fused control's lead half
# fault-free, so a trace-granularity error can only originate in the
# branch half — which the fused control raises with the exact same
# step count and error fields as the reference interpreter.
CONTROL_LEAD_MNEMONICS = FUSABLE_MNEMONICS - _MEMORY_MNEMONICS

assert not frozenset(_TEMPLATES) & CONTROL_MNEMONICS
assert COMPARE_MNEMONICS <= CONTROL_LEAD_MNEMONICS
assert CONTROL_TAIL_MNEMONICS <= CONTROL_MNEMONICS


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------
_HOLE = re.compile(r"\{(\w+)\}")

_ENV = {
    "_s32": bitutils.s32,
    "_sign_extend": bitutils.sign_extend,
    "_rotl32": bitutils.rotl32,
    "_cdiv": bitutils.cdiv,
    "_SimulationError": SimulationError,
}

# Compiled factories, keyed by template shape: the ``(source, names)``
# of each instruction.
_factories: dict = {}


def _compile(shape, raises):
    """Compile the factory for one shape of one or two instructions."""
    args, body = [], ["gpr = state.gpr"]
    for prefix, (source, names) in zip("ab", shape):
        args += [f"{prefix}_{name}" for name in names]
        body += _HOLE.sub(prefix + r"_\1", source).splitlines()
        if raises:
            body.append("state.steps += 1")
    if not raises:
        body.append(f"state.steps += {len(shape)}")
    if "{bits}" in shape[-1][0]:
        body.append(f"return {prefix}_bits")
    text = (
        f"def factory({', '.join(args)}):\n"
        "    def thunk(state, mem):\n"
        + "".join(f"        {line}\n" for line in body)
        + "    return thunk\n"
    )
    namespace = dict(_ENV)
    exec(compile(text, "<fast-path template>", "exec"), namespace)
    return namespace["factory"]


def _instantiate(*instructions):
    """A thunk executing ``(mnemonic, values)`` instructions in order."""
    shape, args = [], []
    for mnemonic, values in instructions:
        source, params = _TEMPLATES[mnemonic](*values)
        shape.append((source, tuple(params)))
        args += params.values()
    shape = tuple(shape)
    factory = _factories.get(shape)
    if factory is None:
        raises = any(m in _MEMORY_MNEMONICS for m, _ in instructions)
        factory = _factories[shape] = _compile(shape, raises)
    return factory(*args)


@lru_cache(maxsize=65536)
def bound_thunk(mnemonic, values):
    """The ``thunk(state, mem)`` of one non-control instruction.

    Applies the instruction and counts its step, exactly as
    ``execute_data`` does; a compare's thunk also returns the LT/GT/EQ
    bits it wrote.  Memoized process-wide on ``(mnemonic, values)``.
    """
    return _instantiate((mnemonic, values))


def fused_thunk(ins_a, ins_b):
    """One fused ``(state, mem)`` thunk for an instruction pair.

    Returns ``None`` when either half is not fusable.  Memoized
    process-wide on both halves' ``(mnemonic, values)``, so a hot pair
    shared across traces and programs is bound once.
    """
    return _fused(ins_a.mnemonic, ins_a.values, ins_b.mnemonic, ins_b.values)


@lru_cache(maxsize=16384)
def _fused(mnemonic_a, values_a, mnemonic_b, values_b):
    if mnemonic_a not in FUSABLE_MNEMONICS or mnemonic_b not in FUSABLE_MNEMONICS:
        return None
    return _instantiate((mnemonic_a, values_a), (mnemonic_b, values_b))


def compare_feed(ins):
    """A ``(thunk, crf)`` pair for a compare lead, else ``None``.

    ``thunk(state, mem)`` executes the compare — CR field ``crf`` write
    plus one step — and returns the 3-bit LT/GT/EQ mask it wrote, so a
    fused control can test the branch condition on the local value.
    Non-compare leads return ``None``; the control runs their
    :func:`bound_thunk` and reads ``state.cr`` instead.
    """
    if ins.mnemonic not in COMPARE_MNEMONICS:
        return None
    return bound_thunk(ins.mnemonic, ins.values), ins.operand("crfD")


def clear_thunks() -> None:
    """Drop every generated thunk, fused pair and compiled factory."""
    bound_thunk.cache_clear()
    _fused.cache_clear()
    _factories.clear()
