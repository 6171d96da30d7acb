"""Predecoded translation-cache fast path for both simulators.

The reference interpreters re-resolve ``ins.mnemonic`` against the
handler table and walk the operand list (``ins.operand("rA")``) on
every executed instruction.  This module trades a one-time *predecode*
pass for a fast steady state, QEMU-style:

* Every non-control instruction is bound once to a *thunk* — a
  ``(state, mem)`` closure over its already extracted operands —
  generated from the statement-template table in
  :mod:`repro.machine.fusion` (:func:`bound_thunk`, memoized
  process-wide on ``(mnemonic, values)``).  That table is the fast
  path's only statement of PowerPC semantics; the executor's
  ``_HANDLERS`` stay the independent oracle it is tested against.
* Every control instruction is compiled by one builder,
  :func:`build_control`, into a closure ``control(state, sim) ->
  next position``.  The builder is parameterised over the cache's
  addressing — program indices or compressed-stream ``(item_index,
  micro)`` keys — and optionally absorbs a fused lead instruction.
* A *translation cache* groups consecutive thunks into straight-line
  **traces** that end at a control instruction.  Executing a trace
  is a single dict lookup plus a tight loop over plain callables — the
  dispatch loop is re-entered per trace, not per instruction.
* :class:`ProgramTranslationCache` serves the uncompressed
  :class:`~repro.machine.simulator.Simulator` (one per
  :class:`~repro.linker.program.Program`, stored in
  ``program._analysis_cache``); :class:`StreamTranslationCache` serves
  :class:`~repro.machine.compressed_sim.CompressedSimulator` and is
  shared process-wide through an LRU registry keyed by the same content
  digest as the :class:`~repro.machine.decompressor.DecodeCache`, so
  repeated runs over one image (differential verification, benchmark
  repeats) predecode once.

Equivalence contract (the same one ``greedy_reference`` carries for the
compression pipeline): architectural state — registers, CR, LR, CTR,
memory, output, ``steps``, halt/exit — is byte-identical to the
reference interpreters at every instruction boundary, and errors carry
the same messages and structured fields.  The only tolerated skew is
on *aborting* runs of the compressed engine, where per-trace fetch
statistics are credited at trace entry (an exception mid-trace leaves
``FetchStats`` counting the whole trace).  Step budgets are exact: a
trace that might overrun ``max_steps`` is never entered; the simulator
falls back to its reference loop so the overrun raises at the precise
instruction with the reference message.

Observability: predecode passes run under the ``sim.predecode`` stage
timer; trace-cache effectiveness is reported through the
``sim.trace_cache.hits`` / ``sim.trace_cache.misses`` metrics.
"""

from __future__ import annotations

from collections import OrderedDict
import threading
import time

from repro import observe
from repro.errors import SimulationError
from repro.machine import fusion
from repro.machine.executor import CONTROL_MNEMONICS
from repro.machine.fusion import bound_thunk
from repro.machine.simulator import (
    RunResult,
    Simulator,
    branch_decision,
    do_syscall,
)

# Traces are capped so a pathological straight-line program cannot
# build one giant body (and so the step-budget check, which is per
# trace, stays reasonably fine-grained).  A capped trace ends with
# ``control=None`` and chains to a continuation trace.
MAX_TRACE = 1024


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------
class Trace:
    """A straight-line run of bound thunks ending at one control point.

    ``control`` is ``None`` for capped traces (execution continues at
    the trace keyed by ``cont``); otherwise it is a closure
    ``control(state, sim) -> next_key`` that performs the control
    transfer (consuming one step) or raises exactly as the reference
    interpreter would.

    With superinstruction fusion active, ``body`` may hold fused
    two-instruction thunks, so ``len(body)`` undercounts instructions;
    ``body_insns`` is the architectural instruction count of the body
    and ``steps_cost``/``issued`` stay instruction-granular.

    With *control fusion* active, the last body instruction (a compare
    or other pure-ALU lead) is absorbed into the control closure:
    ``control`` executes lead + branch as one unit, ``fused_lead_pc`` /
    ``fused_lead_key`` record the absorbed instruction's position, and
    ``body_insns`` still counts it (profile accounting stays
    instruction-granular).  ``plain_control`` is always the unfused
    branch closure — hooked replay executes the lead per-instruction
    and must not run it a second time inside the control.
    """

    __slots__ = (
        "start",
        "body",
        "body_insns",
        "control",
        "plain_control",
        "control_pc",
        "control_key",
        "fused_lead_pc",
        "fused_lead_key",
        "cont",
        "steps_cost",
        "units",
        "expansions",
        "escapes",
        "issued",
    )

    def __init__(self, start, body, control, cont, steps_cost):
        self.start = start
        self.body = body
        self.body_insns = len(body)
        self.control = control
        self.plain_control = control
        self.control_pc = None
        self.control_key = None
        self.fused_lead_pc = None
        self.fused_lead_key = None
        self.cont = cont
        self.steps_cost = steps_cost
        self.units = 0
        self.expansions = 0
        self.escapes = 0
        self.issued = 0


def _out_of_text_control(pc):
    def control(state, sim):
        raise SimulationError(f"PC index {pc} out of .text", step=state.steps)

    return control


def _fell_off_control(last_unit):
    def control(state, sim):
        raise SimulationError(
            "fell off the end of the compressed stream",
            unit_address=last_unit,
            step=state.steps,
        )

    return control


def build_control(cache, position, ins, lead=None):
    """Compile one control instruction to ``control(state, sim) -> next``.

    ``cache`` supplies the addressing of ``position`` (see
    :meth:`ProgramTranslationCache.site` and
    :meth:`StreamTranslationCache.site`): the fall-through position,
    the link value, static branch targets and dynamic-target
    resolution.  A fall-through or static target that does not exist
    comes with a control raising the reference error, which the
    closure calls after counting its step.  The closure receives
    ``sim`` with its position synced to ``position``.

    ``lead`` is the instruction before a ``bc``/``bcl``, fused into
    the control (:data:`fusion.CONTROL_LEAD_MNEMONICS`, so it cannot
    raise).  The closure runs lead then branch in the reference order:
    lead (one step), ``steps += 1`` for the branch, link write,
    decision.  A compare lead writing the branch's own CR field, with
    no CTR decrement, lets the decision test the compare's returned
    bits instead of re-reading ``state.cr``.
    """
    name = ins.mnemonic
    fall, fell_off, link, halt = cache.site(position)
    if name not in ("bl", "bcl", "bcctrl"):
        link = None
    resolve = cache.resolve
    if name == "sc":

        def control(state, sim):
            state.steps += 1
            do_syscall(state)
            if state.halted:
                return halt
            return fall if fall is not None else fell_off(state, sim)

    elif name in ("b", "bl"):
        target, bad_target = cache.jump(position, ins.operand("target"))

        def control(state, sim):
            state.steps += 1
            if link is not None:
                state.lr = link
            return target if target is not None else bad_target(state, sim)

    elif name == "bclr":
        bo, bi = ins.operand("BO"), ins.operand("BI")

        def control(state, sim):
            state.steps += 1
            if branch_decision(state, bo, bi):
                return resolve(sim, state.lr)
            return fall if fall is not None else fell_off(state, sim)

    elif name in ("bcctr", "bcctrl"):
        bo, bi = ins.operand("BO"), ins.operand("BI")

        def control(state, sim):
            state.steps += 1
            taken = branch_decision(state, bo, bi)
            if link is not None:
                state.lr = link
            if taken:
                return resolve(sim, state.ctr)
            return fall if fall is not None else fell_off(state, sim)

    else:  # bc, bcl
        bo, bi = ins.operand("BO"), ins.operand("BI")
        target, bad_target = cache.jump(position, ins.operand("target"))
        feed = None if lead is None else fusion.compare_feed(lead)
        if feed is not None and bo & 0b00100 and (bi >> 2) == feed[1]:
            compare = feed[0]
            always = bool(bo & 0b10000)
            want = (bo >> 3) & 1
            sel = 3 - (bi & 3)

            def control(state, sim):
                bits = compare(state, sim.memory)
                state.steps += 1
                if link is not None:
                    state.lr = link
                if always or ((bits >> sel) & 1) == want:
                    return target if target is not None else bad_target(state, sim)
                return fall if fall is not None else fell_off(state, sim)

        else:
            lead_thunk = (
                None if lead is None else bound_thunk(lead.mnemonic, lead.values)
            )

            def control(state, sim):
                if lead_thunk is not None:
                    lead_thunk(state, sim.memory)
                state.steps += 1
                if link is not None:
                    state.lr = link
                if branch_decision(state, bo, bi):
                    return target if target is not None else bad_target(state, sim)
                return fall if fall is not None else fell_off(state, sim)

    return control


def _fused_body(instructions, thunks):
    """Body thunks for one straight-line span, fusing active hot pairs.

    Pairing only changes how a body executes, never its accounting,
    which the trace carries itself.
    """
    pairs = fusion.active_pairs()
    if not pairs:
        return tuple(thunks)
    body = []
    i, n = 0, len(thunks)
    while i < n:
        if i + 1 < n:
            a, b = instructions[i], instructions[i + 1]
            if (a.mnemonic, b.mnemonic) in pairs:
                fused = fusion.fused_thunk(a, b)
                if fused is not None:
                    body.append(fused)
                    i += 2
                    continue
        body.append(thunks[i])
        i += 1
    return tuple(body)


class ProgramTranslationCache:
    """Predecoded ``.text`` plus lazily built traces for one Program."""

    # Dynamic branch targets resolve through the simulator, whose pc
    # is synced to the control: halting stays there, a bad address
    # raises the reference error.
    resolve = staticmethod(Simulator._to_index)

    def __init__(self, program):
        self.program = program
        self.traces = {}
        self.hits = 0
        self.misses = 0
        self.fusion_key = fusion.config_key()
        started = time.perf_counter()
        with observe.stage(
            "sim.predecode", kind="program", name=program.name,
            instructions=len(program.text),
        ):
            ops = []
            instructions = []
            kinds = bytearray(len(program.text))
            for index, text_ins in enumerate(program.text):
                ins = text_ins.instruction
                instructions.append(ins)
                if ins.mnemonic in CONTROL_MNEMONICS:
                    kinds[index] = 1
                    ops.append(build_control(self, index, ins))
                else:
                    ops.append(bound_thunk(ins.mnemonic, ins.values))
            self.ops = ops
            self.instructions = instructions
            self.kinds = kinds
        self.predecode_seconds = time.perf_counter() - started

    # -- addressing for build_control -----------------------------------
    def site(self, index):
        """``(fall, fell_off, link, halt)`` of the control at ``index``.

        Indices past ``.text`` fail when their trace is built, so the
        fall-through always exists; ``sc`` moves on even when it halts.
        """
        fall = index + 1
        return fall, None, self.program.address_of(fall), fall

    def jump(self, index, offset):
        """``(target, bad_target)`` of a static branch at ``index``."""
        return index + offset, None

    # -- trace construction -------------------------------------------
    def trace_at(self, pc):
        trace = self.traces.get(pc)
        if trace is None:
            trace = self.build_trace(pc)
        return trace

    def build_trace(self, start):
        self.misses += 1
        ops, kinds = self.ops, self.kinds
        n = len(ops)
        if not 0 <= start < n:
            trace = Trace(start, (), _out_of_text_control(start), None, 0)
            self.traces[start] = trace
            return trace
        index = start
        while index < n and not kinds[index] and index - start < MAX_TRACE:
            index += 1
        span = index - start
        if index < n and kinds[index]:
            instructions = self.instructions
            if index > start and (
                instructions[index - 1].mnemonic, instructions[index].mnemonic
            ) in fusion.active_control_pairs():
                # The lead is absorbed into the control: the body span
                # (and data-pair fusion) stops one instruction early,
                # but accounting stays instruction-granular.
                control = build_control(
                    self, index, instructions[index], instructions[index - 1]
                )
                trace = Trace(
                    start, self._body_span(start, index - 1), control, None,
                    span + 1,
                )
                trace.fused_lead_pc = index - 1
                trace.plain_control = ops[index]
            else:
                body = self._body_span(start, index)
                trace = Trace(start, body, ops[index], None, span + 1)
            trace.control_pc = index
        elif index < n:  # capped: chain to a continuation trace
            trace = Trace(start, self._body_span(start, index), None, index, span)
        else:  # ran off the end of .text
            trace = Trace(
                start, self._body_span(start, index),
                _out_of_text_control(n), None, span,
            )
        trace.body_insns = span
        self.traces[start] = trace
        return trace

    def _body_span(self, start, end):
        return _fused_body(self.instructions[start:end], self.ops[start:end])

    def stats(self):
        return {
            "traces": len(self.traces),
            "hits": self.hits,
            "misses": self.misses,
            "predecode_seconds": self.predecode_seconds,
        }


def program_cache(program) -> ProgramTranslationCache:
    """The per-program translation cache (built on first use).

    Traces embed fused thunks, so a fusion-config change invalidates
    them (the predecoded ops survive; only traces rebuild).
    """
    cache = program._analysis_cache.get("fastpath")
    if cache is None:
        cache = ProgramTranslationCache(program)
        program._analysis_cache["fastpath"] = cache
    key = fusion.config_key()
    if cache.fusion_key != key:
        cache.traces.clear()
        cache.fusion_key = key
    return cache


# ---------------------------------------------------------------------------
# Compressed-stream traces
# ---------------------------------------------------------------------------
class StreamTranslationCache:
    """Predecoded stream columns plus traces for one compressed image.

    Positions are ``(item_index, micro)`` pairs — the compressed
    simulator's native program counter.  The predecode layer consumes
    the bulk decoder's columnar output directly
    (:class:`~repro.machine.decompressor.StreamColumns`): thunks bind
    straight from the per-item instruction column, so the fast path
    never materializes a ``FetchItem`` tuple.  Dictionary entries and
    escaped instructions both go through :func:`bound_thunk`, so
    entries shared across images share thunks.
    """

    def __init__(self, columns, text_base, alignment_bits):
        self.columns = columns
        self.addresses = columns.addresses
        self.sizes = columns.sizes
        self.is_codeword = columns.is_codeword
        self.instructions = columns.instructions
        self.count = len(columns)
        self.item_at_address = columns.index
        self.text_base = text_base
        self.alignment_bits = alignment_bits
        self.traces = {}
        self._controls = {}
        self.hits = 0
        self.misses = 0
        self.fusion_key = fusion.config_key()
        started = time.perf_counter()
        with observe.stage(
            "sim.predecode", kind="stream", items=self.count,
        ):
            self.item_thunks = tuple(
                tuple(
                    None
                    if ins.mnemonic in CONTROL_MNEMONICS
                    else bound_thunk(ins.mnemonic, ins.values)
                    for ins in instructions
                )
                for instructions in columns.instructions
            )
        self.predecode_seconds = time.perf_counter() - started

    # -- position arithmetic ------------------------------------------
    def _next_key(self, item_index, micro):
        if micro + 1 < len(self.item_thunks[item_index]):
            return (item_index, micro + 1)
        if item_index + 1 < self.count:
            return (item_index + 1, 0)
        return None

    # -- addressing for build_control -----------------------------------
    @staticmethod
    def resolve(sim, address):
        """Stream position of a dynamic branch target (LR/CTR value)."""
        sim._goto_address(address)
        return sim.item_index, sim.micro

    def site(self, key):
        """``(fall, fell_off, link, halt)`` of the control at ``key``.

        ``fall`` is ``None`` at the end of the stream, where
        ``fell_off`` raises; an ``sc`` that halts stays at ``key``.
        """
        item_index = key[0]
        unit = self.addresses[item_index]
        return (
            self._next_key(*key),
            _fell_off_control(unit),
            self.text_base + unit + self.sizes[item_index],
            key,
        )

    def jump(self, key, offset):
        """``(target, bad_target)`` of a static branch at ``key``.

        A unit inside an encoded item has no position: ``target`` is
        ``None`` and ``bad_target`` raises the reference error.
        """
        unit = self.addresses[key[0]] + offset
        index = self.item_at_address.get(unit)
        if index is None:
            return None, lambda state, sim: sim._goto_unit(unit)
        return (index, 0), None

    def control_at(self, key, lead_key=None):
        """The control at ``key``, fused with the lead at ``lead_key``."""
        control = self._controls.get((key, lead_key))
        if control is None:
            instructions = self.instructions
            lead = None if lead_key is None else instructions[lead_key[0]][lead_key[1]]
            control = build_control(
                self, key, instructions[key[0]][key[1]], lead
            )
            self._controls[(key, lead_key)] = control
        return control

    # -- trace construction -------------------------------------------
    def trace_at(self, key):
        trace = self.traces.get(key)
        if trace is None:
            trace = self.build_trace(key)
        return trace

    def build_trace(self, start):
        self.misses += 1
        sizes = self.sizes
        is_codeword = self.is_codeword
        thunks = self.item_thunks
        positions = []
        units = expansions = escapes = 0
        control = None
        control_key = None
        cont = None
        item_index, micro = start
        count = 0
        while True:
            if count >= MAX_TRACE:
                cont = (item_index, micro)
                break
            if micro == 0:
                units += sizes[item_index]
                if is_codeword[item_index]:
                    expansions += 1
                else:
                    escapes += 1
            thunk = thunks[item_index][micro]
            count += 1
            if thunk is None:  # control instruction
                control_key = (item_index, micro)
                control = self.control_at(control_key)
                break
            positions.append((item_index, micro))
            if micro + 1 < len(thunks[item_index]):
                micro += 1
            elif item_index + 1 < self.count:
                item_index += 1
                micro = 0
            else:
                # The last data instruction executes, then the advance
                # past the end of the stream raises — exactly the
                # reference ``_advance`` behaviour.
                control = _fell_off_control(self.addresses[item_index])
                break
        instructions = self.instructions
        fused_lead_key = None
        if control_key is not None and positions:
            li, lm = positions[-1]
            ci, cm = control_key
            if (
                instructions[li][lm].mnemonic, instructions[ci][cm].mnemonic
            ) in fusion.active_control_pairs():
                fused_lead_key = positions[-1]
        # Control fusion claims the lead before data-pair fusion sees
        # it, so the body (and its pairing) stops one position early;
        # fetch/step accounting always covers the full span.
        body_positions = (
            positions[:-1] if fused_lead_key is not None else positions
        )
        body = _fused_body(
            [instructions[ii][mm] for ii, mm in body_positions],
            [thunks[ii][mm] for ii, mm in body_positions],
        )
        steps_cost = len(positions) + (1 if control_key is not None else 0)
        trace = Trace(start, body, control, cont, steps_cost)
        if fused_lead_key is not None:
            trace.control = self.control_at(control_key, fused_lead_key)
        trace.control_key = control_key
        trace.fused_lead_key = fused_lead_key
        trace.units = units
        trace.expansions = expansions
        trace.escapes = escapes
        trace.issued = steps_cost
        trace.body_insns = len(positions)
        self.traces[start] = trace
        return trace

    def stats(self):
        return {
            "traces": len(self.traces),
            "hits": self.hits,
            "misses": self.misses,
            "predecode_seconds": self.predecode_seconds,
        }


# Process-wide registry: one StreamTranslationCache per image content,
# LRU-evicted, keyed by the DecodeCache content digest + text base so
# repeated simulator constructions over one image predecode once.
_STREAM_CACHES: OrderedDict = OrderedDict()
STREAM_CACHE_CAPACITY = 32


def stream_cache(
    content_key, text_base, columns, alignment_bits
) -> StreamTranslationCache:
    key = (content_key, text_base)
    cache = _STREAM_CACHES.get(key)
    if cache is None:
        cache = StreamTranslationCache(columns, text_base, alignment_bits)
        _STREAM_CACHES[key] = cache
        while len(_STREAM_CACHES) > STREAM_CACHE_CAPACITY:
            _STREAM_CACHES.popitem(last=False)
    else:
        _STREAM_CACHES.move_to_end(key)
    fusion_key = fusion.config_key()
    if cache.fusion_key != fusion_key:
        cache.traces.clear()
        cache._controls.clear()
        cache.fusion_key = fusion_key
    return cache


def stream_cache_for(sim) -> StreamTranslationCache:
    """The shared translation cache for one CompressedSimulator."""
    return stream_cache(
        sim._translation_key(),
        sim._text_base,
        sim._columns,
        sim._alignment_bits,
    )


def clear_translation_caches() -> None:
    """Drop all shared predecode state (tests, memory pressure).

    That is the stream caches and every generated thunk, fused pair
    and compiled factory; per-program caches live on their programs.
    """
    _STREAM_CACHES.clear()
    fusion.clear_thunks()


def translation_cache_stats() -> dict:
    info = bound_thunk.cache_info()
    return {
        "stream_caches": len(_STREAM_CACHES),
        "thunk_hits": info.hits,
        "thunk_misses": info.misses,
        "thunks": info.currsize,
    }


def control_fusion_report(program, counts) -> dict:
    """Measured control-fusion coverage for one profiled program.

    ``counts`` are per-instruction execution counts (e.g. from
    :func:`repro.machine.simulator.profile_program`).  A *site* is an
    adjacent compare + ``bc``/``bcl`` pair in ``.text``; its dynamic
    weight is ``min(count_lead, count_branch)`` — the same rule the
    fusion miner uses.  A site counts as fused when any built trace
    absorbed its lead into the control closure, so the report reflects
    what actually executed fused, not what theoretically could.
    """
    cache = program_cache(program)
    fused_sites = {
        trace.fused_lead_pc
        for trace in cache.traces.values()
        if trace.fused_lead_pc is not None
    }
    text = program.text
    sites = []
    for i in range(len(text) - 1):
        a = text[i].instruction.mnemonic
        b = text[i + 1].instruction.mnemonic
        if a in fusion.COMPARE_MNEMONICS and b in fusion.CONTROL_TAIL_MNEMONICS:
            sites.append(i)
    dynamic_pairs = sum(min(counts[i], counts[i + 1]) for i in sites)
    dynamic_fused = sum(
        min(counts[i], counts[i + 1]) for i in sites if i in fused_sites
    )
    return {
        "sites": len(sites),
        "fused_sites": sum(1 for i in sites if i in fused_sites),
        "dynamic_pairs": dynamic_pairs,
        "dynamic_fused": dynamic_fused,
        "coverage": (dynamic_fused / dynamic_pairs) if dynamic_pairs else 1.0,
    }


# ---------------------------------------------------------------------------
# Trace-identity markers for the sampling profiler.
#
# When tagging is enabled (by repro.observe.profiler), the run loops
# publish "which trace is this thread executing right now" into a
# per-thread map, so stack samples landing inside a trace body can be
# attributed to the specific (fused) trace — "which superinstruction
# is hot" becomes a queryable fact.  The flag is hoisted into a local
# before each run loop starts, so the disabled cost is one truthiness
# check per run, not per dispatch.
# ---------------------------------------------------------------------------
_TRACE_TAGGING = False
_live_trace: dict[int, tuple] = {}


def enable_trace_tagging() -> None:
    global _TRACE_TAGGING
    _TRACE_TAGGING = True


def disable_trace_tagging() -> None:
    global _TRACE_TAGGING
    _TRACE_TAGGING = False
    _live_trace.clear()


def live_trace_markers() -> dict[int, tuple]:
    """Snapshot of thread id → ``(kind, start, fused)`` for threads
    currently inside a fast run loop (empty unless tagging is on)."""
    return dict(_live_trace)


def _note_cache_metrics(cache, dispatches, misses_before):
    built = cache.misses - misses_before
    hits = dispatches - built
    if hits > 0:
        cache.hits += hits
        observe.metric("sim.trace_cache.hits", hits)
    if built > 0:
        observe.metric("sim.trace_cache.misses", built)


# ---------------------------------------------------------------------------
# Fast run loops: uncompressed
# ---------------------------------------------------------------------------
def run_program_fast(sim) -> RunResult:
    """Trace-at-a-time execution of an uncompressed Simulator."""
    cache = program_cache(sim.program)
    state = sim.state
    memory = sim.memory
    max_steps = sim.max_steps
    traces = cache.traces
    build = cache.build_trace
    hooked = sim.fetch_hook is not None or sim.fetch_index_hook is not None
    dispatches = 0
    misses_before = cache.misses
    tagging = _TRACE_TAGGING
    ident = threading.get_ident() if tagging else 0
    pc = sim.pc
    try:
        while not state.halted:
            trace = traces.get(pc)
            if trace is None:
                trace = build(pc)
            if tagging:
                _live_trace[ident] = (
                    "program", pc, trace.fused_lead_pc is not None
                )
            dispatches += 1
            steps = state.steps
            if steps >= max_steps or steps + trace.steps_cost > max_steps:
                # The trace would cross the budget: replay it on the
                # reference loop so the overrun raises at the exact
                # instruction with the reference message.
                sim.pc = pc
                return sim._run_reference()
            sim.pc = pc
            sim.fetches += trace.steps_cost
            if hooked:
                # The replay executes every instruction (fused leads
                # included) one at a time, so the control transfer must
                # be the plain, unfused closure.
                _run_program_trace_hooked(sim, trace, state, memory, cache)
                control = trace.plain_control
            else:
                for thunk in trace.body:
                    thunk(state, memory)
                control = trace.control
            if control is None:
                pc = trace.cont
            else:
                if trace.control_pc is not None:
                    sim.pc = trace.control_pc
                pc = control(state, sim)
        sim.pc = pc
        return RunResult(state, state.steps, sim.fetches)
    finally:
        if tagging:
            _live_trace.pop(ident, None)
        _note_cache_metrics(cache, dispatches, misses_before)


def _run_program_trace_hooked(sim, trace, state, memory, cache):
    """Per-instruction replay of a trace span for hook consumers.

    Fetch hooks observe every architectural instruction, so the replay
    walks the predecoded ``cache.ops`` for the trace's index span
    instead of the (possibly fused) trace body.
    """
    hook = sim.fetch_hook
    index_hook = sim.fetch_index_hook
    address_of = sim.program.address_of
    ops = cache.ops
    index = trace.start
    for _ in range(trace.body_insns):
        sim.pc = index
        if hook is not None:
            hook(address_of(index), 1)
        if index_hook is not None:
            index_hook(index)
        ops[index](state, memory)
        index += 1
    if trace.control_pc is not None:
        sim.pc = trace.control_pc
        if hook is not None:
            hook(address_of(trace.control_pc), 1)
        if index_hook is not None:
            index_hook(trace.control_pc)


def step_program_once(sim, cache=None) -> None:
    """One predecoded instruction — the fast path's single-step.

    Used by the lockstep equivalence harness; architecturally
    equivalent to :meth:`Simulator.step`.
    """
    if cache is None:
        cache = program_cache(sim.program)
    pc = sim.pc
    if not 0 <= pc < len(cache.ops):
        raise SimulationError(
            f"PC index {pc} out of .text", step=sim.state.steps
        )
    if sim.fetch_hook is not None:
        sim.fetch_hook(sim.program.address_of(pc), 1)
    if sim.fetch_index_hook is not None:
        sim.fetch_index_hook(pc)
    sim.fetches += 1
    if cache.kinds[pc]:
        sim.pc = cache.ops[pc](sim.state, sim)
    else:
        cache.ops[pc](sim.state, sim.memory)
        sim.pc = pc + 1


def run_program_profiled(sim, counts) -> RunResult:
    """Fast run that fills per-instruction execution ``counts``.

    Counts whole-trace executions and expands them to instruction
    granularity at the end — exact, because a trace either runs fully
    or aborts the run with an error.
    """
    cache = program_cache(sim.program)
    state = sim.state
    memory = sim.memory
    max_steps = sim.max_steps
    traces = cache.traces
    trace_counts: dict = {}
    dispatches = 0
    misses_before = cache.misses
    pc = sim.pc
    try:
        while not state.halted:
            trace = traces.get(pc)
            if trace is None:
                trace = cache.build_trace(pc)
            dispatches += 1
            steps = state.steps
            if steps >= max_steps or steps + trace.steps_cost > max_steps:
                _flush_profile(trace_counts, counts)
                trace_counts.clear()

                def hook(index):
                    counts[index] += 1

                sim.fetch_index_hook = hook
                sim.pc = pc
                return sim._run_reference()
            trace_counts[trace] = trace_counts.get(trace, 0) + 1
            sim.pc = pc
            sim.fetches += trace.steps_cost
            for thunk in trace.body:
                thunk(state, memory)
            control = trace.control
            if control is None:
                pc = trace.cont
            else:
                if trace.control_pc is not None:
                    sim.pc = trace.control_pc
                pc = control(state, sim)
        sim.pc = pc
        _flush_profile(trace_counts, counts)
        return RunResult(state, state.steps, sim.fetches)
    finally:
        _note_cache_metrics(cache, dispatches, misses_before)


def _flush_profile(trace_counts, counts):
    for trace, executions in trace_counts.items():
        for index in range(trace.start, trace.start + trace.body_insns):
            counts[index] += executions
        if trace.control_pc is not None:
            counts[trace.control_pc] += executions


# ---------------------------------------------------------------------------
# Fast run loops: compressed
# ---------------------------------------------------------------------------
def run_compressed_fast(sim) -> RunResult:
    """Trace-at-a-time execution of a CompressedSimulator."""
    cache = stream_cache_for(sim)
    state = sim.state
    memory = sim.memory
    stats = sim.stats
    max_steps = sim.max_steps
    traces = cache.traces
    build = cache.build_trace
    hook = sim.fetch_hook
    dispatches = 0
    misses_before = cache.misses
    tagging = _TRACE_TAGGING
    ident = threading.get_ident() if tagging else 0
    key = (sim.item_index, sim.micro)
    try:
        while not state.halted:
            trace = traces.get(key)
            if trace is None:
                trace = build(key)
            if tagging:
                _live_trace[ident] = (
                    "stream", key, trace.fused_lead_key is not None
                )
            dispatches += 1
            steps = state.steps
            if steps >= max_steps or steps + trace.steps_cost > max_steps:
                sim.item_index, sim.micro = key
                return sim._run_reference()
            stats.units_fetched += trace.units
            stats.codeword_expansions += trace.expansions
            stats.escaped_instructions += trace.escapes
            stats.instructions_issued += trace.issued
            if hook is None:
                for thunk in trace.body:
                    thunk(state, memory)
                control = trace.control
            else:
                # Per-instruction replay already executed the fused
                # lead; finish with the plain branch closure.
                _run_stream_trace_hooked(sim, trace, state, memory, hook, cache)
                control = trace.plain_control
            if control is None:
                key = trace.cont
            else:
                if trace.control_key is not None:
                    sim.item_index, sim.micro = trace.control_key
                key = control(state, sim)
        sim.item_index, sim.micro = key
        return RunResult(
            state,
            state.steps,
            stats.codeword_expansions + stats.escaped_instructions,
        )
    finally:
        if tagging:
            _live_trace.pop(ident, None)
        _note_cache_metrics(cache, dispatches, misses_before)


def _run_stream_trace_hooked(sim, trace, state, memory, hook, cache):
    """Per-instruction replay of a stream trace for hook consumers.

    Walks the item positions the trace covers (executing the unfused
    per-instruction thunks) and fires the fetch callback at each item
    start, with the simulator position synced first because hook
    consumers (e.g. :func:`repro.machine.timing.time_compressed`) read
    ``simulator._item()``.  The trailing control instruction's fetch
    event fires here; the control transfer itself runs in the caller.
    """
    addresses = cache.addresses
    sizes = cache.sizes
    thunks = cache.item_thunks
    alignment_bits = cache.alignment_bits
    item_index, micro = trace.start
    for _ in range(trace.issued):
        if micro == 0:
            sim.item_index = item_index
            sim.micro = 0
            hook(
                (addresses[item_index] * alignment_bits) // 8,
                sizes[item_index],
            )
        thunk = thunks[item_index][micro]
        if thunk is None:  # control position: event fired, body done
            break
        thunk(state, memory)
        if micro + 1 < len(thunks[item_index]):
            micro += 1
        elif item_index + 1 < cache.count:
            item_index += 1
            micro = 0
        else:  # last data instruction; the fell-off control raises next
            break


def step_program_trace(sim, cache=None) -> None:
    """Execute one whole trace of an uncompressed Simulator.

    Trace-granularity single-step for the lockstep harness: runs the
    trace body — fused thunks included, exactly as :func:`run_program_fast`
    would — plus its control transfer, leaving ``sim.pc`` at the next
    trace boundary.  :func:`step_program_once` cannot exercise fused
    bodies; this can.
    """
    if cache is None:
        cache = program_cache(sim.program)
    pc = sim.pc
    trace = cache.traces.get(pc)
    if trace is None:
        trace = cache.build_trace(pc)
    state = sim.state
    memory = sim.memory
    sim.fetches += trace.steps_cost
    for thunk in trace.body:
        thunk(state, memory)
    control = trace.control
    if control is None:
        sim.pc = trace.cont
    else:
        if trace.control_pc is not None:
            sim.pc = trace.control_pc
        sim.pc = control(state, sim)


def step_stream_trace(sim, cache=None) -> None:
    """Execute one whole trace of a CompressedSimulator (lockstep).

    Same contract as :func:`step_program_trace`; fetch statistics are
    credited at trace entry exactly as :func:`run_compressed_fast`
    does.
    """
    if cache is None:
        cache = stream_cache_for(sim)
    key = (sim.item_index, sim.micro)
    trace = cache.traces.get(key)
    if trace is None:
        trace = cache.build_trace(key)
    state = sim.state
    memory = sim.memory
    stats = sim.stats
    stats.units_fetched += trace.units
    stats.codeword_expansions += trace.expansions
    stats.escaped_instructions += trace.escapes
    stats.instructions_issued += trace.issued
    for thunk in trace.body:
        thunk(state, memory)
    control = trace.control
    if control is None:
        sim.item_index, sim.micro = trace.cont
    else:
        if trace.control_key is not None:
            sim.item_index, sim.micro = trace.control_key
        sim.item_index, sim.micro = control(state, sim)


def step_stream_once(sim, cache=None) -> None:
    """One predecoded compressed instruction (lockstep harness)."""
    if cache is None:
        cache = stream_cache_for(sim)
    item_index, micro = sim.item_index, sim.micro
    size_units = cache.sizes[item_index]
    state = sim.state
    stats = sim.stats
    if micro == 0:
        stats.units_fetched += size_units
        if cache.is_codeword[item_index]:
            stats.codeword_expansions += 1
        else:
            stats.escaped_instructions += 1
        if sim.fetch_hook is not None:
            sim.fetch_hook(
                (cache.addresses[item_index] * cache.alignment_bits) // 8,
                size_units,
            )
    stats.instructions_issued += 1
    thunk = cache.item_thunks[item_index][micro]
    if thunk is None:
        next_key = cache.control_at((item_index, micro))(state, sim)
        sim.item_index, sim.micro = next_key
    else:
        thunk(state, sim.memory)
        next_key = cache._next_key(item_index, micro)
        if next_key is None:
            raise SimulationError(
                "fell off the end of the compressed stream",
                unit_address=cache.addresses[item_index],
                step=state.steps,
            )
        sim.item_index, sim.micro = next_key
