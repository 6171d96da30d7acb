"""Unit tests for the predecoded translation-cache fast path.

Golden whole-program equivalence lives in
``tests/integration/test_fastpath_equivalence.py``; this file covers
the cache mechanics: thunk memoization, trace construction and
sharing, the step-budget fallback, fetch-hook compatibility, fetch
accounting, profile parity, and observe wiring.
"""

import random

import pytest

from repro import observe
from repro.core import NibbleEncoding, compress
from repro.errors import SimulationError
from repro.isa import registers
from repro.isa.instruction import Instruction, make, spec_for
from repro.machine import fastpath, fusion
from repro.machine.executor import _HANDLERS
from repro.machine.memory import DATA_BASE, Memory
from repro.machine.state import MachineState
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.simulator import Simulator, profile_program


@pytest.fixture(autouse=True)
def _fresh_caches():
    fastpath.clear_translation_caches()
    yield
    fastpath.clear_translation_caches()


class TestImplementationSelection:
    def test_fast_is_default(self, tiny_program):
        assert Simulator(tiny_program).implementation == "fast"

    def test_unknown_implementation_rejected(self, tiny_program):
        with pytest.raises(ValueError):
            Simulator(tiny_program, implementation="turbo")

    def test_unknown_compressed_implementation_rejected(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        with pytest.raises(ValueError):
            CompressedSimulator(compressed, implementation="turbo")


class TestBoundThunks:
    def test_thunks_are_memoized_per_instruction(self):
        ins = make("addi", 3, 0, 7)
        same = make("addi", 3, 0, 7)
        assert fastpath.bound_thunk(ins.mnemonic, ins.values) is (
            fastpath.bound_thunk(same.mnemonic, same.values)
        )
        other = make("addi", 3, 0, 8)
        assert fastpath.bound_thunk(ins.mnemonic, ins.values) is not (
            fastpath.bound_thunk(other.mnemonic, other.values)
        )

    def test_every_handler_has_a_binder(self):
        # The template table is the fast path's only statement of the
        # semantics: it must cover every executor handler.
        missing = set(_HANDLERS) - set(fusion._TEMPLATES)
        assert not missing, f"handlers without a template: {missing}"

    def test_factories_compile_once_per_template_shape(self):
        # Distinct operands of one shape share one compiled factory;
        # the rA = 0 variant is a second shape.
        for rt in range(3, 13):
            ins = make("addi", rt, 4, rt * 7)
            fastpath.bound_thunk(ins.mnemonic, ins.values)
        assert fusion.fusion_stats()["factories"] == 1
        ins = make("addi", 3, 0, 1)
        fastpath.bound_thunk(ins.mnemonic, ins.values)
        assert fusion.fusion_stats()["factories"] == 2
        assert fastpath.translation_cache_stats()["thunks"] == 11


# ----------------------------------------------------------------------
# Oracle: every generated single thunk against the executor handler it
# restates, ``handler(ins, state, mem)`` then ``steps += 1``.
# ----------------------------------------------------------------------
_EDGE_WORDS = (
    0, 1, 31, 32, 33, 63, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF,
    0x80000000, 0x80000001, 0xFFFF8000, 0xFFFFFFFE, 0xFFFFFFFF,
)
_WINDOW = 4096  # bytes of seeded data memory the address registers hit


def _draw_operand(name, rng):
    if name in ("rT", "rA", "rS", "rB"):
        return rng.choice((0, rng.randrange(32), rng.randrange(32)))
    if name == "SI":
        return rng.choice((0, 1, -1, -0x8000, 0x7FFF, rng.randrange(-0x8000, 0x8000)))
    if name == "UI":
        return rng.choice((0, 1, 0x8000, 0xFFFF, rng.randrange(0x10000)))
    if name == "crfD":
        return rng.randrange(8)
    if name in ("SH", "MB", "ME"):
        return rng.randrange(32)
    if name == "SPR":
        return rng.choice(
            (registers.LR, registers.CTR, registers.XER, rng.randrange(1024))
        )
    assert name == "D(rA)", name
    disp = rng.choice((0, 1, 2, -2, 4, -4, rng.randrange(-0x8000, 0x8000)))
    return disp, rng.choice((0, rng.randrange(1, 32)))


def _draw_state(rng):
    state = MachineState()
    for reg in range(32):
        state.gpr[reg] = (
            rng.choice(_EDGE_WORDS) if rng.random() < 0.5
            else rng.randrange(1 << 32)
        )
    for reg in rng.sample(range(1, 32), 8):  # valid bases for D-forms
        state.gpr[reg] = DATA_BASE + rng.randrange(_WINDOW)
    state.cr = rng.randrange(1 << 32)
    state.lr = rng.randrange(1 << 32)
    state.ctr = rng.choice(_EDGE_WORDS)
    state.steps = rng.randrange(1000)
    return state


def _clone(state):
    clone = MachineState()
    clone.gpr[:] = state.gpr
    clone.cr, clone.lr, clone.ctr = state.cr, state.lr, state.ctr
    clone.steps = state.steps
    return clone


def _outcome(run, state, mem):
    try:
        run(state, mem)
    except SimulationError as exc:
        error = (type(exc), str(exc))
    else:
        error = None
    return error, state.gpr, state.cr, state.lr, state.ctr, state.steps


def _assert_thunk_matches_handler(ins, state, mem_ref, mem_fast):
    def reference(state, mem):
        _HANDLERS[ins.mnemonic](ins, state, mem)
        state.steps += 1

    expected = _outcome(reference, _clone(state), mem_ref)
    thunk = fastpath.bound_thunk(ins.mnemonic, ins.values)
    assert _outcome(thunk, _clone(state), mem_fast) == expected, str(ins)


@pytest.mark.parametrize("mnemonic", sorted(_HANDLERS))
def test_generated_thunk_matches_handler(mnemonic):
    rng = random.Random(mnemonic)
    spec = spec_for(mnemonic)
    image = rng.randbytes(_WINDOW)
    mem_ref, mem_fast = Memory(image), Memory(image)
    for _ in range(300):
        values = tuple(_draw_operand(op.name, rng) for op in spec.operands)
        _assert_thunk_matches_handler(
            Instruction(spec, values), _draw_state(rng), mem_ref, mem_fast
        )
    assert mem_fast._bytes == mem_ref._bytes


@pytest.mark.parametrize(
    "mnemonic, values, registers_set",
    [
        ("addi", (3, 0, -5), {}),  # rA = 0 reads as zero
        ("addis", (3, 0, -1), {}),
        ("lwz", (3, (8, 0)), {}),  # rA = 0: absolute (unmapped) address
        ("stwu", (3, (-4, 4)), {4: DATA_BASE + 8}),
        ("slw", (3, 4, 5), {4: 0xFFFFFFFF, 5: 32}),  # shift amount >= 32
        ("srw", (3, 4, 5), {4: 0xFFFFFFFF, 5: 63}),
        ("sraw", (3, 4, 5), {4: 0x80000000, 5: 40}),
        ("rlwinm", (3, 4, 8, 28, 3), {4: 0x12345678}),  # wrapped mask
        ("rlwinm", (3, 4, 0, 31, 0), {4: 0xFFFFFFFF}),
        ("divw", (3, 4, 5), {4: 7, 5: 0}),  # division by zero
        ("divw", (3, 4, 5), {4: 0x80000000, 5: 0xFFFFFFFF}),  # INT_MIN / -1
        ("divw", (3, 4, 5), {4: 0xFFFFFFF9, 5: 2}),  # truncates toward zero
        ("divwu", (3, 4, 5), {4: 7, 5: 0}),
        ("lha", (3, (0, 4)), {4: DATA_BASE}),  # negative halfword
        ("mfspr", (3, registers.XER), {}),  # unsupported SPR
        ("mtspr", (registers.XER, 3), {}),
    ],
)
def test_edge_operands_match_handler(mnemonic, values, registers_set):
    state = MachineState()
    for reg, value in registers_set.items():
        state.gpr[reg] = value
    image = bytes([0x80, 0x01, 0xFF, 0xFE]) * 4
    _assert_thunk_matches_handler(
        Instruction(spec_for(mnemonic), values), state,
        Memory(image), Memory(image),
    )


class TestProgramTranslationCache:
    def test_cache_is_shared_between_simulators(self, tiny_program):
        Simulator(tiny_program).run()
        cache = fastpath.program_cache(tiny_program)
        misses_after_first = cache.stats()["misses"]
        assert misses_after_first > 0
        Simulator(tiny_program).run()
        stats = cache.stats()
        # The second run replays entirely out of the trace cache.
        assert stats["misses"] == misses_after_first
        assert stats["hits"] > 0
        assert stats["predecode_seconds"] >= 0.0

    def test_trace_stops_at_control_instruction(self, tiny_program):
        cache = fastpath.program_cache(tiny_program)
        trace = cache.trace_at(0)
        assert trace.control is not None
        assert trace.steps_cost == trace.body_insns + 1
        assert len(trace.body) <= trace.body_insns  # fused pairs shrink it
        kinds = cache.kinds
        assert all(kinds[pc] == 0 for pc in range(trace.control_pc))
        assert kinds[trace.control_pc] == 1

    def test_out_of_text_trace_raises_like_reference(self, tiny_program):
        cache = fastpath.program_cache(tiny_program)
        bad = len(tiny_program.text) + 5
        with pytest.raises(SimulationError, match="out of .text"):
            cache.trace_at(bad).control(Simulator(tiny_program).state, None)


class TestBudgetFallback:
    def test_step_budget_error_matches_reference(self, tiny_program):
        fast = Simulator(tiny_program, max_steps=100, implementation="fast")
        reference = Simulator(
            tiny_program, max_steps=100, implementation="reference"
        )
        with pytest.raises(SimulationError) as fast_exc:
            fast.run()
        with pytest.raises(SimulationError) as ref_exc:
            reference.run()
        assert str(fast_exc.value) == str(ref_exc.value)
        assert fast_exc.value.step == ref_exc.value.step
        assert fast.state.gpr == reference.state.gpr
        assert fast.pc == reference.pc

    def test_compressed_budget_error_matches_reference(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        fast = CompressedSimulator(
            compressed, max_steps=100, implementation="fast"
        )
        reference = CompressedSimulator(
            compressed, max_steps=100, implementation="reference"
        )
        with pytest.raises(SimulationError) as fast_exc:
            fast.run()
        with pytest.raises(SimulationError) as ref_exc:
            reference.run()
        assert str(fast_exc.value) == str(ref_exc.value)
        assert fast_exc.value.unit_address == ref_exc.value.unit_address
        assert fast.state.gpr == reference.state.gpr


class TestHooksAndFetchCounts:
    def test_fetch_hook_sequence_identical(self, tiny_program):
        def record(sim):
            events = []
            sim.fetch_hook = lambda address, size: events.append((address, size))
            sim.run()
            return events

        fast = Simulator(tiny_program, implementation="fast")
        reference = Simulator(tiny_program, implementation="reference")
        assert record(fast) == record(reference)

    def test_compressed_fetch_hook_sequence_identical(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())

        def record(sim):
            events = []
            sim.fetch_hook = lambda address, size: events.append((address, size))
            sim.run()
            return events

        fast = CompressedSimulator(compressed, implementation="fast")
        reference = CompressedSimulator(compressed, implementation="reference")
        assert record(fast) == record(reference)

    def test_instructions_fetched_counts_real_fetches(self, tiny_program):
        fast = Simulator(tiny_program, implementation="fast").run()
        reference = Simulator(tiny_program, implementation="reference").run()
        assert fast.instructions_fetched == fast.steps
        assert reference.instructions_fetched == reference.steps
        assert fast.instructions_fetched == reference.instructions_fetched

    def test_compressed_fetch_transactions_match(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        fast_sim = CompressedSimulator(compressed, implementation="fast")
        fast = fast_sim.run()
        ref_sim = CompressedSimulator(compressed, implementation="reference")
        reference = ref_sim.run()
        expected = (
            fast_sim.stats.codeword_expansions
            + fast_sim.stats.escaped_instructions
        )
        assert fast.instructions_fetched == expected
        assert reference.instructions_fetched == expected
        assert fast_sim.stats == ref_sim.stats


class TestProfileProgram:
    def test_profile_counts_identical(self, tiny_program):
        fast_counts = profile_program(tiny_program, implementation="fast")
        ref_counts = profile_program(tiny_program, implementation="reference")
        assert fast_counts == ref_counts
        result = Simulator(tiny_program).run()
        assert sum(fast_counts) == result.steps

    def test_profile_budget_fallback_counts(self, tiny_program):
        with pytest.raises(SimulationError):
            profile_program(tiny_program, max_steps=100, implementation="fast")


class TestStreamTranslationCache:
    def test_stream_cache_shared_by_content(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        CompressedSimulator(compressed).run()
        assert fastpath.translation_cache_stats()["stream_caches"] == 1
        sim = CompressedSimulator(compressed)
        cache = fastpath.stream_cache_for(sim)
        misses_before = cache.misses
        sim.run()
        assert fastpath.translation_cache_stats()["stream_caches"] == 1
        assert cache.misses == misses_before  # warm: no new traces built
        assert cache.hits > 0

    def test_stream_cache_lru_eviction(self, tiny_program):
        from repro.core import BaselineEncoding

        compressed = compress(tiny_program, NibbleEncoding())
        first = fastpath.stream_cache_for(CompressedSimulator(compressed))
        # Make the real entry the least-recently-used one, then force a
        # fresh insert: the registry must evict back down to capacity,
        # dropping the real entry first.
        for fake in range(fastpath.STREAM_CACHE_CAPACITY):
            fastpath._STREAM_CACHES[("digest", fake)] = object()
        other = compress(tiny_program, BaselineEncoding())
        fastpath.stream_cache_for(CompressedSimulator(other))
        assert len(fastpath._STREAM_CACHES) == fastpath.STREAM_CACHE_CAPACITY
        assert (
            fastpath.stream_cache_for(CompressedSimulator(compressed))
            is not first
        )


class TestClearTranslationCaches:
    def test_clear_drops_every_fast_path_memo(self, tiny_program):
        Simulator(tiny_program).run()
        CompressedSimulator(compress(tiny_program, NibbleEncoding())).run()
        assert fastpath.translation_cache_stats()["thunks"] > 0
        assert fusion.fusion_stats()["compiled"] > 0
        fastpath.clear_translation_caches()
        stats = fastpath.translation_cache_stats()
        assert stats["thunks"] == stats["stream_caches"] == 0
        fusion_stats = fusion.fusion_stats()
        assert fusion_stats["compiled"] == fusion_stats["factories"] == 0


class TestObserveWiring:
    def test_predecode_stage_and_trace_metrics(self, tiny_program):
        stages = []
        metrics = {}
        old_stage = observe.set_stage_callback(
            lambda name, seconds: stages.append(name)
        )
        old_metric = observe.set_metric_callback(
            lambda name, value: metrics.setdefault(name, 0)
        )
        try:
            tiny_program._analysis_cache.pop("fastpath", None)
            Simulator(tiny_program).run()
        finally:
            observe.set_stage_callback(old_stage)
            observe.set_metric_callback(old_metric)
        assert "sim.predecode" in stages
        assert "sim.trace_cache.hits" in metrics
        assert "sim.trace_cache.misses" in metrics
