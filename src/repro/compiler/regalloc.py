"""Liveness analysis and linear-scan register allocation.

Targets the PowerPC SysV convention the paper's GCC used:

* volatile (caller-saved) allocatable pool: r3–r10,
* non-volatile (callee-saved) pool: r31 down to r14, allocated from
  r31 downward so prologues save a contiguous high register range —
  the same pattern GCC emits, which matters for the prologue/epilogue
  redundancy measured in the paper's Table 3,
* r0, r11, r12 are codegen scratch; r1 is the stack pointer; r2/r13
  are reserved by the ABI and never touched.

Virtual registers whose live interval crosses a call must live in a
non-volatile register (or spill to the frame).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.compiler import ir

VOLATILE_POOL: tuple[int, ...] = tuple(range(3, 11))  # r3..r10
NONVOLATILE_POOL: tuple[int, ...] = tuple(range(31, 13, -1))  # r31..r14


@dataclass(frozen=True)
class Loc:
    """Where a vreg lives: a physical register or a frame spill slot."""

    kind: str  # 'reg' | 'stack'
    index: int

    def __repr__(self) -> str:
        return f"r{self.index}" if self.kind == "reg" else f"[slot{self.index}]"


def reg(n: int) -> Loc:
    return Loc("reg", n)


def slot(n: int) -> Loc:
    return Loc("stack", n)


@dataclass
class Allocation:
    """Result of register allocation for one function."""

    location: dict[ir.VReg, Loc] = field(default_factory=dict)
    used_nonvolatile: list[int] = field(default_factory=list)
    num_spill_slots: int = 0
    has_calls: bool = False

    def loc(self, vreg: ir.VReg) -> Loc:
        return self.location[vreg]


@dataclass
class _Interval:
    vreg: ir.VReg
    start: int
    end: int
    crosses_call: bool = False


# ---------------------------------------------------------------------------
# Basic blocks and liveness
# ---------------------------------------------------------------------------
@dataclass
class _Block:
    start: int  # index of first instruction
    end: int  # one past last
    succs: list[int] = field(default_factory=list)
    use: set = field(default_factory=set)
    defs: set = field(default_factory=set)
    live_in: set = field(default_factory=set)
    live_out: set = field(default_factory=set)


def _split_blocks(fn: ir.IRFunction) -> list[_Block]:
    leaders = {0}
    labels = fn.label_indices()
    for i, instr in enumerate(fn.instrs):
        if isinstance(instr, ir.Label):
            leaders.add(i)
        if isinstance(instr, (ir.Br, ir.CBr, ir.Switch, ir.Ret, ir.Halt)):
            leaders.add(i + 1)
    ordered = sorted(l for l in leaders if l < len(fn.instrs))
    blocks = []
    for bi, start in enumerate(ordered):
        end = ordered[bi + 1] if bi + 1 < len(ordered) else len(fn.instrs)
        blocks.append(_Block(start, end))
    # Every label starts a block, so a branch target's block is found
    # by the label's index.
    block_at = {block.start: bi for bi, block in enumerate(blocks)}
    for bi, block in enumerate(blocks):
        if block.start == block.end:
            continue
        last = fn.instrs[block.end - 1]
        for target in fn.branch_targets(last):
            block.succs.append(block_at[labels[target]])
        falls_through = not isinstance(last, (ir.Br, ir.Ret, ir.Switch, ir.Halt))
        if falls_through and bi + 1 < len(blocks):
            block.succs.append(bi + 1)
    return blocks


def _compute_liveness(
    blocks: list[_Block], uses: list[list[ir.VReg]], defs: list[tuple[ir.VReg, ...]]
) -> None:
    for block in blocks:
        seen_defs: set = set()
        for i in range(block.start, block.end):
            for use in uses[i]:
                if use not in seen_defs:
                    block.use.add(use)
            seen_defs.update(defs[i])
        block.defs = seen_defs
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            live_out = set()
            for succ in block.succs:
                live_out |= blocks[succ].live_in
            live_in = block.use | (live_out - block.defs)
            if live_in != block.live_in or live_out != block.live_out:
                block.live_in = live_in
                block.live_out = live_out
                changed = True


def _build_intervals(
    fn: ir.IRFunction,
    blocks: list[_Block],
    uses: list[list[ir.VReg]],
    defs: list[tuple[ir.VReg, ...]],
) -> list[_Interval]:
    # Parameters are defined at position -1 (function entry); positions
    # then only grow, so an instruction sets a new vreg's start and
    # moves every vreg's end.
    start: dict[ir.VReg, int] = {}
    end: dict[ir.VReg, int] = {}
    for pid in range(fn.nparams):
        start[ir.VReg(pid)] = end[ir.VReg(pid)] = -1
    # Out/OutC templates clobber the argument registers (they marshal
    # into r3 before ``sc``), so they constrain allocation like calls.
    call_positions: list[int] = []
    for i, instr in enumerate(fn.instrs):
        for vreg in (*uses[i], *defs[i]):
            if vreg not in start:
                start[vreg] = i
            end[vreg] = i
        if isinstance(instr, (ir.Call, ir.Out, ir.OutC)):
            call_positions.append(i)
    # A vreg live into or out of a block spans its whole extent.
    for block in blocks:
        last = max(block.start, block.end - 1)
        for vreg in block.live_in:
            _widen(start, end, vreg, block.start)
        for vreg in block.live_out:
            _widen(start, end, vreg, last)

    intervals = []
    for vreg, first in start.items():
        interval = _Interval(vreg, first, end[vreg])
        # The first call after the start must come before the end.
        nxt = bisect_right(call_positions, first)
        interval.crosses_call = (
            nxt < len(call_positions) and call_positions[nxt] < interval.end
        )
        intervals.append(interval)
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.vreg.id))
    return intervals


def _widen(start: dict, end: dict, vreg: ir.VReg, pos: int) -> None:
    if vreg not in start:
        start[vreg] = end[vreg] = pos
    elif pos < start[vreg]:
        start[vreg] = pos
    elif pos > end[vreg]:
        end[vreg] = pos


# ---------------------------------------------------------------------------
# Linear scan
# ---------------------------------------------------------------------------
def allocate(fn: ir.IRFunction) -> Allocation:
    """Run liveness + linear scan, returning vreg locations."""
    blocks = _split_blocks(fn)
    uses = [instr.uses() for instr in fn.instrs]
    defs = [instr.defs() for instr in fn.instrs]
    _compute_liveness(blocks, uses, defs)
    intervals = _build_intervals(fn, blocks, uses, defs)

    allocation = Allocation()
    allocation.has_calls = any(
        isinstance(instr, ir.Call) for instr in fn.instrs
    )

    # Free registers as heaps: the lowest volatile and the highest
    # non-volatile register are taken first.  Active intervals are a
    # heap by end, so expiring looks only at those that have ended.
    free_volatile = list(VOLATILE_POOL)
    free_nonvolatile = [-r for r in NONVOLATILE_POOL]
    active: list[tuple[int, int]] = []  # (end, register)
    next_slot = 0

    for interval in intervals:
        while active and active[0][0] < interval.start:
            register = heappop(active)[1]
            if register in VOLATILE_POOL:
                heappush(free_volatile, register)
            else:
                heappush(free_nonvolatile, -register)
        location = _take_register(interval, free_volatile, free_nonvolatile)
        if location is None:
            location = slot(next_slot)
            next_slot += 1
        else:
            if location.index in NONVOLATILE_POOL:
                if location.index not in allocation.used_nonvolatile:
                    allocation.used_nonvolatile.append(location.index)
            heappush(active, (interval.end, location.index))
        allocation.location[interval.vreg] = location

    allocation.num_spill_slots = next_slot
    allocation.used_nonvolatile.sort(reverse=True)
    return allocation


def _take_register(
    interval: _Interval, free_volatile: list[int], free_nonvolatile: list[int]
) -> Loc | None:
    if interval.crosses_call:
        if free_nonvolatile:
            return reg(-heappop(free_nonvolatile))
        return None
    if free_volatile:
        return reg(heappop(free_volatile))
    if free_nonvolatile:
        return reg(-heappop(free_nonvolatile))
    return None
