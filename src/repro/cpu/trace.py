"""Dynamic execution trace collection.

The CPU timing model and the MESA frontend both consume the *dynamic*
instruction stream — the in-order sequence of executed instructions together
with the effective address of every memory operation and the direction of
every branch.  :func:`collect_trace` runs the functional executor and records
that stream.

* **Columns.**  A :class:`Trace` is one static instruction table plus three
  numpy columns with one row per dynamic instruction: its index into the
  table (int32), its effective address (int64, -1 for none) and its
  direction (int8: 1 taken, 0 not taken, -1 for a non-control
  instruction) — about 13 bytes an instruction.  Iterating a trace yields
  :class:`TraceEntry` views; the loop views are a bincount and a mask.
* **Block tracing.**  Once a loop's back edge has been taken
  :data:`BLOCK_AFTER` times in a row, its body ``[target, branch]`` runs in
  blocks of up to :data:`repro.accel.batch.DEFAULT_BLOCK` (2048)
  iterations through the batched fabric drive's own block step:
  :func:`compile_loop_body` turns the body into edge-free node plans, with
  operands from the LDFG's rename rule
  (:func:`repro.accel.program.resolve_operands`), for that drive's
  compiler, whose timing-only passes skip them.  The drive's
  ``_step_block`` evaluates a block with the opcode table's lane forms and
  cuts it at the first untaken closing branch and at the first store→load
  hazard; it evaluates the closing branch's dependence cone first, so the
  rest of the body runs only on the iterations before the exit.  Its
  ``_commit_stores`` commits the block's stores, and each register the
  loop writes takes its last writer's final lane.  What is
  the tracer's own is that register writeback, the trace columns and the
  backoff below.  The hazard iteration, whose load forwards from a store,
  runs on the scalar path.
  A block costs about as much as a few hundred scalar steps, so when a
  hazard cuts one before half its iterations the loop steps for
  :data:`BLOCK_AFTER` more taken back edges, twice as many after each
  such cut in a row: a loop whose iterations forward to each other mostly
  steps.  A body the drive cannot take — inner control, a closing
  transfer that is not a conditional branch, xlen 64, an opcode without a
  lane form, an access wider than 4 bytes, a recurrence through memory —
  steps on the scalar path, and :func:`compile_loop_body` names the
  reason.

Both paths yield the same columns and the same final state: registers, pc
and every memory byte (``tests/cpu/test_block_trace.py`` holds them to a
plain :meth:`~repro.isa.Executor.step` loop).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from ..accel.batch import (
    DEFAULT_BLOCK,
    BatchProgram,
    _commit_stores,
    _compile,
    _step_block,
)
from ..accel.plan import (
    K_NODE,
    N_COMPUTE,
    N_CONTROL,
    N_MEMORY,
    MemoryPlan,
    NodePlan,
    operand_plan,
)
from ..accel.program import resolve_operands
from ..isa import (
    ACCESS_FORMATS,
    ExecutionError,
    Executor,
    Instruction,
    MachineState,
    Program,
    Register,
    compile_branch,
    compile_operation,
)
from .lsd import LoopCandidate, LoopStreamDetector

__all__ = ["TraceEntry", "Trace", "collect_trace", "compile_loop_body",
           "BLOCK_AFTER"]

#: Taken back edges in a row, within one entry of a loop, before its body
#: is block-traced.  A block costs about as much as a few hundred scalar
#: steps, so loops of a few trips stay scalar: at 2, srad's 4-trip inner
#: loop traced about 4x slower.
BLOCK_AFTER = 4

# What the scalar loop does after a static instruction's handler.
_PLAIN, _MEMORY, _CONTROL, _BACK_EDGE = 0, 1, 2, 3

# Rows converted per step when a trace is iterated.
_CHUNK = 4096


class TraceEntry(NamedTuple):
    """One dynamically executed instruction: a view of one row of a
    :class:`Trace`."""

    instruction: Instruction
    #: Effective address for loads/stores, else ``None``.
    address: int | None = None
    #: For control transfers: True if taken.  ``None`` for other classes.
    taken: bool | None = None

    @property
    def pc(self) -> int:
        return self.instruction.address


def _entry(instruction: Instruction, address: int, taken: int) -> TraceEntry:
    return TraceEntry(instruction, None if address < 0 else address,
                      None if taken < 0 else taken == 1)


@dataclass(frozen=True, eq=False)
class Trace:
    """A complete dynamic trace, as columns, plus the final architectural
    state."""

    #: The static instructions the ``index`` column points into.
    instructions: tuple[Instruction, ...]
    #: Per dynamic instruction: its index into ``instructions`` (int32).
    index: np.ndarray
    #: Effective address of a load or store, else -1 (int64).
    address: np.ndarray
    #: Control transfers: 1 taken, 0 not taken; -1 for the rest (int8).
    taken: np.ndarray
    final_state: MachineState

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        table = self.instructions
        for start in range(0, len(self.index), _CHUNK):
            rows = slice(start, start + _CHUNK)
            for k, address, taken in zip(self.index[rows].tolist(),
                                         self.address[rows].tolist(),
                                         self.taken[rows].tolist()):
                yield _entry(table[k], address, taken)

    def __getitem__(self, position: int) -> TraceEntry:
        return _entry(self.instructions[self.index[position]],
                      int(self.address[position]), int(self.taken[position]))

    # Derived views, computed once from the columns on first use.  Loop
    # accounting reads them instead of rescanning the stream.

    @cached_property
    def pc_counts(self) -> Counter[int]:
        """Dynamic execution count of every executed pc."""
        counts: Counter[int] = Counter()
        executed = np.bincount(self.index, minlength=len(self.instructions))
        for instr, count in zip(self.instructions, executed.tolist()):
            if count:
                counts[instr.address] += count
        return counts

    @cached_property
    def back_edges(self) -> tuple[TraceEntry, ...]:
        """The taken backward control transfers, in stream order: the only
        entries a loop-stream detector acts on."""
        table = self.instructions
        backward = np.array([instr.is_control and instr.imm < 0
                             for instr in table], bool)
        rows = np.flatnonzero(backward[self.index] & (self.taken == 1))
        return tuple(TraceEntry(table[k], None, True)
                     for k in self.index[rows].tolist())

    @cached_property
    def hot_loops(self) -> tuple[LoopCandidate, ...]:
        """The loop-stream detector's hot loops, hottest first: scanned
        once per trace, for every config that detects regions in it."""
        return tuple(LoopStreamDetector().scan(self))

    def executions(self, start: int, end: int) -> int:
        """Dynamic instructions executed at pcs in ``[start, end]``."""
        return sum(count for pc, count in self.pc_counts.items()
                   if start <= pc <= end)


def collect_trace(program: Program, state: MachineState | None = None,
                  max_steps: int = 1_000_000) -> Trace:
    """Execute a program, recording the dynamic stream with addresses.

    Args:
        program: the assembled program.
        state: initial architectural state (a fresh one if omitted).
        max_steps: safety bound on executed instructions.

    Raises:
        repro.isa.ExecutionError: on runaway loops or instructions without
            semantics (system ops, RV64-only ops on an RV32 state).
    """
    executor = Executor(program, state)
    state = executor.state
    instructions = program.instructions
    address_mask = (1 << state.xlen) - 1
    # Per static instruction, resolved once: (handler, kind of step,
    # base register list and index of a memory access's address, offset).
    steps = []
    for instr, handler in zip(instructions, executor.handlers):
        base, slot = state.slot(instr.rs1)
        if instr.is_memory:
            kind = _MEMORY
        elif instr.is_branch and instr.imm < 0:
            kind = _BACK_EDGE
        else:
            kind = _CONTROL if instr.is_control else _PLAIN
        steps.append((handler, kind, base, slot, instr.imm))
    columns = _Columns()
    index_append = columns.index.append
    address_append = columns.address.append
    taken_append = columns.taken.append
    streaks = [0] * len(instructions)  # back edge -> taken in a row
    loops: dict[int, _BlockLoop | None] = {}  # back edge -> its body
    start, end = program.base_address, program.end_address
    pc = state.pc
    executed = 0
    try:
        while start <= pc < end:
            if executed == max_steps:
                raise ExecutionError(
                    f"exceeded {max_steps} steps (runaway loop?)")
            offset = pc - start
            if offset & 3:
                program.at(pc)  # raises KeyError: misaligned
            k = offset >> 2
            handler, kind, base, slot, imm = steps[k]
            index_append(k)
            executed += 1
            if kind == _PLAIN:
                handler()
                pc += 4
                continue
            if kind == _MEMORY:
                address_append((base[slot] + imm) & address_mask)
                handler()
                pc += 4
                continue
            target = handler()
            if target is None or target == pc + 4:
                taken_append(0)
                streaks[k] = 0
                pc += 4
                continue
            taken_append(1)
            pc = target
            if kind == _BACK_EDGE:
                streaks[k] += 1
                if streaks[k] >= BLOCK_AFTER:
                    if k not in loops:
                        loops[k] = _BlockLoop.build(program, k, state)
                    loop = loops[k]
                    if loop is not None:
                        columns.flush()
                        traced, pc = loop.run(state, max_steps - executed,
                                              columns)
                        executed += traced
                        streaks[k] = -loop.backoff
    finally:
        state.pc = pc
    return columns.trace(instructions, state)


class _Columns:
    """The trace columns as they grow.  The scalar path appends to three
    lists and a traced block adds arrays; until :meth:`trace` the address
    and taken columns hold one row per memory and per control
    instruction only."""

    _DTYPES = (np.int32, np.int64, np.int8)

    def __init__(self) -> None:
        self.index: list[int] = []
        self.address: list[int] = []
        self.taken: list[int] = []
        self.chunks: tuple[list, list, list] = ([], [], [])

    def flush(self) -> None:
        """Move the lists' rows into the chunks (the lists stay bound)."""
        for rows, chunks, dtype in zip((self.index, self.address,
                                        self.taken), self.chunks,
                                       self._DTYPES):
            if rows:
                chunks.append(np.array(rows, dtype))
                rows.clear()

    def add(self, index, address, taken) -> None:
        for chunks, rows in zip(self.chunks, (index, address, taken)):
            chunks.append(rows)

    def trace(self, instructions, final_state: MachineState) -> Trace:
        self.flush()
        index, address, taken = (
            np.concatenate([np.empty(0, dtype), *chunks])
            for chunks, dtype in zip(self.chunks, self._DTYPES))
        is_memory = np.array([i.is_memory for i in instructions], bool)
        is_control = np.array([i.is_control for i in instructions], bool)
        address_column = np.full(len(index), -1, np.int64)
        address_column[is_memory[index]] = address
        taken_column = np.full(len(index), -1, np.int8)
        taken_column[is_control[index]] = taken
        return Trace(tuple(instructions), index, address_column,
                     taken_column, final_state)


# -- block tracing --------------------------------------------------------------

def compile_loop_body(body: Sequence[Instruction], xlen: int,
                      resolved: list | None = None) -> BatchProgram | str:
    """Compile a loop body for block tracing, or say why it steps.

    ``body`` runs from the back edge's target to the back edge.  Each
    instruction becomes one node plan whose operands come from the LDFG's
    rename rule (:func:`~repro.accel.program.resolve_operands`): a K_NODE
    same-iteration writer, else a K_LOOP previous-iteration writer, else a
    K_CONST constant of the loop.  Operands carry no edge, so the batched
    drive's compiler runs only its value passes on them.  ``resolved`` is
    the first half of ``resolve_operands(body)`` when the caller has it.

    Returns the :class:`~repro.accel.batch.BatchProgram`, or the reason the
    body steps on the scalar path.
    """
    if not body[-1].is_branch:
        return "closing transfer is not a conditional branch"
    if any(instr.is_control for instr in body[:-1]):
        return "inner control"
    if xlen != 32:
        return "xlen 64"
    if resolved is None:
        resolved, _ = resolve_operands(body)
    nodes = []
    for i, (instr, (src1, src2, _)) in enumerate(zip(body, resolved)):
        if instr.requires_rv64:
            return f"RV64I instruction {instr} on an RV32 state"
        memory = evaluate = None
        if instr.is_memory:
            kind = N_MEMORY
            memory = MemoryPlan(is_load=instr.is_load,
                                size=ACCESS_FORMATS[instr.opcode][0],
                                imm=instr.imm, pc=instr.address,
                                vector_group=None, prefetched=False)
        elif instr.is_control:
            kind = N_CONTROL
            evaluate = compile_branch(instr)
        else:
            kind = N_COMPUTE
            try:
                evaluate = compile_operation(instr)
            except ExecutionError as error:
                return str(error)
        nodes.append(NodePlan(
            node_id=i, kind=kind, src1=operand_plan(src1),
            src2=operand_plan(src2), guard_branch=-1, effective_guard=-1,
            fallback=None, latency=0, evaluate=evaluate, is_fp=instr.is_fp,
            is_store=instr.is_store, memory=memory))
    return _compile(None, nodes, body, len(body) - 1, xlen)


class _BlockLoop:
    """One block-traced loop of one :func:`collect_trace` call, bound to
    that call's state."""

    __slots__ = ("bp", "length", "index", "start_pc", "exit_pc",
                 "constants", "writers", "backoff")

    def __init__(self, bp: BatchProgram, first: int,
                 body: Sequence[Instruction], writers: dict[Register, int],
                 state: MachineState) -> None:
        self.bp = bp
        self.length = len(body)
        #: The index column of DEFAULT_BLOCK iterations.
        self.index = np.tile(np.arange(first, first + self.length,
                                       dtype=np.int32), DEFAULT_BLOCK)
        self.start_pc = body[0].address
        self.exit_pc = body[-1].address + 4
        #: Register slot per node of its src1 and src2 constants (x0's,
        #: which reads 0, for a none or same-iteration operand).
        self.constants = [
            tuple(state.slot(op.register if op.kind != K_NODE else None)
                  for op in (rec.plan_node.src1, rec.plan_node.src2))
            for rec in bp.nodes]
        #: (register-file list, index, node) per register the loop writes.
        self.writers = [(*state.slot(reg), i) for reg, i in writers.items()]
        #: Extra taken back edges the loop waits before its next block:
        #: doubled by each block a hazard cuts early, reset by any other.
        self.backoff = 0

    @classmethod
    def build(cls, program: Program, branch: int,
              state: MachineState) -> "_BlockLoop | None":
        """The loop closed by the back edge at static index ``branch``, or
        None when its body steps on the scalar path."""
        target = program.instructions[branch].address \
            + program.instructions[branch].imm
        offset = target - program.base_address
        if offset < 0 or offset & 3:
            return None  # the "loop" leaves the program
        body = program.instructions[offset >> 2:branch + 1]
        resolved, writers = resolve_operands(body)
        bp = compile_loop_body(body, state.xlen, resolved)
        if isinstance(bp, str):
            return None
        return cls(bp, offset >> 2, body, writers, state)

    def run(self, state: MachineState, budget: int,
            columns: _Columns) -> tuple[int, int]:
        """Trace whole iterations in blocks, from the loop's first
        instruction, until the loop exits, a hazard cuts a block before
        half its iterations, or ``budget`` steps leave no whole iteration.
        Returns the steps traced and the pc to go on from."""
        bp, length = self.bp, self.length
        memory = state.memory
        no_fallback = [0] * length
        traced = 0
        while True:
            nb = min(DEFAULT_BLOCK, (budget - traced) // length)
            if nb == 0:
                return traced, self.start_pc
            const1 = [regs[i] for (regs, i), _ in self.constants]
            const2 = [regs[i] for _, (regs, i) in self.constants]
            # Only the iterations before a hazard commit; the hazard
            # iteration forwards on the scalar path.
            nb, exited, hazard, vals, _, taken, mem_vecs = _step_block(
                bp, nb, True, None, const1, const2, no_fallback, memory)
            if nb:
                _commit_stores(bp, nb, mem_vecs, memory)
                for regs, slot, i in self.writers:
                    regs[slot] = vals[i][nb - 1].item()
                addresses = (np.stack([mem_vecs[i][0] for i in bp.mem_ids],
                                      axis=1).ravel()
                             if bp.mem_ids else np.empty(0, np.int64))
                columns.add(self.index[:nb * length], addresses,
                            taken[bp.loop_id].astype(np.int8))
                traced += nb * length
            if hazard is not None and hazard < DEFAULT_BLOCK // 2:
                self.backoff = max(2 * self.backoff, BLOCK_AFTER)
                return traced, self.start_pc
            self.backoff = 0
            if exited:
                return traced, self.exit_pc
