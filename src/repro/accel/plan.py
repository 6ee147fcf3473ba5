"""Execution plans: the compiled form of a configured program.

Everything the :class:`~repro.accel.engine.DataflowEngine` needs to know
about a node or edge is frozen at configuration time — the paper's T3 step
writes the fabric's *static* configuration, and the only quantities that vary
from iteration to iteration are memory behaviour (AMAT, port grants,
store-to-load forwarding) and NoC ring-channel queueing ("sending via the
on-chip network takes longer depending on traffic and distance", §5.2).

An :class:`ExecutionPlan` exploits that split.  It is compiled once per
(program, interconnect) pair and precomputes, per node:

* the operation's evaluator (a closure from
  :func:`repro.isa.compile_operation` / :func:`~repro.isa.compile_branch`
  at the fabric's width — the one opcode-to-semantics mapping, shared with
  the CPU executor; the engine's interpreter evaluates every node through
  it), its constant latency, and its operand resolution codes;
* for memory nodes, the decoded access descriptor (size, direction,
  immediate, vector group);

and per DFG or loop-carried edge:

* the static transfer latency ``l(C)`` and the local-links-vs-NoC routing
  decision (whichever is faster wins, exactly as the cycle model decides it);
* the number of NoC router hops the packet traverses (the activity the
  transfer induces on the secondary interconnect).

Only the NoC queue wait and memory behaviour remain dynamic.  The batched
drive path (:mod:`repro.accel.batch`) compiles a plan further into flat
arrays and produces *bit-identical* results to the node-by-node
interpreter — the golden equivalence tests in ``tests/accel/`` hold both
paths to that contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..isa import (
    ACCESS_FORMATS,
    ExecutionError,
    compile_branch,
    compile_operation,
)
from ..latency import OP_LATENCY
from .config import AcceleratorConfig
from .interconnect import LOCAL_HOP_LATENCY, Interconnect
from .program import (
    AcceleratorProgram,
    ConfiguredNode,
    Operand,
    OperandKind,
)

__all__ = [
    "K_CONST", "K_LOOP", "K_NODE",
    "N_COMPUTE", "N_MEMORY", "N_CONTROL",
    "EdgePlan", "OperandPlan", "MemoryPlan", "NodePlan", "ExecutionPlan",
    "compile_plan", "operand_plan",
]

# Operand resolution codes.  REGISTER and NONE operands collapse into one
# code: both are constant for the whole run (a latched live-in or zero) and
# arrive at iteration start.
K_CONST = 0
K_LOOP = 1   # previous-iteration producer; constant on iteration 0
K_NODE = 2   # same-iteration DFG edge

_RESOLUTION = {
    OperandKind.NONE: K_CONST,
    OperandKind.REGISTER: K_CONST,
    OperandKind.LOOP_CARRIED: K_LOOP,
    OperandKind.NODE: K_NODE,
}

# Node execution codes.
N_COMPUTE = 0
N_MEMORY = 1
N_CONTROL = 2  # branch or jump

@dataclass(frozen=True, slots=True)
class EdgePlan:
    """One DFG or loop-carried edge with its routing decision frozen."""

    src_id: int
    #: Static transfer latency ``l(C)`` — the full cost for local routes,
    #: the unloaded cost for NoC routes (queue wait is added dynamically).
    cycles: float
    #: True when the neighbor links are at least as fast as the NoC, i.e.
    #: the packet never touches a ring channel.
    is_local: bool
    #: Manhattan distance (local-link traversals when ``is_local``).
    manhattan: int
    #: Source row — selects the ring channel for NoC-routed packets.
    src_row: int
    #: Router-to-router hops for NoC-routed packets (activity, not latency).
    router_hops: int
    #: ``(src_id, destination node id)`` — the latency-counter key.
    key: tuple[int, int]
    #: Index into ``ExecutionPlan.edge_slots`` — one slot per operand
    #: occurrence, so per-event accounting can use flat arrays instead of
    #: dicts (several slots may share a ``key`` when a node consumes the
    #: same producer twice).
    slot: int


@dataclass(frozen=True, slots=True)
class OperandPlan:
    """Resolution recipe for one operand."""

    kind: int                     # K_CONST / K_LOOP / K_NODE
    src_id: int = -1              # producing node for K_LOOP / K_NODE
    register: object = None       # live-in register for K_CONST / K_LOOP
    edge: EdgePlan | None = None  # transfer for K_LOOP / K_NODE


def operand_plan(operand: Operand, edge: EdgePlan | None = None
                 ) -> OperandPlan:
    """The resolution recipe of one operand, with its producer's transfer
    (none for the CPU tracer's edge-free loop bodies)."""
    return OperandPlan(_RESOLUTION[operand.kind],
                       -1 if operand.node_id is None else operand.node_id,
                       operand.register, edge)


@dataclass(frozen=True, slots=True)
class MemoryPlan:
    """Decoded access descriptor of a load/store entry."""

    is_load: bool
    size: int
    imm: int
    pc: int
    vector_group: int | None
    prefetched: bool


@dataclass(frozen=True, slots=True)
class NodePlan:
    """One configured node with every static decision precomputed."""

    node_id: int
    kind: int                    # N_COMPUTE / N_MEMORY / N_CONTROL
    src1: OperandPlan
    src2: OperandPlan
    guard_branch: int            # guarding branch node id, -1 if unguarded
    #: ``guard_branch`` when the guard can actually fire (a branch strictly
    #: before this node), else -1 — a guard at or after its node reads the
    #: iteration's still-default branch state and never predicates it off.
    #: The batched capability analysis and the recurrence clusters share this
    #: rule with the interpreter.
    effective_guard: int
    fallback: OperandPlan | None
    #: Constant operation latency (0 for memory nodes, whose timing is
    #: port grant + AMAT).
    latency: int
    #: ``(a, b) -> value`` for compute, ``(a, b) -> taken`` for control.
    evaluate: Callable | None
    is_fp: bool
    is_store: bool
    memory: MemoryPlan | None


def _make_raiser(message: str) -> Callable:
    def raise_(a, b):
        raise ExecutionError(message)
    return raise_


class ExecutionPlan:
    """The compiled form of one (program, interconnect) pair."""

    __slots__ = (
        "program", "config", "interconnect", "nodes", "n_nodes",
        "loop_branch_id",
        "memory_per_iter", "occupancy_entries", "edge_slots",
        "_recurrence_cache", "_batch",
    )

    def __init__(self, program: AcceleratorProgram,
                 interconnect: Interconnect) -> None:
        self.program = program
        self.config: AcceleratorConfig = program.config
        self.interconnect = interconnect
        #: Every EdgePlan in compile order — one slot per operand occurrence.
        #: The batched path accounts edge events into flat arrays indexed by
        #: ``EdgePlan.slot`` and folds into the keyed counters once per run.
        self.edge_slots: list[EdgePlan] = []
        self.nodes: list[NodePlan] = [
            self._compile_node(node) for node in program.nodes
        ]
        self.n_nodes = len(self.nodes)
        self.loop_branch_id = program.loop_branch_id
        # Port requests per iteration: every store and ungrouped load is one
        # request; a vector group of loads shares a single grant.
        groups: set[int] = set()
        self.memory_per_iter = 0
        #: (is_store, vector_group, prefetched, pc) per memory node — the
        #: static inputs of the LSU-occupancy bound in ``_total_cycles``.
        self.occupancy_entries: list[tuple[bool, int | None, bool, int]] = []
        for node in program.memory_nodes:
            instr = node.instruction
            if instr.is_load and node.vector_group is not None:
                groups.add(node.vector_group)
            else:
                self.memory_per_iter += 1
            self.occupancy_entries.append(
                (instr.is_store, node.vector_group, node.prefetched,
                 instr.address))
        self.memory_per_iter += len(groups)
        #: Recurrence-bound II per memory ideal latency (the one dynamic
        #: input of the RecMII computation).
        self._recurrence_cache: dict[float, float] = {}
        #: Lazily compiled batched program (``accel.batch``).
        self._batch = None

    # -- batched execution ---------------------------------------------------

    @property
    def batch_program(self):
        """The batched compilation of this plan (lazy, cached).

        Always returns a :class:`repro.accel.batch.BatchProgram`; when the
        plan cannot be vectorized its ``capability`` carries the reason and
        the engine runs it on the interpreter.
        """
        if self._batch is None:
            from .batch import compile_batch
            self._batch = compile_batch(self)
        return self._batch

    # -- compilation ---------------------------------------------------------

    def _compile_node(self, node: ConfiguredNode) -> NodePlan:
        instr = node.instruction
        src1 = self._compile_operand(node, node.src1)
        src2 = self._compile_operand(node, node.src2)
        guard_branch = -1
        fallback = None
        if node.guard is not None:
            guard_branch = node.guard.branch_node_id
            fallback = self._compile_operand(node, node.guard.fallback)

        memory: MemoryPlan | None = None
        evaluate: Callable | None = None
        latency = 0
        if node.is_memory:
            kind = N_MEMORY
            memory = MemoryPlan(
                is_load=instr.is_load,
                size=ACCESS_FORMATS[instr.opcode][0],
                imm=instr.imm,
                pc=instr.address,
                vector_group=node.vector_group,
                prefetched=node.prefetched,
            )
        elif instr.is_control:
            kind = N_CONTROL
            evaluate = compile_branch(instr, xlen=self.config.xlen)
            latency = OP_LATENCY[instr.op_class]
        else:
            kind = N_COMPUTE
            try:
                evaluate = compile_operation(instr, xlen=self.config.xlen)
                latency = OP_LATENCY[instr.op_class]
            except ExecutionError as error:
                # No semantics on the fabric (a system op, an RV64-only op
                # at 32 bits): like the executor, the error surfaces when
                # the node runs, not when the plan is compiled.
                evaluate = _make_raiser(str(error))
                latency = 1

        return NodePlan(
            node_id=node.node_id,
            kind=kind,
            src1=src1,
            src2=src2,
            guard_branch=guard_branch,
            effective_guard=(guard_branch
                             if -1 < guard_branch < node.node_id else -1),
            fallback=fallback,
            latency=latency,
            evaluate=evaluate,
            is_fp=instr.is_fp,
            is_store=instr.is_store,
            memory=memory,
        )

    def _compile_operand(self, dst: ConfiguredNode,
                         operand: Operand) -> OperandPlan:
        return operand_plan(operand, None if operand.node_id is None
                            else self._compile_edge(operand.node_id, dst))

    def _compile_edge(self, src_id: int, dst: ConfiguredNode) -> EdgePlan:
        src = self.program.node(src_id)
        cycles = float(self.interconnect.latency(src.coord, dst.coord))
        manhattan = (abs(src.coord[0] - dst.coord[0])
                     + abs(src.coord[1] - dst.coord[1]))
        # The same faster-path-wins decision the cycle model makes: the
        # packet takes the neighbor links unless the NoC strictly beats them.
        is_local = manhattan * LOCAL_HOP_LATENCY <= cycles
        edge = EdgePlan(
            src_id=src_id,
            cycles=cycles,
            is_local=is_local,
            manhattan=manhattan,
            src_row=src.coord[0],
            router_hops=self.interconnect.router_hops(src.coord, dst.coord),
            key=(src_id, dst.node_id),
            slot=len(self.edge_slots),
        )
        self.edge_slots.append(edge)
        return edge

    # -- per-run constants ---------------------------------------------------

    def bind_constants(self, reg_env: dict) -> tuple[list, list, list]:
        """Per-node constant operand values for one run.

        ``K_CONST`` operands (latched live-ins or zero) keep these values for
        the whole run; ``K_LOOP`` operands take them on iteration 0 only.
        Returns ``(const1, const2, const_fb)`` indexed by node id.
        """
        get = reg_env.get

        def const(op: OperandPlan | None):
            if op is None or op.register is None:
                return 0
            return get(op.register, 0)

        const1 = [const(n.src1) for n in self.nodes]
        const2 = [const(n.src2) for n in self.nodes]
        const_fb = [const(n.fallback) for n in self.nodes]
        return const1, const2, const_fb

    # -- recurrence bound ----------------------------------------------------

    def recurrence_ii(self, ideal_memory_latency: float) -> float:
        """Loop-carried recurrence bound on the initiation interval.

        For each loop-carried edge (u -> v, distance 1), the cycle through
        the intra-iteration longest path from v to u plus the transfer
        latency constrains II (standard modulo-scheduling RecMII with all
        dependence distances equal to 1).  Cached per plan — the DFG and
        transfer latencies are frozen; only the memory model's ideal latency
        is an outside input.
        """
        cached = self._recurrence_cache.get(ideal_memory_latency)
        if cached is None:
            cached = self._compute_recurrence(ideal_memory_latency)
            self._recurrence_cache[ideal_memory_latency] = cached
        return cached

    def _compute_recurrence(self, ideal_memory_latency: float) -> float:
        op_latency = [
            float(ideal_memory_latency) if n.kind == N_MEMORY
            else float(n.latency)
            for n in self.nodes
        ]
        best = 1.0
        for node in self.nodes:
            for operand in (node.src1, node.src2):
                if operand.kind != K_LOOP:
                    continue
                path = self._longest_path(node.node_id, operand.src_id,
                                          op_latency)
                if path is not None:
                    best = max(best, path + operand.edge.cycles)
        return best

    def _longest_path(self, src: int, dst: int,
                      op_latency: list[float]) -> float | None:
        """Longest same-iteration path latency from node src to node dst
        (inclusive of both ops), or None if unreachable."""
        if src > dst:
            return None
        # DP over program order: dist[n] = longest arrival at n's output.
        dist: dict[int, float] = {src: op_latency[src]}
        for node in self.nodes[src + 1:dst + 1]:
            best: float | None = None
            for operand in (node.src1, node.src2):
                if operand.kind == K_NODE and operand.src_id in dist:
                    arrival = dist[operand.src_id] + operand.edge.cycles
                    best = arrival if best is None else max(best, arrival)
            if best is not None:
                dist[node.node_id] = best + op_latency[node.node_id]
        return dist.get(dst)


def compile_plan(program: AcceleratorProgram,
                 interconnect: Interconnect) -> ExecutionPlan:
    """Compile (and memoize) the execution plan for a program.

    Plans are cached on the program keyed by the interconnect's *value*
    (type + config): two interconnects of the same topology and
    configuration produce identical latency models, so engines built over
    the same program share one plan.
    """
    key = (type(interconnect), interconnect.config)
    cache = program.plan_cache
    plan = cache.get(key)
    if plan is None:
        plan = ExecutionPlan(program, interconnect)
        cache[key] = plan
    return plan
