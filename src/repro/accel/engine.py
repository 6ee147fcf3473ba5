"""Event-driven dataflow execution engine for the spatial accelerator.

The engine runs an :class:`~repro.accel.program.AcceleratorProgram` both
*functionally* (producing the same architectural state as the CPU would) and
*temporally* (cycle-approximate latency per the paper's Eq. 1/2 with memory
port contention).  Per-node and per-edge latency counters — the hardware
counters of paper §5.2 — are collected during execution and fed back to
MESA's iterative optimizer.

Every run pipelines (§4.3: "loop pipelining can also be enabled if
supported by the hardware", and the modeled fabric supports it): a new
round of iterations is initiated every *II* cycles, where *II* is bounded
below by loop-carried recurrences (RecMII), memory-port bandwidth and the
load/store entries' occupancy.  With ``tile_factor`` > 1, that many copies
of the dataflow graph execute concurrently on disjoint iterations (Fig. 6),
sharing the memory ports.  A run of *N* iterations takes

    mean iteration latency + (ceil(N / tile_factor) - 1) * II

cycles.  Functional results do not depend on the timing (the paper only
tiles loops that are explicitly parallel), so the engine executes
iterations one after another for correctness, measures each one's latency,
and applies that formula for the cycle count.

Memory ordering is one rule, :mod:`repro.mem.lsq`: a load issues as soon
as its address is ready and reads the newest older store of its iteration
that overlaps it, and memory otherwise.  A load ready once that store has
completed takes the forwarding path.  A load ready before it reads memory
through a port: it is invalidated and replays when its port grant came
before the store completed (it read stale data), and is a plain memory
read when the grant came at or after the store's completion.  A replay
completes no earlier than :data:`REPLAY_PENALTY` cycles after the store.
A load that reads memory — a replayed one too — takes a port grant and a
cache access.
Each run builds its own pool of ``config.memory_ports`` ports, each of
which starts one access per cycle.

Two drive paths produce bit-identical results:

* the **batched** path (default) compiles the program's
  :class:`~repro.accel.plan.ExecutionPlan` into flat arrays and advances
  blocks of iterations as numpy vectors (:mod:`repro.accel.batch`).  A
  block is cut at its first store-to-load hazard, and an in-iteration
  store-to-load forward is executed by one interpreter step.  Event counts
  fold straight into the run's :class:`ActivityCounters`;
* the **interpreter** walks the configured nodes one iteration at a time,
  re-deriving routing, timing, store→load ordering, predication and
  live-outs.  It is the executable specification the golden tests compare
  against (``compiled=False`` pins it), and it runs every plan the batched
  capability analysis rejects, with the reason reported as the run's
  ``drive_reason``.

Both paths compute a node's value through the plan's per-node ``evaluate``
closure, which :func:`repro.isa.compile_operation` /
:func:`repro.isa.compile_branch` build at the fabric's width — the same
semantics the CPU's :class:`~repro.isa.Executor` runs, so offloaded results
equal CPU results by construction.  The batched path runs the lane forms
that sit beside those scalar forms in :data:`repro.isa.OPCODE_TABLE`, and
its recurrence clusters run a few opcodes as inline operators that a
re-run on the closures backs wherever they could differ.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ..isa import (
    ACCESS_FORMATS,
    MachineState,
    compile_load,
    compile_store,
)
from ..mem import MemoryHierarchy, MemoryPorts
from ..latency import OP_LATENCY, STORE_ISSUE
from ..mem.lsq import forwarding_store
from .batch import drive_batched
from .config import AcceleratorConfig
from .counters import ActivityCounters, LatencyCounters
from .interconnect import LOCAL_HOP_LATENCY, Interconnect, build_interconnect
from .plan import compile_plan
from .program import AcceleratorProgram, ConfiguredNode, Operand, OperandKind

__all__ = ["ExecutionOptions", "AcceleratorRun", "DataflowEngine",
           "REPLAY_PENALTY"]

#: Cycles to re-propagate a value after a load invalidation: a load issues
#: as soon as its address is ready (§4.2), and an older store to the same
#: bytes that completes later invalidates it.
REPLAY_PENALTY = 6


@dataclass(frozen=True)
class ExecutionOptions:
    """How the configured loop is driven: ``tile_factor`` copies of its
    dataflow graph, pipelined, for at most ``max_iterations`` iterations."""

    tile_factor: int = 1
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        if self.tile_factor < 1:
            raise ValueError("tile_factor must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class AcceleratorRun:
    """Result of executing a configured loop region on the fabric."""

    iterations: int
    cycles: float
    #: Mean per-iteration critical-path latency (no cross-iteration overlap).
    iteration_latency: float
    #: Initiation interval of the pipelined rounds: RecMII, port bandwidth
    #: or entry occupancy, whichever binds (at least one cycle).
    initiation_interval: float
    latency: LatencyCounters
    activity: ActivityCounters
    final_state: MachineState
    #: Which drive loop executed: "batched" or "interpreted".
    drive_path: str = "interpreted"
    #: Why the batched path was not (fully) used, when it wasn't: the
    #: capability analysis's rejection, or the first iteration the
    #: interpreter stepped for an in-iteration store-to-load forward.
    drive_reason: str = ""

    @property
    def cycles_per_iteration(self) -> float:
        return self.cycles / self.iterations if self.iterations else 0.0


class DataflowEngine:
    """Executes a configured program on the modeled fabric."""

    def __init__(self, program: AcceleratorProgram,
                 hierarchy: MemoryHierarchy | None = None,
                 interconnect: Interconnect | None = None,
                 compiled: bool = True) -> None:
        program.validate_placement()
        self.program = program
        self.config: AcceleratorConfig = program.config
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        self.interconnect = (interconnect if interconnect is not None
                             else build_interconnect(self.config))
        #: The compiled form of the program (shared across engines over the
        #: same program and interconnect value).
        self.plan = compile_plan(program, self.interconnect)
        self._compiled = compiled
        #: Per-row NoC ring channels (created on first use).
        self._noc_channels: dict[int, MemoryPorts] = {}

    # -- public API ------------------------------------------------------------

    def run(self, state: MachineState,
            options: ExecutionOptions | None = None) -> AcceleratorRun:
        """Execute the loop region starting from an architectural state.

        The ``state``'s memory is mutated in place (stores commit); register
        live-outs are written back on completion, as in the paper's
        control-return protocol (§5.1).
        """
        options = options if options is not None else ExecutionOptions()
        ports = MemoryPorts(self.config.memory_ports)
        # Each run starts a fresh timeline: clear NoC ring-channel state.
        self._noc_channels.clear()
        latency = LatencyCounters()
        activity = ActivityCounters()
        reg_env = {reg: state.read(reg) for reg in self.program.live_in}

        drive_path = "interpreted"
        drive_reason = ""
        batch_program = self.plan.batch_program if self._compiled else None
        if batch_program is not None and batch_program.capability:
            drive_path = "batched"
            step = functools.partial(
                self._run_iteration, self._memory_access(state.memory),
                reg_env, ports=ports, latency=latency, activity=activity)
            iterations, latency_total, drive_reason = drive_batched(
                batch_program, self.hierarchy, state, reg_env,
                self.config.memory_ports, latency, activity, options, step)
        else:
            if batch_program is not None:
                drive_reason = batch_program.capability.reason
            iterations, latency_total = self._drive_interpreted(
                state, reg_env, ports, latency, activity, options)

        # Both drives run at least one iteration (max_iterations >= 1).
        mean_latency = latency_total / iterations
        total_cycles, ii = self._total_cycles(iterations, mean_latency,
                                              options.tile_factor)
        return AcceleratorRun(
            iterations=iterations,
            cycles=total_cycles,
            iteration_latency=mean_latency,
            initiation_interval=ii,
            latency=latency,
            activity=activity,
            final_state=state,
            drive_path=drive_path,
            drive_reason=drive_reason,
        )

    # -- interpreter execution ---------------------------------------------------

    def _drive_interpreted(self, state, reg_env, ports,
                           latency: LatencyCounters,
                           activity: ActivityCounters,
                           options: ExecutionOptions):
        """Run the loop node-by-node (the executable specification);
        returns the iteration count and the sum of their latencies (each
        iteration starts where the previous one ended, the first at 0)."""
        access = self._memory_access(state.memory)
        prev_values: dict[int, int | float] = {}
        clock = 0.0
        iterations = 0
        exited = False
        while not exited and iterations < options.max_iterations:
            values, completion, loop_taken = self._run_iteration(
                access, reg_env, prev_values, iterations, clock,
                ports, latency, activity,
            )
            # The next iteration is measured from this one's end; the
            # overlap is the analytic II of _total_cycles.
            clock = max(completion.values(), default=clock)
            prev_values = values
            iterations += 1
            if self.program.loop_branch_id is None or not loop_taken:
                exited = True

        # Write live-out registers back to the architectural state.
        for register, node_id in self.program.live_out.items():
            if node_id in prev_values:
                state.write(register, prev_values[node_id])
        return iterations, clock

    # -- one iteration -----------------------------------------------------------

    def _memory_access(self, memory) -> dict:
        """Each memory node's load or store, compiled against ``memory``."""
        return {node.node_id: (compile_load if node.instruction.is_load
                               else compile_store)(memory,
                                                   node.instruction.opcode)
                for node in self.program.nodes if node.is_memory}

    def _run_iteration(self, access, reg_env, prev_values, iteration, start,
                       ports, latency, activity):
        """Execute all nodes of one iteration; returns (values, completion,
        loop-branch outcome).  ``access`` is :meth:`_memory_access` of the
        state's memory."""
        values: dict[int, int | float] = {}
        completion: dict[int, float] = {}
        branch_outcomes: dict[int, bool] = {}
        vector_grants: dict[int, float] = {}
        #: Stores issued so far this iteration: (address, size, done).
        stores_seen: list[tuple[int, int, float]] = []
        loop_taken = False

        for node, plan_node in zip(self.program.nodes, self.plan.nodes):
            a, a_arr = self._resolve(node, node.src1, values, completion,
                                     reg_env, prev_values, iteration, start,
                                     latency, activity)
            b, b_arr = self._resolve(node, node.src2, values, completion,
                                     reg_env, prev_values, iteration, start,
                                     latency, activity)
            ready = max(start, a_arr, b_arr)
            instr = node.instruction

            disabled = (node.guard is not None
                        and branch_outcomes.get(node.guard.branch_node_id, False))
            if disabled:
                # Predicated off: forward the old destination value (§5).
                fb_value, fb_arr = self._resolve(
                    node, node.guard.fallback, values, completion, reg_env,
                    prev_values, iteration, start, latency, activity)
                value: int | float = fb_value
                done = max(ready, fb_arr)
                activity.forwards += 1
                activity.control_events += 1
                if instr.is_store:
                    value = 0  # suppressed store produces nothing
            elif node.is_memory:
                value, done = self._run_memory(node, int(a), b, ready,
                                               access[node.node_id], ports,
                                               activity, iteration,
                                               vector_grants, stores_seen)
            elif instr.is_branch or instr.is_jump:
                taken = plan_node.evaluate(a, b)
                branch_outcomes[node.node_id] = taken
                if node.node_id == self.program.loop_branch_id:
                    loop_taken = taken
                value = int(taken)
                done = ready + OP_LATENCY[instr.op_class]
                activity.control_events += 1
            else:
                value = plan_node.evaluate(a, b)
                cycles = OP_LATENCY[instr.op_class]
                done = ready + cycles
                if instr.is_fp:
                    activity.fp_ops += 1
                else:
                    activity.int_ops += 1
                activity.pe_busy_cycles += cycles

            values[node.node_id] = value
            completion[node.node_id] = done
            latency.record_node(node.node_id, done - start)

        return values, completion, loop_taken

    def _resolve(self, node: ConfiguredNode, operand: Operand, values,
                 completion, reg_env, prev_values, iteration, start,
                 latency: LatencyCounters, activity: ActivityCounters):
        """Value and arrival cycle of one operand at ``node``'s position."""
        if operand.kind is OperandKind.NONE:
            return 0, start
        if operand.kind is OperandKind.REGISTER:
            # Loop-invariant live-in: latched at the PE during configuration.
            return reg_env.get(operand.register, 0), start
        if operand.kind is OperandKind.LOOP_CARRIED:
            if iteration == 0:
                return reg_env.get(operand.register, 0), start
            transfer = self._transfer(operand.node_id, node, start,
                                      latency, activity)
            # Iterations are measured back to back: the producer finished
            # before this iteration started, so only the transfer is exposed.
            return prev_values[operand.node_id], start + transfer
        # Same-iteration DFG edge.
        depart = completion[operand.node_id]
        transfer = self._transfer(operand.node_id, node, depart,
                                  latency, activity)
        return values[operand.node_id], depart + transfer

    def _transfer(self, src_id: int, dst: ConfiguredNode, depart: float,
                  latency: LatencyCounters, activity: ActivityCounters) -> float:
        """Transfer latency from the producer to ``dst``, departing at
        ``depart`` — NoC-routed packets additionally arbitrate for their
        source row's ring channel ("sending via the on-chip network takes
        longer depending on traffic and distance", §5.2)."""
        src = self.program.node(src_id)
        cycles = float(self.interconnect.latency(src.coord, dst.coord))
        manhattan = abs(src.coord[0] - dst.coord[0]) + abs(src.coord[1] - dst.coord[1])
        if manhattan * LOCAL_HOP_LATENCY <= cycles:
            activity.local_hops += manhattan  # took the neighbor links
        else:
            # Routed over the NoC: one packet per cycle per row ring.
            channel = self._noc_channel(src.coord[0])
            grant = channel.request(depart)
            wait = grant - depart
            cycles += wait
            # Hops measure router activity (energy per traversal); queue
            # time is tracked separately as noc_wait_cycles.
            activity.noc_hops += self.interconnect.router_hops(
                src.coord, dst.coord)
            activity.noc_wait_cycles += wait
        latency.record_edge(src_id, dst.node_id, cycles)
        return cycles

    def _noc_channel(self, row: int) -> MemoryPorts:
        channel = self._noc_channels.get(row)
        if channel is None:
            channel = MemoryPorts(num_ports=1)
            self._noc_channels[row] = channel
        return channel

    def _run_memory(self, node: ConfiguredNode, base: int, data, ready,
                    access, ports: MemoryPorts, activity: ActivityCounters,
                    iteration: int, vector_grants: dict[int, float],
                    stores_seen: list[tuple[int, int, float]]):
        """Execute a load/store entry: ordering, forwarding, ports."""
        instr = node.instruction
        address = (base + instr.imm) & ((1 << self.config.xlen) - 1)
        size = ACCESS_FORMATS[instr.opcode][0]
        if instr.is_load:
            activity.loads += 1
            store = forwarding_store(stores_seen, address, size)
            if store is None or ready < store[2]:
                # Memory is read: by a load no older store overlaps, or by
                # one that issued before such a store completed.
                if (node.vector_group is not None
                        and node.vector_group in vector_grants):
                    # Vectorized loads piggyback on their group's grant.
                    grant = max(ready, vector_grants[node.vector_group])
                else:
                    grant = ports.request(ready)
                    if node.vector_group is not None:
                        vector_grants[node.vector_group] = grant
                cycles = self.hierarchy.access(address, pc=instr.address)
                if store is not None and grant >= store[2]:
                    # Its port grant came once the store had completed, so
                    # the read saw the stored data: a plain memory read.
                    store = None
            value = access(address)
            if store is not None:
                store_done = store[2]
                fwd_done = max(ready, store_done) + STORE_ISSUE
                if ready < store_done:
                    # The load read memory before the store completed,
                    # read stale data, and is *invalidated* when the store
                    # broadcasts — "this invalidation forces the new value
                    # to propagate through the remainder of the DFG" (§4.2).
                    # Its grant came before the store completed, so its
                    # port is free again before the replay completes.
                    activity.load_replays += 1
                    return value, max(fwd_done,
                                      store_done + REPLAY_PENALTY)
                # The forwarding path delivers the data directly.
                activity.lsq_forwards += 1
                return value, fwd_done
            if node.prefetched and iteration > 0:
                # Issued an iteration early: only the L1 latency is exposed.
                cycles = min(cycles, self.hierarchy.ideal_latency)
            return value, grant + cycles
        # Store: commit the value to memory; timing is port grant + hand-off.
        activity.stores += 1
        grant = ports.request(ready)
        self.hierarchy.access(address, pc=instr.address)
        access(address, data)
        done = grant + STORE_ISSUE
        stores_seen.append((address, size, done))
        return 0, done

    # -- timing --------------------------------------------------------------------

    def _total_cycles(self, iterations: int, mean_latency: float,
                      tile: int) -> tuple[float, float]:
        """Total region cycles and the initiation interval of ``tile``
        pipelined copies of the loop."""
        port_count = self.config.memory_ports
        if math.isinf(port_count):
            bandwidth_ii = 0.0
            occupancy_ii = 0.0
        else:
            # Port requests per iteration: every store and ungrouped load
            # is one request; a vector group of loads shares a single grant.
            bandwidth_ii = tile * self.plan.memory_per_iter / port_count
            # Load/store entries hold a request for its *exposed* latency,
            # so outstanding-miss parallelism is bounded by the entry pool
            # (the MLP limit that makes miss-heavy kernels latency-bound
            # even with ample ports).  Prefetched loads were issued an
            # iteration early and only expose the L1 latency; a vector
            # group shares one transaction; stores drain from a buffer.
            occupancy = 0.0
            seen_groups: set[int] = set()
            for is_store, group, prefetched, pc in self.plan.occupancy_entries:
                if is_store:
                    occupancy += STORE_ISSUE
                    continue
                if group is not None:
                    if group in seen_groups:
                        continue
                    seen_groups.add(group)
                if prefetched:
                    occupancy += self.hierarchy.ideal_latency
                else:
                    occupancy += (self.hierarchy.amat(pc)
                                  or self.hierarchy.ideal_latency)
            occupancy_ii = tile * occupancy / self.config.lsu_entries
        ii = max(self._recurrence_ii(), bandwidth_ii, occupancy_ii, 1.0)
        rounds = math.ceil(iterations / tile)
        return mean_latency + (rounds - 1) * ii, ii

    def _recurrence_ii(self) -> float:
        """Loop-carried recurrence bound on the initiation interval (RecMII),
        computed once per plan and memory model."""
        return self.plan.recurrence_ii(self.hierarchy.ideal_latency)
