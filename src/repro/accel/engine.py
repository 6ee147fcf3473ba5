"""Event-driven dataflow execution engine for the spatial accelerator.

The engine runs an :class:`~repro.accel.program.AcceleratorProgram` both
*functionally* (producing the same architectural state as the CPU would) and
*temporally* (cycle-approximate latency per the paper's Eq. 1/2 with memory
port contention).  Per-node and per-edge latency counters — the hardware
counters of paper §5.2 — are collected during execution and fed back to
MESA's iterative optimizer.

Execution modes mirror the paper's loop-level optimizations (§4.3):

* **barrier** (default): iterations execute back-to-back; iteration *i+1*
  starts when every node of iteration *i* has completed;
* **pipelined**: iterations are initiated every *II* cycles, where *II* is
  bounded below by loop-carried recurrences and memory-port bandwidth;
* **tiled**: ``tile_factor`` copies of the dataflow graph execute
  concurrently on disjoint iterations (Fig. 6), sharing the memory ports.

Functional results are mode-independent (the paper only tiles loops that are
explicitly parallel), so the engine always executes iterations sequentially
for correctness and applies the mode's timing model for cycle counts.

Two drive paths produce bit-identical results:

* the **batched** path (default) compiles the program's
  :class:`~repro.accel.plan.ExecutionPlan` into flat arrays and advances
  blocks of iterations as numpy vectors (:mod:`repro.accel.batch`).  A
  block is cut at its first store-to-load hazard, and an in-iteration
  store-to-load forward is executed by one interpreter step;
* the **interpreter** walks the configured nodes one iteration at a time,
  re-deriving routing, timing, LSQ behaviour, predication and live-outs.
  It is the executable specification the golden tests compare against
  (``compiled=False`` pins it), and it runs every plan the batched
  capability analysis rejects, with the reason reported as the run's
  ``drive_reason``.

Both paths compute a node's value through the plan's per-node ``evaluate``
closure, which :func:`repro.isa.compile_operation` /
:func:`repro.isa.compile_branch` build at the fabric's width — the same
semantics the CPU's :class:`~repro.isa.Executor` runs, so offloaded results
equal CPU results by construction.  The batched path's numpy vector tables
are the one independent implementation, checked against the interpreter.
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
from ..mem import (
    AccessKind,
    LoadOutcome,
    LoadStoreQueue,
    MemoryHierarchy,
    MemoryPorts,
)
from .batch import drive_batched
from .config import AcceleratorConfig
from .counters import ActivityCounters, LatencyCounters
from .interconnect import Interconnect, build_interconnect
from .plan import compile_plan
from .program import AcceleratorProgram, ConfiguredNode, Operand, OperandKind

__all__ = ["ExecutionOptions", "AcceleratorRun", "DataflowEngine"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How the configured loop is driven."""

    pipelined: bool = False
    tile_factor: int = 1
    max_iterations: int = 1_000_000
    #: Ports model; None uses the config's port count.  Use
    #: :meth:`repro.mem.MemoryPorts.ideal` for the Fig. 15 ideal-memory case.
    ports: MemoryPorts | None = None
    #: Loads issue as soon as their address is ready, even past older
    #: stores with unresolved addresses (§4.2: "individual loads can be
    #: performed out-of-order as soon as their addresses are generated").
    #: A later-matching store invalidates the load and the new value must
    #: re-propagate — modeled as a replay penalty on the load's completion.
    speculative_loads: bool = True
    #: Cycles to re-propagate a value after a load invalidation.
    replay_penalty: int = 6

    def __post_init__(self) -> None:
        if self.tile_factor < 1:
            raise ValueError("tile_factor must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.replay_penalty < 0:
            raise ValueError("replay_penalty must be >= 0")


@dataclass
class AcceleratorRun:
    """Result of executing a configured loop region on the fabric."""

    iterations: int
    cycles: float
    #: Mean per-iteration critical-path latency (no cross-iteration overlap).
    iteration_latency: float
    #: Effective initiation interval under the selected execution mode.
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
        ports = (options.ports if options.ports is not None
                 else MemoryPorts(self.config.memory_ports))
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
                reg_env, ports=ports,
                latency=latency, activity=activity, options=options)
            iterations, iteration_latencies, drive_reason = drive_batched(
                batch_program, self.hierarchy, state, reg_env, ports,
                latency, activity, options, step)
        else:
            if batch_program is not None:
                drive_reason = batch_program.capability.reason
            iterations, iteration_latencies = self._drive_interpreted(
                state, reg_env, ports, latency, activity, options)

        mean_latency = (sum(iteration_latencies) / len(iteration_latencies)
                        if iteration_latencies else 0.0)
        total_cycles, ii = self._total_cycles(
            iterations, iteration_latencies, mean_latency, options, ports)
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
        """Run the loop node-by-node (the executable specification)."""
        access = self._memory_access(state.memory)
        prev_values: dict[int, int | float] = {}
        iteration_latencies: list[float] = []
        clock = 0.0
        iterations = 0
        exited = False
        while not exited and iterations < options.max_iterations:
            values, completion, loop_taken = self._run_iteration(
                access, reg_env, prev_values, iterations, clock,
                ports, latency, activity, options,
            )
            iteration_end = max(completion.values(), default=clock)
            iteration_latencies.append(iteration_end - clock)
            clock = iteration_end  # barrier between iterations
            prev_values = values
            iterations += 1
            if self.program.loop_branch_id is None or not loop_taken:
                exited = True

        # Write live-out registers back to the architectural state.
        for register, node_id in self.program.live_out.items():
            if node_id in prev_values:
                state.write(register, prev_values[node_id])
        return iterations, iteration_latencies

    # -- one iteration -----------------------------------------------------------

    def _memory_access(self, memory) -> dict:
        """Each memory node's load or store, compiled against ``memory``."""
        return {node.node_id: (compile_load if node.instruction.is_load
                               else compile_store)(memory,
                                                   node.instruction.opcode)
                for node in self.program.nodes if node.is_memory}

    def _run_iteration(self, access, reg_env, prev_values, iteration, start,
                       ports, latency, activity, options: ExecutionOptions):
        """Execute all nodes of one iteration; returns (values, completion,
        loop-branch outcome).  ``access`` is :meth:`_memory_access` of the
        state's memory."""
        values: dict[int, int | float] = {}
        completion: dict[int, float] = {}
        branch_outcomes: dict[int, bool] = {}
        lsq = LoadStoreQueue(capacity=max(len(self.program), 1))
        vector_grants: dict[int, float] = {}
        #: Stores seen so far this iteration: (node id, addr, size, done).
        stores_seen: list[tuple[int, int, int, float]] = []
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
                value, done = self._run_memory(node, int(a), b, ready, start,
                                               access[node.node_id], lsq,
                                               ports, activity,
                                               iteration, vector_grants,
                                               completion, stores_seen,
                                               options)
            elif instr.is_branch or instr.is_jump:
                taken = plan_node.evaluate(a, b)
                branch_outcomes[node.node_id] = taken
                if node.node_id == self.program.loop_branch_id:
                    loop_taken = taken
                value = int(taken)
                done = ready + self.config.latencies.for_instruction(instr)
                activity.control_events += 1
            else:
                value = plan_node.evaluate(a, b)
                done = ready + self.config.latencies.for_instruction(instr)
                if instr.is_fp:
                    activity.fp_ops += 1
                else:
                    activity.int_ops += 1
                activity.pe_busy_cycles += self.config.latencies.for_instruction(instr)

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
            # Barrier execution: the producer finished before this iteration
            # started, so only the transfer beyond the barrier is exposed.
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
        if manhattan * self.config.local_hop_latency <= cycles:
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

    def _run_memory(self, node: ConfiguredNode, base: int, data, ready, start,
                    access, lsq: LoadStoreQueue,
                    ports: MemoryPorts, activity: ActivityCounters,
                    iteration: int, vector_grants: dict[int, float],
                    completion: dict[int, float],
                    stores_seen: list[tuple[int, int, int, float]],
                    options: ExecutionOptions):
        """Execute a load/store entry: disambiguation, forwarding, ports."""
        instr = node.instruction
        address = (base + instr.imm) & ((1 << self.config.xlen) - 1)
        size = ACCESS_FORMATS[instr.opcode][0]
        if instr.is_load:
            lsq.push(node.node_id, AccessKind.LOAD, pc=instr.address, size=size)
            outcome, store = lsq.resolve_load(node.node_id, address)
            activity.loads += 1
            if outcome is LoadOutcome.FORWARDED:
                value = access(address)
                store_done = completion.get(store.seq, ready)
                fwd_done = (max(ready, store_done)
                            + self.config.latencies.store_issue)
                if options.speculative_loads and ready < store_done:
                    # The load issued before the store resolved, already
                    # read stale data, and is *invalidated* when the store
                    # broadcasts — "this invalidation forces the new value
                    # to propagate through the remainder of the DFG" (§4.2).
                    activity.load_replays += 1
                    return value, max(fwd_done,
                                      store_done + options.replay_penalty)
                # The forwarding path delivers the data directly.
                activity.lsq_forwards += 1
                return value, fwd_done
            if not options.speculative_loads:
                # Conservative ordering: wait for every older store's
                # address to resolve before issuing.
                for _, _, _, store_done in stores_seen:
                    ready = max(ready, store_done)
            # Vectorized loads piggyback on their group's port grant.
            if (node.vector_group is not None
                    and node.vector_group in vector_grants):
                grant = max(ready, vector_grants[node.vector_group])
            else:
                grant = ports.request(ready)
                if node.vector_group is not None:
                    vector_grants[node.vector_group] = grant
            cycles = self.hierarchy.access(address, pc=instr.address)
            if node.prefetched and iteration > 0:
                # Issued an iteration early: only the L1 latency is exposed.
                cycles = min(cycles, self.hierarchy.ideal_latency)
            value = access(address)
            done = grant + cycles
            if options.speculative_loads:
                # §4.2 invalidation: an older store whose address resolved
                # *after* this load issued and overlaps it forces the new
                # value to re-propagate through the DFG.
                for _, s_addr, s_size, s_done in stores_seen:
                    overlaps = (s_addr < address + size
                                and address < s_addr + s_size)
                    if overlaps and s_done > grant:
                        activity.load_replays += 1
                        done = max(done, s_done + options.replay_penalty)
                        break
            return value, done
        # Store: commit the value to memory; timing is port grant + hand-off.
        lsq.push(node.node_id, AccessKind.STORE, pc=instr.address, size=size)
        lsq.resolve_store(node.node_id, address)
        activity.stores += 1
        grant = ports.request(ready)
        self.hierarchy.access(address, is_write=True, pc=instr.address)
        access(address, data)
        done = grant + self.config.latencies.store_issue
        stores_seen.append((node.node_id, address, size, done))
        return 0, done

    # -- mode timing ---------------------------------------------------------------

    def _total_cycles(self, iterations, iteration_latencies, mean_latency,
                      options: ExecutionOptions, ports: MemoryPorts):
        """Total region cycles under the selected execution mode."""
        if iterations == 0:
            return 0.0, 0.0
        barrier_total = float(sum(iteration_latencies))
        # Port requests per iteration: every store and ungrouped load is one
        # request; a vector group of loads shares a single grant.
        memory_per_iter = self.plan.memory_per_iter
        port_count = math.inf if ports.unlimited else ports.num_ports
        issue = ports.issue_interval

        if not options.pipelined and options.tile_factor == 1:
            return barrier_total, mean_latency

        recurrence = self._recurrence_ii()
        tile = options.tile_factor
        rounds = math.ceil(iterations / tile)
        if port_count is math.inf or port_count == float("inf"):
            bandwidth_ii = 0.0
            occupancy_ii = 0.0
        else:
            bandwidth_ii = tile * memory_per_iter * issue / port_count
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
                    occupancy += self.config.latencies.store_issue
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

        if options.pipelined:
            ii = max(recurrence, bandwidth_ii, occupancy_ii, 1.0)
            total = mean_latency + max(0, rounds - 1) * ii
        else:
            round_latency = max(mean_latency, bandwidth_ii, occupancy_ii)
            ii = round_latency
            total = rounds * round_latency
        return total, ii

    def _recurrence_ii(self) -> float:
        """Loop-carried recurrence bound on the initiation interval (RecMII),
        computed once per plan and memory model."""
        return self.plan.recurrence_ii(self.hierarchy.ideal_latency)
