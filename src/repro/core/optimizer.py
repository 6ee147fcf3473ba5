"""Iterative runtime re-optimization (the paper's F3).

"MESA uses runtime information continuously gathered from performance
counters on the accelerator as inputs to iteratively optimize its spatial
architecture and perform reconfiguration."  Concretely, each round:

1. execute a profiling window on the current configuration, collecting the
   per-node latency counters and per-PC AMAT measurements;
2. write the measured latencies back into the LDFG's node weights (memory
   nodes pick up their true AMAT — the weight the first mapping could only
   guess);
3. re-run the mapping algorithm on the refreshed model; keep the new SDFG
   only if its *predicted* latency beats the measured one by more than the
   reconfiguration hysteresis, :data:`IMPROVEMENT_THRESHOLD`.

"Our goal is not to perfect the accelerator on the first configuration; we
opt instead to continuously iterate to close in on the optimum" (§2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import (
    AcceleratorConfig,
    DataflowEngine,
    ExecutionOptions,
    Interconnect,
    build_interconnect,
)
from ..isa import MachineState
from ..mem import MemoryHierarchy
from .configure import build_program
from .ldfg import Ldfg
from .mapping import InstructionMapper
from .sdfg import Sdfg
from ..accel.program import AcceleratorProgram, Operand, OperandKind

__all__ = ["OptimizationRound", "IterativeOptimizer", "IMPROVEMENT_THRESHOLD"]

#: Minimum fractional predicted improvement that justifies a
#: reconfiguration (hysteresis against thrash).
IMPROVEMENT_THRESHOLD = 0.03


@dataclass
class OptimizationRound:
    """Record of one profile → refine → remap round."""

    round_index: int
    measured_iteration_latency: float
    predicted_after_remap: float
    remapped: bool


class IterativeOptimizer:
    """Feedback loop between the engine's counters and the mapper."""

    def __init__(self, config: AcceleratorConfig,
                 interconnect: Interconnect | None = None) -> None:
        self.config = config
        self.interconnect = (interconnect if interconnect is not None
                             else build_interconnect(config))
        self.history: list[OptimizationRound] = []

    def optimize(self, ldfg: Ldfg, sdfg: Sdfg,
                 state_factory, hierarchy: MemoryHierarchy,
                 rounds: int = 2, profile_iterations: int = 16) -> Sdfg:
        """Run up to ``rounds`` refine/remap rounds; returns the best SDFG.

        Args:
            ldfg: the logical DFG (its node weights are refined in place).
            sdfg: the current mapping.
            state_factory: zero-argument callable producing a fresh
                architectural state at the loop entry (profiling executes
                real iterations, so it needs real inputs).
            hierarchy: the memory hierarchy used for profiling (its AMAT
                counters feed the refinement).
            rounds: maximum optimization rounds.
            profile_iterations: iterations measured per round.
        """
        self.history = []
        best = sdfg
        for round_index in range(rounds):
            program = build_program(best)
            measured = self._profile(program, state_factory, hierarchy,
                                     profile_iterations)
            self._refine_weights(ldfg, hierarchy, measured, program)
            mapper = InstructionMapper(self.config, self.interconnect)
            candidate = mapper.map(ldfg)
            improvement = (measured.iteration_latency
                           - candidate.predicted_latency)
            remap = (measured.iteration_latency > 0
                     and improvement / measured.iteration_latency
                     > IMPROVEMENT_THRESHOLD)
            self.history.append(OptimizationRound(
                round_index=round_index,
                measured_iteration_latency=measured.iteration_latency,
                predicted_after_remap=candidate.predicted_latency,
                remapped=remap,
            ))
            if not remap:
                break
            best = candidate
        return best

    def _profile(self, program: AcceleratorProgram, state_factory,
                 hierarchy: MemoryHierarchy, iterations: int):
        """Execute a measurement window on the current configuration (the
        refinement reads its iteration latency and counters, not its
        cycles)."""
        engine = DataflowEngine(program, hierarchy=hierarchy,
                                interconnect=self.interconnect)
        state: MachineState = state_factory()
        return engine.run(state, ExecutionOptions(max_iterations=iterations))

    def _refine_weights(self, ldfg: Ldfg, hierarchy: MemoryHierarchy,
                        run, program: AcceleratorProgram | None = None) -> None:
        """Fold measured latencies back into the LDFG's node weights.

        Memory nodes take their measured per-PC AMAT from the hierarchy —
        the weight the first mapping could only guess.  Every other node
        takes the engine's per-node latency counters: its measured
        completion offset minus the latest measured operand arrival is the
        node's observed operation latency (port waits and replays included),
        which corrects any mispredicted static latency before the remap.
        """
        for entry in ldfg.entries:
            if entry.eliminated:
                continue
            if entry.instruction.is_memory:
                amat = hierarchy.amat(entry.instruction.address)
                if amat > 0:
                    entry.op_latency = amat
        if program is None:
            return
        # Engine node ids are the densely renumbered non-eliminated LDFG
        # entries (build_program), in entry order.
        entry_by_engine_id: dict[int, object] = {}
        for ldfg_entry in ldfg.entries:
            if not ldfg_entry.eliminated:
                entry_by_engine_id[len(entry_by_engine_id)] = ldfg_entry
        counters = run.latency
        for node in program.nodes:
            entry = entry_by_engine_id.get(node.node_id)
            if entry is None or entry.instruction.is_memory:
                continue
            completion = counters.node_latency(node.node_id)
            if completion <= 0:
                continue
            arrival = max(self._operand_arrival(op, node.node_id, counters)
                          for op in (node.src1, node.src2))
            measured = completion - arrival
            if measured > 0:
                entry.op_latency = measured

    @staticmethod
    def _operand_arrival(operand: Operand, node_id: int, counters) -> float:
        """Measured mean arrival offset of one operand (iteration-relative)."""
        if operand.kind is OperandKind.NODE:
            return (counters.node_latency(operand.node_id)
                    + counters.edge_latency(operand.node_id, node_id))
        if operand.kind is OperandKind.LOOP_CARRIED:
            # The producer finished last iteration; only the transfer is
            # exposed.
            return counters.edge_latency(operand.node_id, node_id)
        # Live-in register or constant: latched at the PE, available at start.
        return 0.0
