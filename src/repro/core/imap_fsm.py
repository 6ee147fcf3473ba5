"""The instruction-mapping (imap) state machine (paper Fig. 8).

"Shown in Figure 8 is a timing diagram of instruction mapping stages in the
imap (InstrMap) state machine.  We match the actions of each state with
tasks performed in lines of Algorithm 1.  In particular, we note that the
number of cycles for the reduction stage depends on the dimensions of the
candidate matrix, all other states are constant.  The imap FSM loops until
all instructions in the LDFG are mapped to the SDFG."

This module steps that FSM cycle by cycle: per instruction it passes through
FETCH (read the LDFG entry), CANDGEN (build C_i), FILTER (AND with
C_free ⊙ C_op), LATENCY (evaluate l(C) in parallel), a tree of pairwise
comparators as REDUCE, whose depth is ⌈log2(candidates)⌉, and WRITEBACK
(commit to the SDFG and free matrix).  The resulting cycle count is the
only imap time the configuration-cost model charges, and
:func:`ImapRun.timing_diagram` renders the Fig. 8-style view.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

__all__ = ["ImapState", "ImapRun", "ImapFsm"]

#: Columns of :meth:`ImapRun.timing_diagram`'s cycle axis; a longer
#: schedule is drawn at several cycles per column.
DIAGRAM_WIDTH = 72


class ImapState(enum.Enum):
    """FSM states, one per group of Algorithm 1 lines."""

    IDLE = "idle"
    FETCH = "fetch"          # read instruction + sources from the LDFG
    CANDGEN = "candgen"      # Algorithm 1 line 4: GenerateCandidateMatrix
    FILTER = "filter"        # line 5: C ⊙ C_free ⊙ C_op
    LATENCY = "latency"      # lines 10-12: per-position expected latency
    REDUCE = "reduce"        # lines 13-15: arg-min comparator tree
    WRITEBACK = "writeback"  # line 19: commit position, update F/F_free


#: Cycles of each constant state (REDUCE is computed per instruction).
_CONSTANT_CYCLES = {
    ImapState.FETCH: 1,
    ImapState.CANDGEN: 1,
    ImapState.FILTER: 1,
    ImapState.LATENCY: 1,
    ImapState.WRITEBACK: 1,
}

_SEQUENCE = (ImapState.FETCH, ImapState.CANDGEN, ImapState.FILTER,
             ImapState.LATENCY, ImapState.REDUCE, ImapState.WRITEBACK)


@dataclass
class ImapRun:
    """The FSM's cycle-by-cycle schedule for one mapping pass."""

    #: (instruction index, state, start cycle, cycles) per stage occupancy.
    schedule: list[tuple[int, ImapState, int, int]] = field(
        default_factory=list)
    total_cycles: int = 0
    instructions: int = 0

    def timing_diagram(self, max_instructions: int = 3) -> str:
        """A Fig. 8-style ASCII timing diagram of the first instructions."""
        shown = [row for row in self.schedule if row[0] < max_instructions]
        if not shown:
            return "(empty schedule)"
        span = max(start + cycles for _, _, start, cycles in shown)
        scale = max(1, math.ceil(span / DIAGRAM_WIDTH))
        letters = {
            ImapState.FETCH: "F", ImapState.CANDGEN: "C",
            ImapState.FILTER: "X", ImapState.LATENCY: "L",
            ImapState.REDUCE: "R", ImapState.WRITEBACK: "W",
        }
        lines = [f"cycle:  0{'.' * (min(span, DIAGRAM_WIDTH) - 2)}{span}"]
        for index in range(min(self.instructions, max_instructions)):
            row = [" "] * math.ceil(span / scale)
            for i, state, start, cycles in shown:
                if i != index:
                    continue
                for c in range(start, start + cycles):
                    row[c // scale] = letters[state]
            lines.append(f"imap i{index:<2} |{''.join(row)}|")
        lines.append("F=fetch C=candgen X=filter L=latency R=reduce "
                     "W=writeback")
        return "\n".join(lines)


class ImapFsm:
    """Cycle-stepped model of the hardware mapping pipeline."""

    @staticmethod
    def reduce_cycles(candidates: int) -> int:
        """Depth of the pairwise comparator tree over ``candidates``
        positions (at least one cycle)."""
        return max(1, math.ceil(math.log2(max(1, candidates))))

    def simulate(self, per_instruction_candidates: list[int]) -> ImapRun:
        """Step the FSM over a mapping pass.

        Args:
            per_instruction_candidates: candidate-matrix population for each
                compute instruction, in placement order (from
                :class:`~repro.core.mapping.MappingStats`).
        """
        run = ImapRun(instructions=len(per_instruction_candidates))
        cycle = 0
        for index, candidates in enumerate(per_instruction_candidates):
            for state in _SEQUENCE:
                cycles = (self.reduce_cycles(candidates)
                          if state is ImapState.REDUCE
                          else _CONSTANT_CYCLES[state])
                run.schedule.append((index, state, cycle, cycles))
                cycle += cycles
        run.total_cycles = cycle
        return run
