"""Loop-stream detector (LSD).

Paper §4.1 (C1): "Loop-stream detection is a technique used in modern
high-performance CPUs to detect loops ... based on the PC history and explicit
jumps or branches with negative offsets.  For MESA, the first condition (C1)
mandates that the loop detected must have fewer instructions than the maximum
supported by the accelerator."

The detector watches the dynamic stream at the decode stage for backward taken
branches.  A branch that closes the same ``[target, branch]`` address range
for ``min_iterations`` consecutive iterations becomes a *loop candidate*, and
the detector keeps estimating its trip count from completed visits — the input
MESA's condition C3 uses to judge whether acceleration will amortize.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import Trace, TraceEntry

__all__ = ["LoopCandidate", "LoopStreamDetector"]


@dataclass
class LoopCandidate:
    """A detected loop: the address range closed by a backward taken branch."""

    start_address: int
    end_address: int  # address of the loop-closing branch (inclusive)
    visits: int = 0  # times the loop was entered
    total_iterations: int = 0

    @property
    def body_instructions(self) -> int:
        """Static instruction count of the loop body."""
        return (self.end_address - self.start_address) // 4 + 1

    @property
    def expected_trip_count(self) -> float:
        """Estimated iterations per visit (C3's confidence heuristic)."""
        return self.total_iterations / self.visits if self.visits else 0.0

    @property
    def key(self) -> tuple[int, int]:
        return (self.start_address, self.end_address)


class LoopStreamDetector:
    """Detects hot loops from the dynamic instruction stream."""

    def __init__(self, max_body_instructions: int = 512,
                 min_iterations: int = 4) -> None:
        """
        Args:
            max_body_instructions: condition C1's size limit — loops larger
                than the accelerator's instruction capacity are not reported.
            min_iterations: consecutive iterations before a loop is *hot*.
        """
        if min_iterations < 2:
            raise ValueError("min_iterations must be >= 2")
        self.max_body_instructions = max_body_instructions
        self.min_iterations = min_iterations
        self._loops: dict[tuple[int, int], LoopCandidate] = {}
        #: Live back-edge streaks: key -> consecutive taken count.  A streak
        #: survives back-edges of loops *nested inside* its range (the PC
        #: never left the loop), but ends on any other control transfer.
        self._streaks: dict[tuple[int, int], int] = {}

    @staticmethod
    def _encloses(outer: tuple[int, int], inner: tuple[int, int]) -> bool:
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    def observe(self, entry: TraceEntry) -> LoopCandidate | None:
        """Feed one dynamic instruction; returns a candidate when one
        becomes hot (exactly once per visit, at the hotness threshold)."""
        instr = entry.instruction
        if not (instr.is_control and entry.taken and instr.imm < 0):
            return None
        target = instr.address + instr.imm
        key = (target, instr.address)

        # End streaks of loops this back-edge escapes (everything that does
        # not enclose it); keep enclosing loops alive.
        for other in list(self._streaks):
            if other != key and not self._encloses(other, key):
                self._finalize(other)
        self._streaks[key] = self._streaks.get(key, 0) + 1

        body = (instr.address - target) // 4 + 1
        if body > self.max_body_instructions:
            return None
        if self._streaks[key] == self.min_iterations:
            candidate = self._loops.get(key)
            if candidate is None:
                candidate = LoopCandidate(start_address=target,
                                          end_address=instr.address)
                self._loops[key] = candidate
            return candidate
        return None

    def _finalize(self, key: tuple[int, int]) -> None:
        """Account a completed visit of one loop, if it was hot."""
        streak = self._streaks.pop(key, 0)
        candidate = self._loops.get(key)
        if candidate is not None and streak >= self.min_iterations:
            candidate.visits += 1
            # The streak counts taken back-edges; iterations = streak + 1.
            candidate.total_iterations += streak + 1

    def finish(self) -> None:
        """Flush all live streaks (call after the stream ends)."""
        for key in list(self._streaks):
            self._finalize(key)

    def scan(self, trace: Trace) -> list[LoopCandidate]:
        """Run the detector over a full trace; returns hot loops found,
        ordered by total dynamic iterations (hottest first).

        Only the trace's back-edges are fed to :meth:`observe`, which
        ignores every other entry, so the result equals observing the
        whole stream."""
        for entry in trace.back_edges:
            self.observe(entry)
        self.finish()
        return sorted(self._loops.values(),
                      key=lambda c: c.total_iterations, reverse=True)

    @property
    def loops(self) -> list[LoopCandidate]:
        return list(self._loops.values())
