"""Code-region detection: conditions C1–C3 (paper §4.1).

A loop found by the loop-stream detector must pass all three checks before
MESA attempts translation:

* **C1 — valid loop detection**: the loop body fits within the accelerator's
  instruction capacity (PEs + load/store entries).  It is the one size
  rule: the loop-stream detector reports every hot loop, so an oversized
  one is rejected here with a reason;
* **C2 — control check**: no system instructions, no jumps, no inner
  backward branches, no forward branch out of the body, and no 64-bit
  operation on a 32-bit backend.  The control-structure part is
  :func:`control_violation`, which the LDFG builder applies too.  Every
  other operation class is supported somewhere on every backend: FP logic
  tiles every grid from its corner (:data:`repro.accel.config.FP_FRACTION`);
* **C3 — instruction mix**: enough compute/memory work relative to loop size
  and an expected trip count high enough to amortize configuration —
  "target loops typically need to run 50–100 iterations to offset the
  initial cost of configuration and offloading".

The detection logic is fixed hardware, so the C3 thresholds are module
constants, one value each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..accel import AcceleratorConfig
from ..cpu import LoopCandidate, Trace
from ..isa import Instruction, Program

__all__ = ["RegionDecision", "CodeRegionDetector", "control_violation",
           "MIN_EXPECTED_ITERATIONS", "MIN_WORK_FRACTION",
           "MIN_COMPUTE_INSTRUCTIONS"]

#: C3: minimum expected iterations per visit (amortization confidence).
MIN_EXPECTED_ITERATIONS = 50.0
#: C3: minimum fraction of compute+memory instructions in the body.
MIN_WORK_FRACTION = 0.5
#: C3: at least this many compute instructions (a pure copy loop gains
#: little from spatial execution).
MIN_COMPUTE_INSTRUCTIONS = 1


def control_violation(body: Sequence[Instruction], index: int) -> str | None:
    """C2's control-structure rule for ``body[index]``: why the fabric
    cannot run it, or None.

    A system instruction or a jump is never allowed.  A branch other than
    the body's last one must jump forward, and no further than the
    instruction after the body: it becomes a predication guard (§5).  A
    branch to itself or backwards is an inner loop.
    """
    instr = body[index]
    if instr.is_system:
        return f"system instruction {instr}"
    if instr.is_jump:
        return f"jump {instr} inside loop body"
    if not instr.is_branch:
        return None
    if instr.imm <= 0 and index != len(body) - 1:
        return (f"inner backward branch at {instr.address:#x} "
                "(nested loop must be unrolled ahead of time)")
    if instr.imm > 0 and instr.address + instr.imm > body[-1].address + 4:
        return f"forward branch at {instr.address:#x} escapes body"
    return None


@dataclass
class RegionDecision:
    """Outcome of evaluating one loop candidate against C1–C3."""

    loop: LoopCandidate
    body: list[Instruction] = field(default_factory=list)
    c1_size: bool = False
    c2_control: bool = False
    c3_mix: bool = False
    reasons: list[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.c1_size and self.c2_control and self.c3_mix

    def reject(self, reason: str) -> None:
        self.reasons.append(reason)


class CodeRegionDetector:
    """Evaluates loop candidates for acceleration viability."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    # -- full pipeline ------------------------------------------------------

    def detect(self, trace: Trace, program: Program) -> list[RegionDecision]:
        """Scan a dynamic trace for loops and evaluate each candidate.

        Returns decisions for every hot loop, accepted or not, hottest first.
        """
        return [self.evaluate(loop, program) for loop in trace.hot_loops]

    # -- per-candidate evaluation ----------------------------------------------

    def evaluate(self, loop: LoopCandidate, program: Program) -> RegionDecision:
        """Apply C1–C3 to one loop candidate."""
        decision = RegionDecision(loop=loop)
        body = self._extract_body(loop, program, decision)
        if body is None:
            return decision
        decision.body = body
        decision.c1_size = self._check_c1(loop, decision)
        decision.c2_control = self._check_c2(body, decision)
        decision.c3_mix = self._check_c3(loop, body, decision)
        return decision

    def _extract_body(self, loop: LoopCandidate, program: Program,
                      decision: RegionDecision) -> list[Instruction] | None:
        try:
            return [program.at(addr) for addr in
                    range(loop.start_address, loop.end_address + 4, 4)]
        except KeyError:
            decision.reject("loop body outside program image")
            return None

    def _check_c1(self, loop: LoopCandidate, decision: RegionDecision) -> bool:
        limit = self.config.max_instructions
        if loop.body_instructions > limit:
            decision.reject(
                f"C1: body of {loop.body_instructions} instructions exceeds "
                f"backend capacity {limit}"
            )
            return False
        return True

    def _check_c2(self, body: list[Instruction],
                  decision: RegionDecision) -> bool:
        ok = True
        for index, instr in enumerate(body):
            if instr.requires_rv64 and self.config.xlen == 32:
                reason = f"64-bit operation {instr} on a 32-bit accelerator"
            else:
                reason = control_violation(body, index)
            if reason is not None:
                decision.reject(f"C2: {reason}")
                ok = False
        return ok

    def _check_c3(self, loop: LoopCandidate, body: list[Instruction],
                  decision: RegionDecision) -> bool:
        ok = True
        work = sum(1 for i in body if i.is_memory or i.op_class.is_compute)
        compute = sum(1 for i in body if i.op_class.is_compute)
        if work / len(body) < MIN_WORK_FRACTION:
            decision.reject(
                f"C3: work fraction {work / len(body):.2f} below "
                f"{MIN_WORK_FRACTION}"
            )
            ok = False
        if compute < MIN_COMPUTE_INSTRUCTIONS:
            decision.reject("C3: loop performs no compute")
            ok = False
        if loop.expected_trip_count < MIN_EXPECTED_ITERATIONS:
            decision.reject(
                f"C3: expected {loop.expected_trip_count:.0f} iterations, "
                f"need {MIN_EXPECTED_ITERATIONS:.0f} to amortize"
            )
            ok = False
        return ok
