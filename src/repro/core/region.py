"""Code-region detection: conditions C1–C3 (paper §4.1).

A loop found by the loop-stream detector must pass all three checks before
MESA attempts translation:

* **C1 — valid loop detection**: the loop body fits within the accelerator's
  instruction capacity (PEs + load/store entries);
* **C2 — control check**: no system instructions, no jumps, no inner
  backward branches, and no 64-bit operation on a 32-bit backend.  Every
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

from ..accel import AcceleratorConfig
from ..cpu import LoopCandidate, LoopStreamDetector, Trace
from ..isa import Instruction, Program

__all__ = ["RegionDecision", "CodeRegionDetector",
           "MIN_EXPECTED_ITERATIONS", "MIN_WORK_FRACTION",
           "MIN_COMPUTE_INSTRUCTIONS"]

#: C3: minimum expected iterations per visit (amortization confidence).
MIN_EXPECTED_ITERATIONS = 50.0
#: C3: minimum fraction of compute+memory instructions in the body.
MIN_WORK_FRACTION = 0.5
#: C3: at least this many compute instructions (a pure copy loop gains
#: little from spatial execution).
MIN_COMPUTE_INSTRUCTIONS = 1


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
        # The LSD itself uses a generous limit so that oversized loops are
        # still *reported* — condition C1 then rejects them with a reason.
        detector = LoopStreamDetector(
            max_body_instructions=max(4096, self.config.max_instructions))
        loops = detector.scan(trace)
        return [self.evaluate(loop, program) for loop in loops]

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
        last_index = len(body) - 1
        for index, instr in enumerate(body):
            if instr.requires_rv64 and self.config.xlen == 32:
                decision.reject(
                    f"C2: 64-bit operation {instr} on a 32-bit accelerator"
                )
                ok = False
            elif instr.is_system:
                decision.reject(f"C2: system instruction {instr}")
                ok = False
            elif instr.is_jump:
                decision.reject(f"C2: jump {instr} inside loop body")
                ok = False
            elif instr.is_branch and instr.imm < 0 and index != last_index:
                decision.reject(
                    f"C2: inner backward branch at {instr.address:#x} "
                    "(nested loop must be unrolled ahead of time)"
                )
                ok = False
            elif instr.is_branch and instr.imm > 0 and (
                    instr.address + instr.imm > body[-1].address + 4):
                decision.reject(
                    f"C2: forward branch at {instr.address:#x} escapes body"
                )
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
