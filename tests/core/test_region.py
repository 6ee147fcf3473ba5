"""Tests for code-region detection (conditions C1-C3, paper §4.1)."""

import dataclasses

import pytest

from repro.accel import M_128, M_512, AcceleratorConfig
from repro.core import CodeRegionDetector, LdfgError, build_ldfg
from repro.core.region import MIN_EXPECTED_ITERATIONS, MIN_WORK_FRACTION
from repro.cpu import LoopCandidate, LoopStreamDetector, collect_trace
from repro.isa import assemble


def hot_loop_program(iters=100, body="addi t1, t1, 3"):
    return assemble(
        f"""
        addi t0, zero, {iters}
        loop:
            {body}
            addi t0, t0, -1
            bne t0, zero, loop
        """
    )


def detect(program, config=M_128):
    trace = collect_trace(program)
    return CodeRegionDetector(config).detect(trace, program)


class TestAcceptance:
    def test_hot_compute_loop_accepted(self):
        decisions = detect(hot_loop_program(100))
        assert len(decisions) == 1
        assert decisions[0].accepted
        assert decisions[0].c1_size
        assert decisions[0].c2_control
        assert decisions[0].c3_mix

    def test_body_extracted(self):
        decisions = detect(hot_loop_program(100))
        assert len(decisions[0].body) == 3

    def test_configs_share_one_scan_of_a_trace(self, monkeypatch):
        # Fig. 11 detects each kernel's regions at M-128 and at M-512 from
        # one trace: the loop-stream scan runs once, and the candidates
        # both decisions share are frozen.
        scans = []
        scan = LoopStreamDetector.scan
        monkeypatch.setattr(LoopStreamDetector, "scan",
                            lambda self, trace: scans.append(trace)
                            or scan(self, trace))
        program = hot_loop_program(100)
        trace = collect_trace(program)
        decisions = [CodeRegionDetector(config).detect(trace, program)
                     for config in (M_128, M_512)]
        assert scans == [trace]
        assert decisions[0][0].loop is decisions[1][0].loop
        with pytest.raises(dataclasses.FrozenInstanceError):
            decisions[0][0].loop.visits += 1


class TestC1Size:
    def test_oversized_loop_rejected(self):
        config = AcceleratorConfig(rows=2, cols=2, lsu_entries=1)
        body = "\n".join(f"addi s{i % 4}, s{i % 4}, 1" for i in range(8))
        decisions = detect(hot_loop_program(100, body), config)
        assert decisions and not decisions[0].c1_size
        assert any("C1" in r for r in decisions[0].reasons)

    def test_loop_larger_than_every_grid_rejected_with_reason(self):
        # Longer than any grid holds: the detector still reports it, and
        # C1 says why it stays on the CPU.
        body = "\n".join("addi t1, t1, 1" for _ in range(4100))
        decisions = detect(hot_loop_program(6, body))
        assert len(decisions) == 1
        assert decisions[0].reasons[0] == (
            "C1: body of 4102 instructions exceeds backend capacity "
            f"{M_128.max_instructions}")


class TestC2Control:
    def test_inner_loop_rejected(self):
        program = assemble(
            """
            addi s0, zero, 60
            outer:
                addi t0, zero, 60
                inner:
                    addi t1, t1, 1
                    addi t0, t0, -1
                    bne t0, zero, inner
                addi s0, s0, -1
                bne s0, zero, outer
            """
        )
        decisions = detect(program)
        outer = [d for d in decisions if len(d.body) > 3]
        assert outer and not outer[0].c2_control
        assert any("inner backward branch" in r for r in outer[0].reasons)
        inner = [d for d in decisions if len(d.body) == 3]
        assert inner and inner[0].accepted, "the inner loop itself is fine"

    def test_forward_branch_inside_body_allowed(self):
        program = assemble(
            """
            addi t0, zero, 100
            loop:
                beq t1, zero, skip
                addi t2, t2, 1
            skip:
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        decisions = detect(program)
        assert decisions[0].c2_control


#: Loop bodies (before the closing ``bne t0, zero, loop``) and the reason
#: C2 gives for each, or None when the fabric can run it.
CONTROL_BODIES = {
    "clean loop": ("addi t1, t1, 1", None),
    "inner forward branch": ("beq t1, zero, skip\naddi t2, t2, 1\nskip:",
                             None),
    "system op": ("ecall", "system instruction ecall"),
    "jump": ("j next\nnext:", "jump jal zero, 4 inside loop body"),
    "inner backward branch": (
        "back:\naddi t1, t1, 1\nbne t1, zero, back",
        "inner backward branch at 0x1008 "
        "(nested loop must be unrolled ahead of time)"),
    "escaping forward branch": ("beq t1, zero, out",
                                "forward branch at 0x1004 escapes body"),
    "self-branch": ("self:\nbeq t1, t2, self",
                    "inner backward branch at 0x1004 "
                    "(nested loop must be unrolled ahead of time)"),
}


@pytest.mark.parametrize("name", CONTROL_BODIES)
def test_c2_and_ldfg_judge_control_alike(name):
    """C2 and the LDFG builder apply one control rule: each rejects a body
    exactly when the other does, for the same reason."""
    body, reason = CONTROL_BODIES[name]
    program = assemble(f"""
        addi t0, zero, 60
        loop:
            {body}
            bne t0, zero, loop
            nop
        out:
            nop
        """)
    start = program.labels["loop"]
    end = program.labels["out"] - 8
    decision = CodeRegionDetector(M_128).evaluate(
        LoopCandidate(start, end), program)
    instructions = [program.at(a) for a in range(start, end + 4, 4)]
    if reason is None:
        assert decision.c2_control
        build_ldfg(instructions)
    else:
        assert not decision.c2_control
        assert f"C2: {reason}" in decision.reasons
        with pytest.raises(LdfgError) as error:
            build_ldfg(instructions)
        assert str(error.value) == reason


def forward_branch_body(branches: int) -> str:
    """A multiply plus ``branches`` forward branches, which are control,
    not work."""
    skips = "\n".join(f"beq t2, zero, skip{i}\nskip{i}:"
                      for i in range(branches))
    return f"mul t1, t1, t1\n{skips}"


class TestC3Mix:
    def test_low_trip_count_rejected(self):
        trips = int(MIN_EXPECTED_ITERATIONS) - 1
        decisions = detect(hot_loop_program(trips))
        assert decisions[0].loop.expected_trip_count == trips
        assert not decisions[0].c3_mix
        assert any("amortize" in r for r in decisions[0].reasons)

    def test_trip_count_at_threshold_accepted(self):
        trips = int(MIN_EXPECTED_ITERATIONS)
        decisions = detect(hot_loop_program(trips))
        assert decisions[0].loop.expected_trip_count == trips
        assert decisions[0].c3_mix

    def test_work_fraction(self):
        # Work: the multiply and the counter update; the rest is control.
        # One forward branch puts the fraction at the threshold, two below.
        for branches in (1, 2):
            decision = detect(hot_loop_program(
                100, forward_branch_body(branches)))[0]
            fraction = 2 / len(decision.body)
            assert decision.c3_mix == (fraction >= MIN_WORK_FRACTION)
            assert any("work fraction" in r for r in decision.reasons) \
                == (fraction < MIN_WORK_FRACTION)

    def test_reasons_accumulate(self):
        decisions = detect(hot_loop_program(10))
        assert len(decisions[0].reasons) >= 1
