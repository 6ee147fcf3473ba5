"""Tests for the loop-stream detector."""

import pytest

from repro.cpu import LoopStreamDetector, collect_trace
from repro.isa import assemble


def counted_loop(iters: int, body_nops: int = 2):
    nops = "\n".join("nop" for _ in range(body_nops))
    return collect_trace(assemble(
        f"""
        addi t0, zero, {iters}
        loop:
            {nops}
            addi t0, t0, -1
            bne t0, zero, loop
        """
    ))


class TestDetection:
    def test_hot_loop_detected(self):
        loops = LoopStreamDetector().scan(counted_loop(10))
        assert len(loops) == 1
        loop = loops[0]
        assert loop.body_instructions == 4  # 2 nops + addi + bne

    def test_cold_loop_not_detected(self):
        loops = LoopStreamDetector().scan(counted_loop(3))
        assert loops == []

    def test_trip_count_estimate(self):
        loops = LoopStreamDetector().scan(counted_loop(20))
        assert loops[0].expected_trip_count == pytest.approx(20)
        assert loops[0].visits == 1

    def test_multiple_visits_average_trip_count(self):
        trace = collect_trace(assemble(
            """
            addi s0, zero, 3
            outer:
                addi t0, zero, 10
                inner:
                    addi t0, t0, -1
                    bne t0, zero, inner
                addi s0, s0, -1
                bne s0, zero, outer
            """
        ))
        detector = LoopStreamDetector()
        loops = detector.scan(trace)
        inner = [l for l in loops if l.body_instructions == 2]
        assert len(inner) == 1
        assert inner[0].visits == 3
        assert inner[0].expected_trip_count == pytest.approx(10)

    def test_large_loop_reported(self):
        # The detector has no size limit: condition C1 is the one size
        # rule (tests/core/test_region.py).
        loops = LoopStreamDetector().scan(counted_loop(6, body_nops=600))
        assert [loop.body_instructions for loop in loops] == [602]

    def test_candidate_reported_once_per_hot_visit(self):
        trace = counted_loop(10)
        detector = LoopStreamDetector()
        reports = [c for e in trace if (c := detector.observe(e)) is not None]
        assert len(reports) == 1

    def test_hottest_loop_first(self):
        trace = collect_trace(assemble(
            """
            addi t0, zero, 50
            hot:
                addi t0, t0, -1
                bne t0, zero, hot
            addi t1, zero, 5
            warm:
                addi t1, t1, -1
                bne t1, zero, warm
            """
        ))
        loops = LoopStreamDetector().scan(trace)
        assert len(loops) == 2
        assert loops[0].total_iterations > loops[1].total_iterations

    def test_forward_branches_ignored(self):
        trace = collect_trace(assemble(
            """
            addi t0, zero, 1
            beq t0, t0, skip
            nop
            skip:
            nop
            """
        ))
        assert LoopStreamDetector().scan(trace) == []
