"""The trace's derived loop views equal a recount of its entries.

``Trace.pc_counts`` and ``Trace.back_edges`` replace rescans of the whole
stream (the loop-stream detector, the controller's warm-up estimate and
the harness's loop fraction read them), so each must equal a brute-force
pass over ``entries`` — on every kernel's trace and on a hand-built one.
"""

from collections import Counter

import pytest

from repro.cpu import LoopStreamDetector, Trace, TraceEntry, collect_trace
from repro.isa import Instruction, MachineState, Opcode, x
from repro.workloads import build_kernel, kernel_names


def recount(trace):
    counts = Counter(entry.pc for entry in trace.entries)
    back_edges = tuple(entry for entry in trace.entries
                       if entry.instruction.is_control and entry.taken
                       and entry.instruction.imm < 0)
    return counts, back_edges


def observe_all(trace):
    """The detector fed every entry, the way ``scan`` used to."""
    detector = LoopStreamDetector()
    for entry in trace.entries:
        detector.observe(entry)
    detector.finish()
    return sorted(detector.loops, key=lambda c: c.total_iterations,
                  reverse=True)


def loop_summary(loops):
    return [(loop.key, loop.visits, loop.total_iterations) for loop in loops]


def check_views(trace):
    counts, back_edges = recount(trace)
    assert trace.pc_counts == counts
    assert trace.back_edges == back_edges
    for start in sorted(counts)[::7]:
        end = start + 24
        assert trace.executions(start, end) == sum(
            1 for entry in trace.entries if start <= entry.pc <= end)
    assert loop_summary(LoopStreamDetector().scan(trace)) \
        == loop_summary(observe_all(trace))


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_trace_views_equal_a_recount(name):
    kernel = build_kernel(name, iterations=64)
    trace = collect_trace(kernel.program, kernel.state_factory())
    check_views(trace)
    assert trace.back_edges, "every kernel loops"


def test_hand_built_trace_gets_the_same_views():
    loop = [Instruction(0x100, Opcode.ADDI, rd=x(5), rs1=x(5), imm=-1),
            Instruction(0x104, Opcode.LW, rd=x(6), rs1=x(10)),
            Instruction(0x108, Opcode.BNE, rs1=x(5), rs2=x(0), imm=-8)]
    entries = []
    for trip in range(6):
        for instr in loop:
            taken = (trip < 5) if instr.is_control else None
            address = 0x2000 if instr.is_memory else None
            entries.append(TraceEntry(len(entries), instr, address, taken))
    entries.append(TraceEntry(len(entries),
                              Instruction(0x10C, Opcode.JAL, rd=x(0),
                                          imm=-0x10C), taken=True))
    trace = Trace(tuple(entries), MachineState())
    check_views(trace)
    assert trace.pc_counts[0x104] == 6
    assert [entry.pc for entry in trace.back_edges] == [0x108] * 5 + [0x10C]
    assert trace.executions(0x100, 0x108) == 18
