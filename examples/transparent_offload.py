#!/usr/bin/env python3
"""Transparent offload of a Rodinia kernel, end to end.

Walks the hotspot stencil through every stage MESA performs in hardware and
shows the intermediate artifacts: the region-detection decision (C1-C3),
the logical DFG with renamed sources, the spatial placement as an ASCII map
of the PE array, the configuration bitstream, and the measured execution
with its per-node latency counters.

Run:  python examples/transparent_offload.py
"""

from repro import M_128, MesaController
from repro.accel import OperandKind, build_interconnect
from repro.isa import Executor
from repro.workloads import build_kernel


def main() -> None:
    kernel = build_kernel("hotspot", iterations=256)
    print(f"=== kernel: {kernel.name} — {kernel.description} ===")
    print(f"{len(kernel.program)} static instructions, "
          f"{kernel.iterations} iterations, "
          f"parallelizable={kernel.parallelizable}\n")

    controller = MesaController(M_128)
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=kernel.parallelizable)

    decision = result.decision
    print("F1 — region detection:")
    print(f"  C1 size ok:    {decision.c1_size}")
    print(f"  C2 control ok: {decision.c2_control}")
    print(f"  C3 mix ok:     {decision.c3_mix} "
          f"(expected {decision.loop.expected_trip_count:.0f} iterations)\n")

    print("T1 — logical DFG (rename table view):")
    for entry in result.sdfg.ldfg.entries[:8]:
        def describe(ref):
            if ref.kind is OperandKind.NODE:
                return f"i{ref.node_id}"
            if ref.kind is OperandKind.LOOP_CARRIED:
                return f"i{ref.node_id}@prev({ref.register})"
            if ref.kind is OperandKind.REGISTER:
                return f"live-in({ref.register})"
            return "-"
        print(f"  i{entry.node_id:<3} {str(entry.instruction):<28} "
              f"s1={describe(entry.s1):<18} s2={describe(entry.s2)}")
    remaining = len(result.sdfg.ldfg) - 8
    if remaining > 0:
        print(f"  ... and {remaining} more\n")

    print("T2 — spatial placement (node ids on the 16x8 PE array; "
          "[..] = LSU entries at the edge):")
    print(result.sdfg.render_placement())

    interconnect = build_interconnect(M_128)
    critical = result.sdfg.critical_path(interconnect)
    print(f"\ncritical path: {' -> '.join(f'i{n}' for n in critical)}")
    print(f"predicted iteration latency: "
          f"{result.sdfg.predicted_latency:.1f} cycles")

    print(f"\nT3 — configuration: {result.bitstream_words} words, "
          f"{result.config_cost.total} cycles "
          f"(LDFG {result.config_cost.ldfg_build_cycles} + "
          f"imap {result.config_cost.mapping_cycles} + "
          f"write {result.config_cost.write_cycles})")

    # The Fig. 8 view: the imap FSM's per-stage timing for the first
    # instructions (REDUCE depth follows the candidate-matrix size).
    from repro.core import ImapFsm, InstructionMapper

    mapper = InstructionMapper(M_128)
    mapper.map(result.sdfg.ldfg)
    fsm_run = ImapFsm().simulate(mapper.stats.per_instruction_candidates)
    print("\nimap FSM timing diagram (Fig. 8 view):")
    print(fsm_run.timing_diagram(max_instructions=3))

    run = result.runs[0]
    print(f"\nexecution: {run.iterations} iterations on the fabric, "
          f"measured iteration latency {run.iteration_latency:.1f} cycles, "
          f"II {run.initiation_interval:.2f}")
    print(f"activity: {run.activity.int_ops} int ops, "
          f"{run.activity.fp_ops} FP ops, {run.activity.loads} loads, "
          f"{run.activity.stores} stores, {run.activity.noc_hops} NoC hops")

    print(f"\nspeedup vs single core: "
          f"{result.speedup_vs_single_core:.2f}x")

    # Cross-check against the pure ISA reference model.
    reference = kernel.fresh_state()
    Executor(kernel.program, reference).run(max_steps=1_000_000)
    assert kernel.verify(result.final_state), "accelerated result wrong!"
    assert kernel.verify(reference), "reference result wrong!"
    print("functional check: accelerated result matches the ISA reference")


if __name__ == "__main__":
    main()
