#!/usr/bin/env python3
"""Quickstart: transparently accelerate a loop with MESA.

Assembles a small RISC-V loop, runs it through the full MESA pipeline
(detection → translation → mapping → configuration → offload), and prints
what happened: the weighted-DFG latency table (the paper's Fig. 2 view),
the cycle breakdown, and the speedup over a single out-of-order core.

Run:  python examples/quickstart.py
"""

from repro import M_128, MesaController, assemble
from repro.accel import build_interconnect
from repro.isa import MachineState, x
from repro.mem import Memory

# A saxpy-like loop: y[i] = a*x[i] + y[i] over 300 elements.
PROGRAM = assemble("""
    addi t0, zero, 300        # trip count
    lui  a0, 16               # x[] at 0x10000
    lui  a1, 48               # y[] at 0x30000
    loop:
        flw    ft0, 0(a0)
        flw    ft1, 0(a1)
        fmul.s ft2, ft0, fa0  # a * x[i]
        fadd.s ft3, ft2, ft1
        fsw    ft3, 0(a1)
        addi   a0, a0, 4
        addi   a1, a1, 4
        addi   t0, t0, -1
        bne    t0, zero, loop
""")


def make_state() -> MachineState:
    state = MachineState(pc=PROGRAM.base_address)
    memory = Memory()
    memory.store_floats(0x10000, [float(i) for i in range(300)])
    memory.store_floats(0x30000, [1.0] * 300)
    state.memory = memory
    from repro.isa import f

    state.write(f(10), 2.0)  # fa0 = a
    return state


def main() -> None:
    controller = MesaController(M_128)
    result = controller.execute(PROGRAM, make_state, parallelizable=True)

    print("=== MESA quickstart: saxpy ===\n")
    print(f"accelerated: {result.accelerated} ({result.reason})")
    print(f"loop region: {result.decision.loop.start_address:#x}.."
          f"{result.decision.loop.end_address:#x}, "
          f"{result.decision.loop.body_instructions} instructions\n")

    # The weighted-DFG performance model (the paper's Fig. 2 latency table).
    interconnect = build_interconnect(M_128)
    model = result.sdfg.to_dataflow_graph(interconnect)
    print("Spatial DFG latency table (op latency, completion L_i, *critical):")
    print(model.latency_table())

    print(f"\nloop plan: {result.loop_plan.reason}")
    print(f"configuration: {result.config_cost.total} cycles "
          f"({result.config_cost.microseconds(2.0):.3f} us at 2 GHz), "
          f"{result.bitstream_words} bitstream words")

    b = result.breakdown
    print("\ncycle breakdown:")
    print(f"  CPU (pre-loop + warm-up + post-loop): {b.cpu_cycles:10.0f}")
    print(f"  offload (drain + state transfer):     {b.offload_cycles:10.0f}")
    print(f"  accelerator ({result.accel_iterations} iterations):"
          f"          {b.accel_cycles:10.0f}")
    print(f"  return to CPU:                        {b.return_cycles:10.0f}")
    print(f"  total:                                {result.total_cycles:10.0f}")
    print(f"\nsingle-core OoO baseline: {result.cpu_only.cycles} cycles")
    print(f"speedup: {result.speedup_vs_single_core:.2f}x")

    # Verify the result functionally: y[i] must equal 2*i + 1.
    memory = result.final_state.memory
    assert all(memory.load_float(0x30000 + 4 * i) == 2.0 * i + 1.0
               for i in range(300)), "wrong result!"
    print("\nfunctional check: all 300 outputs correct (y[i] = 2*x[i] + 1)")


if __name__ == "__main__":
    main()
