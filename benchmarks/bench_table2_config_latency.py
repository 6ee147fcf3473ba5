"""Table 2: configuration-latency comparison with related approaches.

Paper: "MESA's hardware configuration time is generally between 10^3 and
10^4 cycles, which places it in an interesting middle ground between
elaborate compiler-level approaches like DORA (milliseconds) and immediate
hardware approaches like DynaSpAM (nanoseconds)."
"""

from repro.baselines.dynaspam import CONFIG_CYCLES
from repro.harness import table2_config_latency

from _common import ITERATIONS, emit, run_once


def test_table2_config_latency(benchmark):
    result = run_once(benchmark,
                      lambda: table2_config_latency(iterations=ITERATIONS))
    emit("table2_config_latency", result.render())

    assert result.mesa_min_cycles > 0

    # The middle ground: above DynaSpAM's tens of cycles ...
    assert result.mesa_min_cycles > CONFIG_CYCLES

    # ... and squarely sub-microsecond-to-microsecond at 2 GHz, far below
    # DORA's milliseconds (10^6+ cycles).
    assert result.mesa_max_cycles < 100_000
    max_us = result.mesa_max_cycles / (result.frequency_ghz * 1000)
    assert max_us < 10.0

    # Warm re-encounters hit the configuration cache: the second execution
    # of every kernel pays only the bitstream load, strictly less than its
    # cold T1-T3 configuration, and the render gains a cached row.
    assert 0 < result.mesa_warm_min_cycles <= result.mesa_warm_max_cycles
    assert result.mesa_warm_max_cycles < result.mesa_max_cycles
    assert "MESA (cached)" in result.render()

    # Small hand-written kernels land short of the paper's largest regions;
    # the full 10^3-10^4 range needs a 64-512-instruction loop:
    from repro.accel import M_512
    from repro.core import InstructionMapper, build_ldfg, build_program
    from repro.core import configuration_cost
    from repro.accel import encode_bitstream
    from repro.isa import assemble

    lines = ["addi t0, zero, 1"]
    lines += [f"addi t{1 + i % 5}, t{i % 5}, 1" for i in range(254)]
    ldfg = build_ldfg(list(assemble("\n".join(lines)).instructions))
    mapper = InstructionMapper(M_512)
    sdfg = mapper.map(ldfg)
    words = encode_bitstream(build_program(sdfg))
    cost = configuration_cost(sdfg, len(words), mapper.stats)
    assert 1e3 <= cost.total <= 1e4, (
        f"a 255-instruction region costs {cost.total} cycles")
