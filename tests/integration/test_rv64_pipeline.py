"""Integration: an RV64I loop offloaded to a 64-bit backend."""

import pytest

from repro.accel import AcceleratorConfig
from repro.core import MesaController
from repro.isa import MachineState, assemble, run, x
from repro.mem import Memory

PROGRAM = assemble(
    """
    addi t0, zero, 150
    lui  a0, 16
    loop:
        ld   t1, 0(a0)          # 64-bit load
        addi t1, t1, 1
        addw t2, t1, t0         # W-form op
        sd   t1, 0(a0)          # 64-bit store
        addi a0, a0, 8
        addi t0, t0, -1
        bne  t0, zero, loop
    """
)

M64BIT = AcceleratorConfig(name="M-128-rv64", rows=16, cols=8,
                           lsu_entries=32, memory_ports=8, xlen=64)


def make_state() -> MachineState:
    state = MachineState(pc=PROGRAM.base_address, xlen=64)
    memory = Memory()
    for i in range(160):
        memory.store(0x10000 + 8 * i, 8, (1 << 40) + i)
    state.memory = memory
    return state


class TestRv64Offload:
    def test_64bit_backend_accelerates(self):
        controller = MesaController(M64BIT)
        result = controller.execute(PROGRAM, make_state, parallelizable=True)
        assert result.accelerated, result.reason

    def test_matches_reference(self):
        controller = MesaController(M64BIT)
        result = controller.execute(PROGRAM, make_state, parallelizable=True)
        reference = make_state()
        run(PROGRAM, reference, max_steps=100_000)
        for i in range(160):
            assert (result.final_state.memory.load(0x10000 + 8 * i, 8)
                    == reference.memory.load(0x10000 + 8 * i, 8)), i
        assert (result.final_state.read(x(7)) == reference.read(x(7)))

    def test_32bit_backend_rejects(self):
        config32 = AcceleratorConfig(rows=16, cols=8, xlen=32)
        controller = MesaController(config32)
        result = controller.execute(PROGRAM, make_state, parallelizable=True)
        assert not result.accelerated
        assert "64-bit" in result.reason
        # ... but still computes the right answer on the CPU.
        reference = make_state()
        run(PROGRAM, reference, max_steps=100_000)
        assert (result.final_state.memory.load(0x10000, 8)
                == reference.memory.load(0x10000, 8))


#: An in-iteration store and reload of the same doubleword: the §4.2
#: store-to-load forwarding pass must recognise the RV64 access pair.
RELOAD_PROGRAM = assemble(
    """
    addi t0, zero, 150
    lui  a0, 16
    loop:
        addi t1, t0, 1
        sd   t1, 0(a0)
        ld   t2, 0(a0)
        addi a0, a0, 8
        addi t0, t0, -1
        bne  t0, zero, loop
    """
)


def make_reload_state() -> MachineState:
    return MachineState(pc=RELOAD_PROGRAM.base_address, xlen=64)


class TestRv64StoreReload:
    def test_forwarded_and_matches_reference(self):
        controller = MesaController(M64BIT)
        result = controller.execute(RELOAD_PROGRAM, make_reload_state,
                                    parallelizable=True)
        assert result.accelerated, result.reason
        assert result.memopt_report.forwarded_loads == 1
        reference = run(RELOAD_PROGRAM, make_reload_state(),
                        max_steps=100_000)
        assert result.final_state.memory._bytes == reference.memory._bytes
