"""CPU ⇄ accelerator control transfer (paper §5.1).

"When the spatial accelerator is configured, the CPU is allowed to complete
its current iteration but is halted when PC reaches the entry point of the
accelerated loop ... we wait for all in-flight instructions in the pipeline
to commit and transfer control to the accelerator along with the current
architectural state (register file, status registers, etc.). ... When
acceleration completes, control is transferred back to the CPU along with the
architectural state and a return instruction address from which the CPU
resumes much like a subroutine return."

This module is the cycle cost model of that protocol, with one fixed cost
per step as module constants; the functional state hand-off happens
naturally because the engine operates on the same
:class:`~repro.isa.MachineState`.
"""

from __future__ import annotations

__all__ = ["PIPELINE_DRAIN_CYCLES", "CYCLES_PER_REGISTER",
           "HANDSHAKE_CYCLES", "offload_cycles", "return_cycles"]

#: Waiting for all in-flight CPU instructions to commit (ROB drain).
PIPELINE_DRAIN_CYCLES = 24
#: Transfer of one architectural register to/from the fabric.
CYCLES_PER_REGISTER = 1
#: Control hand-shake each way (halt, signal, PC exchange).
HANDSHAKE_CYCLES = 8


def offload_cycles(live_in_registers: int) -> int:
    """Cycles to halt the CPU and start the accelerator."""
    return (PIPELINE_DRAIN_CYCLES + HANDSHAKE_CYCLES
            + live_in_registers * CYCLES_PER_REGISTER)


def return_cycles(live_out_registers: int) -> int:
    """Cycles to return control and state to the CPU."""
    return HANDSHAKE_CYCLES + live_out_registers * CYCLES_PER_REGISTER
