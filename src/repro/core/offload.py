"""CPU ⇄ accelerator control transfer (paper §5.1).

"When the spatial accelerator is configured, the CPU is allowed to complete
its current iteration but is halted when PC reaches the entry point of the
accelerated loop ... we wait for all in-flight instructions in the pipeline
to commit and transfer control to the accelerator along with the current
architectural state (register file, status registers, etc.). ... When
acceleration completes, control is transferred back to the CPU along with the
architectural state and a return instruction address from which the CPU
resumes much like a subroutine return."

This module is the cycle cost model of that protocol; the functional state
hand-off happens naturally because the engine operates on the same
:class:`~repro.isa.MachineState`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OffloadCostModel"]


@dataclass(frozen=True)
class OffloadCostModel:
    """Cycle costs of entering and leaving accelerated execution."""

    #: Waiting for all in-flight CPU instructions to commit (ROB drain).
    pipeline_drain_cycles: int = 24
    #: Transfer of one architectural register to/from the fabric.
    cycles_per_register: int = 1
    #: Control hand-shake each way (halt, signal, PC exchange).
    handshake_cycles: int = 8

    def __post_init__(self) -> None:
        if min(self.pipeline_drain_cycles, self.cycles_per_register,
               self.handshake_cycles) < 0:
            raise ValueError("offload costs must be non-negative")

    def offload_cycles(self, live_in_registers: int) -> int:
        """Cycles to halt the CPU and start the accelerator."""
        return (self.pipeline_drain_cycles
                + self.handshake_cycles
                + live_in_registers * self.cycles_per_register)

    def return_cycles(self, live_out_registers: int) -> int:
        """Cycles to return control and state to the CPU."""
        return (self.handshake_cycles
                + live_out_registers * self.cycles_per_register)
