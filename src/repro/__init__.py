"""MESA: Microarchitecture Extensions for Spatial Architecture Generation.

A production-quality Python reproduction of the ISCA 2023 paper.  MESA is a
hardware controller that monitors CPU threads, translates hot loops into
latency-weighted dataflow graphs, maps them onto a reconfigurable spatial
accelerator, and iteratively re-optimizes the configuration using runtime
performance counters.

Quick start::

    from repro import MesaController, M_128, assemble
    from repro.isa import MachineState

    program = assemble('''
        addi t0, zero, 200
        loop:
            lw   t1, 0(a0)
            addi t1, t1, 1
            sw   t1, 0(a0)
            addi a0, a0, 4
            addi t0, t0, -1
            bne  t0, zero, loop
    ''')
    controller = MesaController(M_128)
    result = controller.execute(program, state_factory=make_state)
    print(result.speedup_vs_single_core)

Sub-packages: :mod:`repro.isa` (RISC-V substrate), :mod:`repro.mem` (memory
system), :mod:`repro.cpu` (out-of-order CPU baseline), :mod:`repro.accel`
(the spatial accelerator), :mod:`repro.core` (MESA itself),
:mod:`repro.power` (area/power/energy models), :mod:`repro.baselines`
(OpenCGRA- and DynaSpAM-style comparators), :mod:`repro.workloads` (the
Rodinia kernel suite), and :mod:`repro.harness` (experiment drivers).
"""

from .accel import (
    AcceleratorConfig,
    DataflowEngine,
    ExecutionOptions,
    M_128,
    M_512,
    M_64,
    mesa_config,
)
from .core import (
    DataflowGraph,
    InstructionMapper,
    MesaController,
    MesaOptions,
    MesaResult,
    build_ldfg,
)
from .cpu import CpuConfig, MulticoreCpu, OutOfOrderCore, collect_trace
from .isa import Program, assemble
from .latency import OP_LATENCY, STORE_ISSUE

__version__ = "1.0.0"

__all__ = [
    "AcceleratorConfig",
    "DataflowEngine",
    "ExecutionOptions",
    "M_64",
    "M_128",
    "M_512",
    "mesa_config",
    "DataflowGraph",
    "InstructionMapper",
    "MesaController",
    "MesaOptions",
    "MesaResult",
    "build_ldfg",
    "CpuConfig",
    "MulticoreCpu",
    "OutOfOrderCore",
    "collect_trace",
    "Program",
    "assemble",
    "OP_LATENCY",
    "STORE_ISSUE",
    "__version__",
]
