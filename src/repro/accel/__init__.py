"""Spatial accelerator substrate.

The paper's custom parameterizable backend (§5.2): a 2-D grid of PEs with
local neighbor links and a half-ring NoC, load/store entries sharing memory
ports, per-PE capability masks, a configuration bitstream, and an
event-driven dataflow execution engine with the performance counters MESA's
optimizer reads back.

Named configurations :data:`M_64`, :data:`M_128`, and :data:`M_512` match the
paper's three evaluation backends.
"""

from .bitstream import BitstreamError, decode_bitstream, encode_bitstream
from .config import (
    FREQUENCY_GHZ,
    AcceleratorConfig,
    Coord,
    InterconnectKind,
    M_128,
    M_512,
    M_64,
    mesa_config,
)
from .counters import ActivityCounters, LatencyCounters
from .engine import AcceleratorRun, DataflowEngine, ExecutionOptions
from .grid import PEGrid
from .interconnect import (
    Interconnect,
    MeshInterconnect,
    MeshNocInterconnect,
    RowSliceInterconnect,
    build_interconnect,
)
from .lsu import LoadStoreEntries
from .plan import ExecutionPlan, compile_plan
from .program import (
    AcceleratorProgram,
    ConfiguredNode,
    Guard,
    Operand,
    OperandKind,
)

__all__ = [
    "BitstreamError",
    "decode_bitstream",
    "encode_bitstream",
    "AcceleratorConfig",
    "FREQUENCY_GHZ",
    "Coord",
    "InterconnectKind",
    "M_64",
    "M_128",
    "M_512",
    "mesa_config",
    "ActivityCounters",
    "LatencyCounters",
    "AcceleratorRun",
    "DataflowEngine",
    "ExecutionOptions",
    "PEGrid",
    "Interconnect",
    "MeshInterconnect",
    "MeshNocInterconnect",
    "RowSliceInterconnect",
    "build_interconnect",
    "LoadStoreEntries",
    "ExecutionPlan",
    "compile_plan",
    "AcceleratorProgram",
    "ConfiguredNode",
    "Guard",
    "Operand",
    "OperandKind",
]
