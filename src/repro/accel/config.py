"""Spatial accelerator configuration.

Paper §5.2: "We mainly experiment with three backend configurations: MESA
with 128 PEs (M-128) arranged with grid dimension 16×8, of which half are
equipped with single-precision floating-point logic; MESA with 512 PEs
(M-512), arranged in a 64×8 grid and 64 PEs (M-64) with a 16×4 grid."

The accelerator is a 2-D grid of PEs with two interconnects (local
neighbor links and a half-ring NoC with a router per 4-PE *slice*), plus a
pool of load/store entries sharing a limited number of memory ports.
FP capability is laid out in 2×2 *FP slices* (Table 1 lists an "FP Slice
(2×2)" macro) tiled over half the array.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..isa import OpClass
from ..latency import DEFAULT_LATENCIES, LatencyTable

__all__ = ["Coord", "InterconnectKind", "AcceleratorConfig",
           "M_64", "M_128", "M_512", "mesa_config"]

#: A PE coordinate: (row, col).  Load/store entries sit at column -1.
Coord = tuple[int, int]


class InterconnectKind(enum.Enum):
    """Backend interconnect topologies supported by the latency model."""

    #: Pure 2-D mesh: transfer latency = Manhattan distance (Fig. 4, ex. 2).
    MESH = "mesh"
    #: Hierarchical row slices: 1 cycle in-row, fixed cross-row (Fig. 4, ex. 1).
    ROW_SLICE = "row_slice"
    #: The paper's evaluation backend: neighbor links + half-ring NoC (Fig. 9).
    MESH_NOC = "mesh_noc"


@dataclass(frozen=True)
class AcceleratorConfig:
    """Parameters of one spatial accelerator backend."""

    name: str = "M-128"
    rows: int = 16
    cols: int = 8
    #: Fraction of PEs with single-precision FP logic (in 2x2 slices).
    fp_fraction: float = 0.5
    interconnect: InterconnectKind = InterconnectKind.MESH_NOC
    #: Latency of one local neighbor hop.
    local_hop_latency: int = 1
    #: Fixed cross-row latency for the ROW_SLICE interconnect.
    cross_row_latency: int = 3
    #: NoC parameters: a router every `noc_slice` PEs along a row.
    noc_slice: int = 4
    noc_hop_latency: int = 1
    noc_inject_latency: int = 2
    #: Load/store entries and the memory ports they share.  Fig. 15's
    #: "Ideal Memory" curve sets ``memory_ports`` to ``math.inf``.
    lsu_entries: int = 32
    memory_ports: int | float = 2
    #: Operation latencies of the PEs' functional units.
    latencies: LatencyTable = DEFAULT_LATENCIES
    frequency_ghz: float = 2.0
    #: Datapath width of the PEs: 32 (RV32IMF, the paper's evaluation
    #: backend) or 64.  RV64I-only instructions disqualify a loop on a
    #: 32-bit backend (condition C2).
    xlen: int = 32

    def __post_init__(self) -> None:
        if self.xlen not in (32, 64):
            raise ValueError(f"xlen must be 32 or 64, got {self.xlen}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if not 0.0 <= self.fp_fraction <= 1.0:
            raise ValueError("fp_fraction must be within [0, 1]")
        if self.lsu_entries < 1 or self.memory_ports < 1:
            raise ValueError("need at least one LSU entry and one port")
        if self.noc_slice < 1:
            raise ValueError("noc_slice must be positive")

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def max_instructions(self) -> int:
        """Condition C1's limit: instructions must fit PEs + LSU entries."""
        return self.num_pes + self.lsu_entries

    def supports_fp(self, coord: Coord) -> bool:
        """Whether the PE at ``coord`` has FP logic.

        FP capability is laid out as 2×2 slices tiled in a checkerboard over
        the grid, thinned to approximately ``fp_fraction`` of the array.
        """
        row, col = coord
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"coordinate {coord} outside {self.rows}x{self.cols}")
        if self.fp_fraction >= 1.0:
            return True
        if self.fp_fraction <= 0.0:
            return False
        # 2x2 FP slices in a checkerboard; a block is FP-capable when its
        # diagonal index falls inside the configured fraction.
        block_row, block_col = row // 2, col // 2
        period = max(2, round(2 / self.fp_fraction))
        return (block_row + block_col) % period < period * self.fp_fraction + 1e-9

    def supports(self, op_class: OpClass, coord: Coord) -> bool:
        """Whether the PE at ``coord`` can execute ``op_class`` (F_op)."""
        if op_class.is_memory:
            return False  # memory instructions live in LSU entries, not PEs
        if op_class is OpClass.SYSTEM:
            return False
        if op_class.is_fp:
            return self.supports_fp(coord)
        return True


#: The paper's three evaluation configurations.  Memory ports scale with
#: the array so that Fig. 15's saturation point (beyond 128 PEs for a fixed
#: memory system) is a property of the sweep, not of these presets.
M_64 = AcceleratorConfig(name="M-64", rows=16, cols=4, lsu_entries=16,
                         memory_ports=4)
M_128 = AcceleratorConfig(name="M-128", rows=16, cols=8, lsu_entries=32,
                          memory_ports=8)
M_512 = AcceleratorConfig(name="M-512", rows=64, cols=8, lsu_entries=64,
                          memory_ports=16)

_NAMED = {"M-64": M_64, "M-128": M_128, "M-512": M_512}


def mesa_config(name: str) -> AcceleratorConfig:
    """Look up one of the paper's named configurations (M-64/M-128/M-512)."""
    try:
        return _NAMED[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown configuration {name!r}; expected one of {sorted(_NAMED)}"
        ) from None
