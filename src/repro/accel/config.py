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

__all__ = ["Coord", "InterconnectKind", "AcceleratorConfig",
           "M_64", "M_128", "M_512", "mesa_config", "FP_FRACTION",
           "FREQUENCY_GHZ"]

#: A PE coordinate: (row, col).  Load/store entries sit at column -1.
Coord = tuple[int, int]

#: Fraction of PEs with single-precision FP logic (in 2x2 slices): "half
#: are equipped with single-precision floating-point logic" (§5.2).
FP_FRACTION = 0.5
#: Diagonal period of the FP-slice checkerboard.
_FP_PERIOD = max(2, round(2 / FP_FRACTION))

#: Clock of the fabric and of MESA, the core's 2 GHz.
FREQUENCY_GHZ = 2.0


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
    """Parameters of one spatial accelerator backend.

    The fields are what the evaluation varies (grid, load/store entries,
    memory ports, interconnect kind) plus the datapath width; the FP layout
    and the clock are this module's constants.
    """

    name: str = "M-128"
    rows: int = 16
    cols: int = 8
    #: The wiring; its hop latencies are constants of
    #: :mod:`repro.accel.interconnect`.
    interconnect: InterconnectKind = InterconnectKind.MESH_NOC
    #: Load/store entries and the memory ports they share.  Fig. 15's
    #: "Ideal Memory" curve sets ``memory_ports`` to ``math.inf``.
    lsu_entries: int = 32
    memory_ports: int | float = 2
    #: Datapath width of the PEs: 32 (RV32IMF, the paper's evaluation
    #: backend) or 64.  RV64I-only instructions disqualify a loop on a
    #: 32-bit backend (condition C2).
    xlen: int = 32

    def __post_init__(self) -> None:
        if self.xlen not in (32, 64):
            raise ValueError(f"xlen must be 32 or 64, got {self.xlen}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.lsu_entries < 1 or self.memory_ports < 1:
            raise ValueError("need at least one LSU entry and one port")

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
        the grid, thinned by :data:`FP_FRACTION`.
        """
        row, col = coord
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"coordinate {coord} outside {self.rows}x{self.cols}")
        # 2x2 FP slices in a checkerboard; a block is FP-capable when its
        # diagonal index falls inside the fraction.
        block_row, block_col = row // 2, col // 2
        return ((block_row + block_col) % _FP_PERIOD
                < _FP_PERIOD * FP_FRACTION + 1e-9)

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
