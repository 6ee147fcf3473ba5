"""Interconnect latency models.

MESA "does not restrict the type of interconnect used in the backend as long
as it can model the point-to-point communication latency between two PEs"
(paper §3.3).  Each model here is exactly that: a function
``latency(src, dst) -> cycles``, the paper's hardware-implementable ``l(C)``.

Three topologies are provided, matching the paper's examples and evaluation
backend:

* :class:`MeshInterconnect` — latency = Manhattan distance (Fig. 2, Fig. 4
  example 2);
* :class:`RowSliceInterconnect` — 1 cycle within a row, a fixed cost across
  rows (Fig. 4 example 1);
* :class:`MeshNocInterconnect` — the evaluation backend (Fig. 9): direct
  neighbor links at 1 cycle/hop combined with a half-ring NoC with a router
  per 4-PE slice for distant traversals; a transfer uses whichever is faster.

Load/store entries sit at column ``-1`` of their row (a strip along the
array's edge, Fig. 5) and are reachable by both interconnects.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

import numpy as np

from .config import AcceleratorConfig, Coord, InterconnectKind

__all__ = [
    "Interconnect",
    "MeshInterconnect",
    "RowSliceInterconnect",
    "MeshNocInterconnect",
    "build_interconnect",
]

#: Latency of one local neighbor hop.
LOCAL_HOP_LATENCY = 1
#: Fixed cross-row latency of the ROW_SLICE interconnect (Fig. 4 example 1).
CROSS_ROW_LATENCY = 3
#: The NoC has a router every ``NOC_SLICE`` PEs along a row (Fig. 9).
NOC_SLICE = 4
#: Cycles per router hop, and to inject into (or eject from) the NoC.
NOC_HOP_LATENCY = 1
NOC_INJECT_LATENCY = 2


@functools.lru_cache(maxsize=64)
def _shared_matrices(topology: type, config: AcceleratorConfig) -> dict:
    """Per-source ``latency_matrix`` results shared by equal backends."""
    return {}


class Interconnect(ABC):
    """Point-to-point latency model for one backend topology."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self._matrix_cache = _shared_matrices(type(self), config)

    @abstractmethod
    def latency(self, src: Coord, dst: Coord) -> int:
        """Data-transfer latency in cycles from ``src`` to ``dst``."""

    def latency_matrix(self, src: Coord) -> np.ndarray:
        """Vectorized ``l(C)``: latency from ``src`` to every PE of the grid.

        Returns a read-only ``(rows, cols)`` int array — the latency term of
        the mapper's Eq. 1 candidate evaluation, computed for the whole
        candidate matrix at once.  ``src`` may be a load/store-entry
        coordinate (column ``-1``).  Cached per (topology, config, source).
        """
        cached = self._matrix_cache.get(src)
        if cached is None:
            cached = self._compute_matrix(src)
            cached.setflags(write=False)
            self._matrix_cache[src] = cached
        return cached

    @abstractmethod
    def _compute_matrix(self, src: Coord) -> np.ndarray:
        """``latency_matrix``'s uncached closed form for ``src``."""

    def router_hops(self, src: Coord, dst: Coord) -> int:
        """Router-to-router hops a NoC-routed packet traverses.

        This is the *activity* a transfer induces on the secondary
        interconnect (one router traversal per hop), as opposed to its
        latency — queue wait is accounted separately as ``noc_wait_cycles``.
        Topologies without an explicit router structure count one backbone
        traversal per transfer.
        """
        return 0 if src == dst else 1

    @property
    def name(self) -> str:
        return type(self).__name__

    def _manhattan(self, src: Coord, dst: Coord) -> int:
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    def _grid_distances(self, src: Coord) -> tuple[np.ndarray, np.ndarray]:
        """|row - src_row| and |col - src_col| over the whole grid."""
        rows, cols = self.config.rows, self.config.cols
        dr = np.abs(np.arange(rows) - src[0])[:, None]
        dc = np.abs(np.arange(cols) - src[1])[None, :]
        return np.broadcast_to(dr, (rows, cols)), np.broadcast_to(dc, (rows, cols))


class MeshInterconnect(Interconnect):
    """Dense 2-D mesh: latency equals hop count (Manhattan distance)."""

    def latency(self, src: Coord, dst: Coord) -> int:
        if src == dst:
            return 0
        return self._manhattan(src, dst) * LOCAL_HOP_LATENCY

    def _compute_matrix(self, src: Coord) -> np.ndarray:
        dr, dc = self._grid_distances(src)
        return (dr + dc) * LOCAL_HOP_LATENCY


class RowSliceInterconnect(Interconnect):
    """Hierarchical row slices: single-cycle in-row, fixed cost across rows.

    Fig. 4 example 1: "a hierarchical interconnect of row slices allows
    point-to-point single-cycle latency between PEs in the same row and a
    fixed 3-cycle latency across rows".
    """

    def latency(self, src: Coord, dst: Coord) -> int:
        if src == dst:
            return 0
        if src[0] == dst[0]:
            return LOCAL_HOP_LATENCY
        return CROSS_ROW_LATENCY

    def _compute_matrix(self, src: Coord) -> np.ndarray:
        rows, cols = self.config.rows, self.config.cols
        matrix = np.full((rows, cols), CROSS_ROW_LATENCY,
                         dtype=np.int64)
        if 0 <= src[0] < rows:
            matrix[src[0], :] = LOCAL_HOP_LATENCY
            if 0 <= src[1] < cols:
                matrix[src[0], src[1]] = 0
        return matrix


class MeshNocInterconnect(Interconnect):
    """The evaluation backend: neighbor links plus a half-ring NoC.

    Local PE-to-PE links cost 1 cycle per hop but are only economical for
    short distances.  The NoC has a router at every :data:`NOC_SLICE` PEs
    along a row; a packet pays injection/ejection overhead plus one cycle
    per router hop along the half-ring (rows first, then columns — each lane
    operates like a bus because mapped dataflow is strictly feedforward,
    §5.2).  A transfer takes whichever path is faster.
    """

    def latency(self, src: Coord, dst: Coord) -> int:
        if src == dst:
            return 0
        local = self._manhattan(src, dst) * LOCAL_HOP_LATENCY
        return min(local, self._noc_latency(src, dst))

    def _compute_matrix(self, src: Coord) -> np.ndarray:
        cfg = self.config
        dr, dc = self._grid_distances(src)
        local = (dr + dc) * LOCAL_HOP_LATENCY
        src_row, src_slice = self._router(src)
        slice_of = np.arange(cfg.cols) // NOC_SLICE
        slice_hops = np.abs(slice_of - src_slice)[None, :]
        row_hops = np.abs(np.arange(cfg.rows) - src_row)[:, None]
        noc = (2 * NOC_INJECT_LATENCY
               + (slice_hops + row_hops) * NOC_HOP_LATENCY)
        matrix = np.minimum(local, noc)
        if 0 <= src[0] < cfg.rows and 0 <= src[1] < cfg.cols:
            matrix[src[0], src[1]] = 0
        return matrix

    def router_hops(self, src: Coord, dst: Coord) -> int:
        if src == dst:
            return 0
        src_router, dst_router = self._router(src), self._router(dst)
        return (abs(src_router[1] - dst_router[1])
                + abs(src_router[0] - dst_router[0]))

    def _router(self, coord: Coord) -> tuple[int, int]:
        """(row, slice index) of the router serving a coordinate."""
        row, col = coord
        return row, max(0, col) // NOC_SLICE

    def _noc_latency(self, src: Coord, dst: Coord) -> int:
        src_router, dst_router = self._router(src), self._router(dst)
        # Half-ring: traverse slices within the row, then rows vertically.
        slice_hops = abs(src_router[1] - dst_router[1])
        row_hops = abs(src_router[0] - dst_router[0])
        return (NOC_INJECT_LATENCY
                + (slice_hops + row_hops) * NOC_HOP_LATENCY
                + NOC_INJECT_LATENCY)


def build_interconnect(config: AcceleratorConfig) -> Interconnect:
    """Instantiate the latency model selected by ``config.interconnect``."""
    kinds = {
        InterconnectKind.MESH: MeshInterconnect,
        InterconnectKind.ROW_SLICE: RowSliceInterconnect,
        InterconnectKind.MESH_NOC: MeshNocInterconnect,
    }
    return kinds[config.interconnect](config)
