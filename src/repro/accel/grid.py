"""The PE array: capability masks and occupancy tracking.

This module realizes the matrices of paper §3.3:

* ``F`` — the placement matrix (instruction assigned per PE);
* ``F_free`` — the binary availability matrix ("the two-dimensional analog to
  the register free list for renaming in out-of-order processors");
* ``F_op`` — one constant binary mask per operation class indicating which
  PEs support it ("predetermined based on the specifications of the hardware
  backend").

Masks are NumPy boolean arrays so the mapper can AND them over one
candidate rectangle exactly as the paper's hardware does.  As in the imap
FSM (Fig. 8), ``F_free`` and each PE's free-neighbour count are live state
that :meth:`PEGrid.occupy` updates, never rescanned per placement.
"""

from __future__ import annotations

import functools

import numpy as np

from ..isa import OpClass
from .config import AcceleratorConfig, Coord

__all__ = ["PEGrid", "op_class_mask"]

#: A rectangle of the PE array, half-open: ``(r0, r1, c0, c1)``.
Rect = tuple[int, int, int, int]

#: Chebyshev radius of the local neighbourhood the mapper's tie-breaker
#: counts free PEs in (the 3 x 3 window around a PE).
NEIGHBOURHOOD_RADIUS = 1


@functools.lru_cache(maxsize=1024)
def op_class_mask(config: AcceleratorConfig,
                  op_class: OpClass) -> np.ndarray:
    """F_op of one class on one backend, built once and shared read-only.

    A mapper builds a fresh :class:`PEGrid` per region, so without this
    every mapping would re-evaluate ``config.supports`` over the array.
    """
    mask = np.array(
        [[config.supports(op_class, (r, c)) for c in range(config.cols)]
         for r in range(config.rows)],
        dtype=bool,
    )
    mask.setflags(write=False)
    return mask


def _span(size: int) -> np.ndarray:
    """Neighbourhood length of each index of one axis, cut at the edges."""
    return (np.minimum(size, np.arange(size) + NEIGHBOURHOOD_RADIUS + 1)
            - np.maximum(0, np.arange(size) - NEIGHBOURHOOD_RADIUS))


class PEGrid:
    """Occupancy and capability state of one accelerator's PE array."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        #: F: node id occupying each PE, or -1 for a nop (the "zero matrix").
        self.placement = np.full((config.rows, config.cols), -1, dtype=np.int64)
        #: F_free: True where a PE is unoccupied.
        self.free = np.ones((config.rows, config.cols), dtype=bool)
        #: Live free_neighbourhood of every PE (only edges cut it when empty).
        self.free_neighbours = np.outer(_span(config.rows),
                                        _span(config.cols)) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.config.rows, self.config.cols)

    def op_mask(self, op_class: OpClass) -> np.ndarray:
        """F_op for one operation class (cached constant mask)."""
        return op_class_mask(self.config, op_class)

    def available_mask(self, op_class: OpClass, rect: Rect) -> np.ndarray:
        """``F_free AND F_op`` over ``rect``: PEs that can take ``op_class``."""
        r0, r1, c0, c1 = rect
        return self.free[r0:r1, c0:c1] & self.op_mask(op_class)[r0:r1, c0:c1]

    def occupy(self, coord: Coord, node_id: int) -> None:
        """Place a node at a PE.

        Raises:
            ValueError: if the PE is already occupied.
            IndexError: if the coordinate is outside the grid.
        """
        row, col = coord
        if not (0 <= row < self.config.rows and 0 <= col < self.config.cols):
            raise IndexError(f"coordinate {coord} outside {self.shape}")
        if not self.free[row, col]:
            raise ValueError(f"PE {coord} already occupied by node "
                             f"{self.placement[row, col]}")
        self.placement[row, col] = node_id
        self.free[row, col] = False
        radius = NEIGHBOURHOOD_RADIUS
        self.free_neighbours[max(0, row - radius):row + radius + 1,
                             max(0, col - radius):col + radius + 1] -= 1
        self.free_neighbours[row, col] += 1

    def free_neighbourhood(self, coord: Coord) -> int:
        """Number of free PEs within :data:`NEIGHBOURHOOD_RADIUS` (the
        paper's tie-breaker: "prioritize positions with more free entries
        in its local neighborhood")."""
        row, col = coord
        radius = NEIGHBOURHOOD_RADIUS
        r0, r1 = max(0, row - radius), min(self.config.rows, row + radius + 1)
        c0, c1 = max(0, col - radius), min(self.config.cols, col + radius + 1)
        window = self.free[r0:r1, c0:c1]
        return int(window.sum()) - int(self.free[row, col])
