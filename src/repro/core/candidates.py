"""Candidate-matrix generation for the spatial mapper (paper §3.3).

For each instruction the mapper considers a candidate submatrix ``C_i`` of
the placement matrix ``F``: a rectangle the mapper filters by availability
(``F_free``) and capability (``F_op``) and evaluates alone, reading
``F_free`` and the free-neighbour counts as live grid state, as the imap
FSM (Fig. 8) does.  Three strategies are provided:

* ``FIXED_WINDOW`` — the paper's actual hardware: "due to constraints, C_i is
  a fixed 4×8 matrix positioned based on the predecessor with higher
  latency";
* ``ENCLOSING_RECT`` — the idealized Eq. 3 form: the rectangle enclosed by
  the two predecessors;
* ``FULL_GRID`` — an unconstrained software-style search (the ablation
  baseline; far more comparator area in hardware).
"""

from __future__ import annotations

import enum

from ..accel import Coord
from ..accel.grid import Rect

__all__ = ["CandidateStrategy", "candidate_rect"]


class CandidateStrategy(enum.Enum):
    FIXED_WINDOW = "fixed_window"
    ENCLOSING_RECT = "enclosing_rect"
    FULL_GRID = "full_grid"


def _clip(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


def candidate_rect(strategy: CandidateStrategy, shape: tuple[int, int],
                   anchor: Coord | None, other: Coord | None = None,
                   window: tuple[int, int] = (4, 8)) -> Rect:
    """The rectangle ``C_i`` as a half-open ``(r0, r1, c0, c1)``.

    Args:
        strategy: window shape policy.
        shape: (rows, cols) of the PE array.
        anchor: position of the higher-latency predecessor; ``None`` when the
            instruction has no placed predecessor (the window then covers the
            grid origin region).
        other: the other predecessor's position (ENCLOSING_RECT only).
        window: (rows, cols) of the FIXED_WINDOW matrix — 4×8 in the paper.
    """
    rows, cols = shape
    if strategy is CandidateStrategy.FULL_GRID:
        return (0, rows, 0, cols)
    if strategy is CandidateStrategy.FIXED_WINDOW:
        win_rows, win_cols = window
        anchor_row, anchor_col = anchor if anchor is not None else (0, 0)
        # Centre the window on the anchor, clipped to the grid; an anchor at
        # column -1 (an LSU entry) pulls the window to the array edge.
        r0 = _clip(anchor_row - win_rows // 2, 0, max(0, rows - win_rows))
        c0 = _clip(anchor_col - win_cols // 2, 0, max(0, cols - win_cols))
        return (r0, min(rows, r0 + win_rows), c0, min(cols, c0 + win_cols))
    # ENCLOSING_RECT, Eq. 3
    first = anchor if anchor is not None else (0, 0)
    second = other if other is not None else first
    r0, r1 = sorted((_clip(first[0], 0, rows - 1),
                     _clip(second[0], 0, rows - 1)))
    c0, c1 = sorted((_clip(first[1], 0, cols - 1),
                     _clip(second[1], 0, cols - 1)))
    return (r0, r1 + 1, c0, c1 + 1)
