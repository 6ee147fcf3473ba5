"""Tests for candidate-matrix generation (paper §3.3).

:func:`candidate_rect` gives the rectangle ``C_i``; :func:`candidate_pes`
below spreads ``C_i ⊙ C_free ⊙ C_op`` back over the whole grid, the PE set
the mapper evaluates, so each test pins that set.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.accel import AcceleratorConfig, PEGrid
from repro.core import CandidateStrategy, candidate_rect
from repro.isa import OpClass


def grid(rows=16, cols=8) -> PEGrid:
    return PEGrid(AcceleratorConfig(rows=rows, cols=cols))


def full(g: PEGrid) -> tuple[int, int, int, int]:
    return (0, g.shape[0], 0, g.shape[1])


def candidate_pes(strategy, g: PEGrid, op_class, anchor, other=None,
                   window=(4, 8)) -> np.ndarray:
    """The candidate PEs of the rectangle as a full-grid boolean mask."""
    rect = candidate_rect(strategy, g.shape, anchor, other, window=window)
    r0, r1, c0, c1 = rect
    mask = np.zeros(g.shape, dtype=bool)
    mask[r0:r1, c0:c1] = g.available_mask(op_class, rect)
    return mask


class TestFixedWindow:
    def test_window_size_honoured(self):
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, grid(),
                              OpClass.INT_ALU, anchor=(8, 4), window=(4, 8))
        assert mask.sum() == 4 * 8
        assert candidate_rect(CandidateStrategy.FIXED_WINDOW, (16, 8),
                              anchor=(8, 4), window=(4, 8)) == (6, 10, 0, 8)

    def test_window_centred_on_anchor(self):
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, grid(),
                              OpClass.INT_ALU, anchor=(8, 4), window=(4, 4))
        rows, cols = np.nonzero(mask)
        assert 8 in rows and 4 in cols
        assert rows.min() >= 6 and rows.max() <= 9

    def test_window_clipped_at_corner(self):
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, grid(),
                              OpClass.INT_ALU, anchor=(0, 0), window=(4, 8))
        assert mask.sum() == 32, "window slides inside, never shrinks"
        rows, cols = np.nonzero(mask)
        assert rows.min() == 0 and cols.min() == 0

    def test_lsu_anchor_pulls_to_edge(self):
        """An anchor at column -1 (an LSU entry) anchors near column 0."""
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, grid(),
                              OpClass.INT_ALU, anchor=(5, -1), window=(4, 4))
        _, cols = np.nonzero(mask)
        assert cols.min() == 0

    def test_none_anchor_defaults_to_origin(self):
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, grid(),
                              OpClass.INT_ALU, anchor=None, window=(2, 2))
        rows, cols = np.nonzero(mask)
        assert rows.min() == 0 and cols.min() == 0

    def test_occupied_cells_excluded(self):
        g = grid()
        g.occupy((8, 4), 0)
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, g,
                              OpClass.INT_ALU, anchor=(8, 4))
        assert not mask[8, 4]

    def test_fop_applied(self):
        g = grid()
        window = candidate_pes(CandidateStrategy.FIXED_WINDOW, g,
                                OpClass.INT_ALU, anchor=(8, 4))
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, g,
                              OpClass.FP_MUL, anchor=(8, 4))
        fp = g.available_mask(OpClass.FP_MUL, full(g))
        assert (window & ~fp).any(), "the window holds integer-only PEs"
        assert (mask == (window & fp)).all()


class TestEnclosingRect:
    def test_rectangle_between_predecessors(self):
        mask = candidate_pes(CandidateStrategy.ENCLOSING_RECT, grid(),
                              OpClass.INT_ALU, anchor=(2, 1), other=(5, 6))
        rows, cols = np.nonzero(mask)
        assert rows.min() == 2 and rows.max() == 5
        assert cols.min() == 1 and cols.max() == 6

    def test_order_of_predecessors_irrelevant(self):
        a = candidate_pes(CandidateStrategy.ENCLOSING_RECT, grid(),
                           OpClass.INT_ALU, anchor=(5, 6), other=(2, 1))
        b = candidate_pes(CandidateStrategy.ENCLOSING_RECT, grid(),
                           OpClass.INT_ALU, anchor=(2, 1), other=(5, 6))
        assert (a == b).all()

    def test_single_predecessor_degenerates_to_cell(self):
        mask = candidate_pes(CandidateStrategy.ENCLOSING_RECT, grid(),
                              OpClass.INT_ALU, anchor=(3, 3), other=None)
        assert mask.sum() == 1
        assert candidate_rect(CandidateStrategy.ENCLOSING_RECT, (16, 8),
                              anchor=(3, 3)) == (3, 4, 3, 4)


class TestFullGrid:
    def test_covers_everything_available(self):
        g = grid()
        g.occupy((0, 0), 1)
        mask = candidate_pes(CandidateStrategy.FULL_GRID, g,
                              OpClass.INT_ALU, anchor=None)
        assert mask.sum() == g.config.num_pes - 1
        assert candidate_rect(CandidateStrategy.FULL_GRID, g.shape,
                              anchor=None) == full(g)


class TestProperties:
    @given(anchor_row=st.integers(-1, 15), anchor_col=st.integers(-1, 7),
           strategy=st.sampled_from(list(CandidateStrategy)))
    def test_mask_subset_of_available(self, anchor_row, anchor_col, strategy):
        g = grid()
        g.occupy((4, 4), 9)
        mask = candidate_pes(strategy, g, OpClass.INT_ALU,
                              anchor=(anchor_row, anchor_col))
        available = g.available_mask(OpClass.INT_ALU, full(g))
        assert not (mask & ~available).any()

    @given(rows=st.integers(1, 4), cols=st.integers(1, 8))
    def test_window_never_exceeds_grid(self, rows, cols):
        g = grid(rows=4, cols=8)
        mask = candidate_pes(CandidateStrategy.FIXED_WINDOW, g,
                              OpClass.INT_ALU, anchor=(2, 2),
                              window=(rows, cols))
        assert mask.shape == (4, 8)
        assert mask.sum() <= rows * cols
        r0, r1, c0, c1 = candidate_rect(CandidateStrategy.FIXED_WINDOW,
                                        g.shape, (2, 2), window=(rows, cols))
        assert 0 <= r0 < r1 <= 4 and 0 <= c0 < c1 <= 8
        assert (r1 - r0, c1 - c0) == (rows, cols)
