"""Tests for the PE grid (F, F_free, F_op)."""

import numpy as np
import pytest

from repro.accel import M_64, M_128, M_512, AcceleratorConfig, PEGrid
from repro.isa import OpClass


def grid() -> PEGrid:
    return PEGrid(AcceleratorConfig(rows=8, cols=4))


class TestOccupancy:
    def test_initially_all_free(self):
        g = grid()
        assert g.free.all()
        assert (g.placement == -1).all()

    def test_occupy_and_release(self):
        g = grid()
        g.occupy((2, 3), node_id=7)
        assert not g.free[2, 3]
        assert g.placement[2, 3] == 7
        assert (~g.free).sum() == 1

    def test_double_occupy_rejected(self):
        g = grid()
        g.occupy((0, 0), 1)
        with pytest.raises(ValueError):
            g.occupy((0, 0), 2)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(IndexError):
            grid().occupy((8, 0), 1)


class TestMasks:
    def test_op_mask_matches_config(self):
        g = grid()
        mask = g.op_mask(OpClass.FP_MUL)
        for r in range(8):
            for c in range(4):
                assert mask[r, c] == g.config.supports(OpClass.FP_MUL, (r, c))

    def test_op_mask_immutable_and_cached(self):
        g = grid()
        mask = g.op_mask(OpClass.INT_ALU)
        assert g.op_mask(OpClass.INT_ALU) is mask
        with pytest.raises(ValueError):
            mask[0, 0] = False

    @pytest.mark.parametrize("config", [M_64, M_128, M_512],
                             ids=lambda c: c.name)
    def test_masks_shared_across_grids_of_one_config(self, config):
        first, second = PEGrid(config), PEGrid(config)
        for op_class in OpClass:
            mask = first.op_mask(op_class)
            assert second.op_mask(op_class) is mask
            assert not mask.flags.writeable
            assert mask.shape == (config.rows, config.cols)
            for r in range(config.rows):
                for c in range(config.cols):
                    assert mask[r, c] == config.supports(op_class, (r, c))

    def test_available_mask_excludes_occupied(self):
        g = grid()
        g.occupy((0, 0), 1)
        available = g.available_mask(OpClass.INT_ALU)
        assert not available[0, 0]
        assert available[0, 1]

    def test_memory_mask_is_empty(self):
        g = grid()
        assert not g.op_mask(OpClass.LOAD).any()

    def test_available_is_and_of_free_and_op(self):
        g = grid()
        g.occupy((3, 2), 9)
        expected = g.free & g.op_mask(OpClass.FP_ADD)
        assert (g.available_mask(OpClass.FP_ADD) == expected).all()


class TestNeighbourhood:
    def test_free_neighbourhood_counts(self):
        g = grid()
        assert g.free_neighbourhood((1, 1)) == 8  # full 3x3 minus itself
        assert g.free_neighbourhood((0, 0)) == 3  # corner

    def test_neighbourhood_sees_occupancy(self):
        g = grid()
        g.occupy((1, 2), 1)
        assert g.free_neighbourhood((1, 1)) == 7
