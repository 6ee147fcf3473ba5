"""Tests for the PE grid (F, F_free, F_op and the live neighbour counts)."""

import random

import numpy as np
import pytest

from repro.accel import M_64, M_128, M_512, AcceleratorConfig, PEGrid
from repro.accel.grid import NEIGHBOURHOOD_RADIUS
from repro.isa import OpClass


def grid() -> PEGrid:
    return PEGrid(AcceleratorConfig(rows=8, cols=4))


def whole(g: PEGrid) -> tuple[int, int, int, int]:
    return (0, g.shape[0], 0, g.shape[1])


def summed_area_counts(free: np.ndarray) -> np.ndarray:
    """Free PEs within NEIGHBOURHOOD_RADIUS of every PE, not counting the
    PE itself, from scratch: a summed-area table over ``F_free``."""
    rows, cols = free.shape
    radius = NEIGHBOURHOOD_RADIUS
    free = free.astype(np.int64)
    integral = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    np.cumsum(np.cumsum(free, axis=0), axis=1, out=integral[1:, 1:])
    r = np.arange(rows)
    c = np.arange(cols)
    r0 = np.maximum(0, r - radius)
    r1 = np.minimum(rows, r + radius + 1)
    c0 = np.maximum(0, c - radius)
    c1 = np.minimum(cols, c + radius + 1)
    window = (integral[np.ix_(r1, c1)] - integral[np.ix_(r0, c1)]
              - integral[np.ix_(r1, c0)] + integral[np.ix_(r0, c0)])
    return window - free


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
        counts = g.free_neighbours.copy()
        with pytest.raises(ValueError):
            g.occupy((0, 0), 2)
        assert (g.free_neighbours == counts).all()

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
        available = g.available_mask(OpClass.INT_ALU, whole(g))
        assert not available[0, 0]
        assert available[0, 1]

    def test_available_mask_is_the_rectangle(self):
        g = grid()
        g.occupy((3, 2), 9)
        full = g.available_mask(OpClass.FP_ADD, whole(g))
        window = g.available_mask(OpClass.FP_ADD, (2, 5, 1, 4))
        assert window.shape == (3, 3)
        assert (window == full[2:5, 1:4]).all()
        assert not window[1, 1]

    def test_memory_mask_is_empty(self):
        g = grid()
        assert not g.op_mask(OpClass.LOAD).any()

    def test_available_is_and_of_free_and_op(self):
        g = grid()
        g.occupy((3, 2), 9)
        expected = g.free & g.op_mask(OpClass.FP_ADD)
        assert (g.available_mask(OpClass.FP_ADD, whole(g)) == expected).all()


class TestNeighbourhood:
    def test_free_neighbourhood_counts(self):
        g = grid()
        assert g.free_neighbourhood((1, 1)) == 8  # full 3x3 minus itself
        assert g.free_neighbourhood((0, 0)) == 3  # corner

    def test_neighbourhood_sees_occupancy(self):
        g = grid()
        g.occupy((1, 2), 1)
        assert g.free_neighbourhood((1, 1)) == 7

    def test_summed_area_oracle_matches_scalar(self):
        g = grid()
        for coord in ((1, 2), (0, 0), (7, 3)):
            g.occupy(coord, 1)
        counts = summed_area_counts(g.free)
        for r in range(8):
            for c in range(4):
                assert counts[r, c] == g.free_neighbourhood((r, c))

    @pytest.mark.parametrize("config", [
        M_64, M_128, M_512,
        AcceleratorConfig(name="1x16", rows=1, cols=16),
        AcceleratorConfig(name="16x1", rows=16, cols=1),
    ], ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", range(3))
    def test_live_counts_equal_a_recount_after_every_occupy(self, config,
                                                           seed):
        g = PEGrid(config)
        assert (g.free_neighbours == summed_area_counts(g.free)).all()
        coords = [(r, c) for r in range(config.rows)
                  for c in range(config.cols)]
        random.Random(seed).shuffle(coords)
        for node_id, coord in enumerate(coords):
            g.occupy(coord, node_id)
            assert (g.free_neighbours == summed_area_counts(g.free)).all(), (
                f"after occupying {coord} (placement {node_id})")
        assert (g.free_neighbours == 0).all()
