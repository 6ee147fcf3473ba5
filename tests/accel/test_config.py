"""Tests for accelerator configurations and capability layout."""

import pytest

from repro.accel import AcceleratorConfig, M_128, M_512, M_64, mesa_config
from repro.isa import OpClass


class TestNamedConfigs:
    def test_paper_geometries(self):
        assert (M_64.rows, M_64.cols) == (16, 4)
        assert (M_128.rows, M_128.cols) == (16, 8)
        assert (M_512.rows, M_512.cols) == (64, 8)
        assert M_64.num_pes == 64
        assert M_128.num_pes == 128
        assert M_512.num_pes == 512

    def test_lookup_by_name(self):
        assert mesa_config("M-128") is M_128
        assert mesa_config("m-64") is M_64
        with pytest.raises(ValueError):
            mesa_config("M-1024")

    def test_max_instructions_includes_lsu(self):
        assert M_128.max_instructions == 128 + M_128.lsu_entries


class TestValidation:
    def test_bad_grid(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(rows=0)

    def test_bad_lsu(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(lsu_entries=0)


class TestFpLayout:
    def test_half_fp_fraction_roughly_half(self):
        fp = sum(M_128.supports_fp((r, c))
                 for r in range(M_128.rows) for c in range(M_128.cols))
        assert abs(fp - M_128.num_pes // 2) <= M_128.num_pes // 4

    def test_fp_slices_are_2x2(self):
        """FP capability is uniform within each 2x2 block."""
        for r in range(0, M_128.rows, 2):
            for c in range(0, M_128.cols, 2):
                block = {M_128.supports_fp((r + dr, c + dc))
                         for dr in (0, 1) for dc in (0, 1)}
                assert len(block) == 1

    def test_out_of_range_coord(self):
        with pytest.raises(IndexError):
            M_64.supports_fp((99, 0))


class TestSupports:
    def test_int_ops_everywhere(self):
        for coord in [(0, 0), (5, 3), (15, 7)]:
            assert M_128.supports(OpClass.INT_ALU, coord)
            assert M_128.supports(OpClass.INT_MUL, coord)

    def test_fp_ops_only_on_fp_pes(self):
        fp_support = [M_128.supports(OpClass.FP_MUL, (r, c))
                      for r in range(16) for c in range(8)]
        assert any(fp_support) and not all(fp_support)

    def test_memory_never_on_pes(self):
        assert not M_128.supports(OpClass.LOAD, (0, 0))
        assert not M_128.supports(OpClass.STORE, (0, 0))

    def test_system_never_supported(self):
        assert not M_128.supports(OpClass.SYSTEM, (0, 0))
