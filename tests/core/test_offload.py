"""Tests for the offload cost model (paper §5.1)."""

import pytest

from repro.core import OffloadCostModel


class TestOffloadCosts:
    def test_offload_includes_drain_and_state(self):
        model = OffloadCostModel(pipeline_drain_cycles=20,
                                 cycles_per_register=2, handshake_cycles=5)
        assert model.offload_cycles(live_in_registers=8) == 20 + 5 + 16

    def test_return_cheaper_than_offload(self):
        model = OffloadCostModel()
        assert model.return_cycles(4) < model.offload_cycles(4)

    def test_scales_with_registers(self):
        model = OffloadCostModel()
        assert model.offload_cycles(10) > model.offload_cycles(2)

    def test_zero_registers_still_costs(self):
        model = OffloadCostModel()
        assert model.offload_cycles(0) > 0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            OffloadCostModel(pipeline_drain_cycles=-1)
