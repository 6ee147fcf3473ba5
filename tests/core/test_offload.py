"""Tests for the offload cost model (paper §5.1)."""

from repro.core.offload import (
    CYCLES_PER_REGISTER,
    HANDSHAKE_CYCLES,
    PIPELINE_DRAIN_CYCLES,
    offload_cycles,
    return_cycles,
)


class TestOffloadCosts:
    def test_offload_includes_drain_and_state(self):
        assert offload_cycles(live_in_registers=8) == (
            PIPELINE_DRAIN_CYCLES + HANDSHAKE_CYCLES
            + 8 * CYCLES_PER_REGISTER)

    def test_return_skips_the_drain(self):
        assert return_cycles(4) == HANDSHAKE_CYCLES + 4 * CYCLES_PER_REGISTER

    def test_return_cheaper_than_offload(self):
        assert return_cycles(4) < offload_cycles(4)

    def test_scales_with_registers(self):
        assert offload_cycles(10) > offload_cycles(2)

    def test_zero_registers_still_costs(self):
        assert offload_cycles(0) > 0
