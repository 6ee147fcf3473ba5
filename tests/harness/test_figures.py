"""Smoke tests for the figure/table drivers at reduced sizes.

The full-size shape assertions live in ``benchmarks/``; these tests make
sure each driver runs, renders, and keeps its structural contracts at
cheap parameters so `pytest tests/` exercises them too.
"""

import pytest

from repro.accel import M_128
from repro.core import MesaController
from repro.harness import (
    fig11_rodinia,
    fig12_opencgra,
    fig13_breakdown,
    fig14_dynaspam,
    fig15_pe_scaling,
    fig16_amortization,
    table1_area_power,
    table2_config_latency,
)
from repro.harness.figures import _ideal_memory_run
from repro.workloads import build_kernel


class TestFigureDrivers:
    def test_fig11_small(self):
        result = fig11_rodinia(iterations=96, kernels=("nn", "srad"))
        assert len(result.rows) == 2
        text = result.render()
        assert "nn" in text and "geomean" in text
        by_kernel = {r["kernel"]: r for r in result.rows}
        assert by_kernel["nn"]["accelerated_m128"]
        assert not by_kernel["srad"]["accelerated_m128"]

    def test_fig12_small(self):
        result = fig12_opencgra(iterations=96, kernels=("nn", "gaussian"))
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["opencgra_ipc"] > 0
            assert row["mesa_opt_ipc"] >= row["mesa_unopt_ipc"] * 0.9
        assert "OpenCGRA" in result.render()

    def test_fig13_small(self):
        result = fig13_breakdown(iterations=96, kernels=("nn",))
        assert abs(sum(result.area_fractions.values()) - 1.0) < 1e-6
        assert abs(sum(result.power_fractions.values()) - 1.0) < 1e-6
        assert result.memory_plus_compute_energy > 0.5
        assert "component" in result.render()

    def test_fig14_small(self):
        result = fig14_dynaspam(iterations=96, kernels=("nn", "srad"))
        by_kernel = {r["kernel"]: r for r in result.rows}
        assert by_kernel["nn"]["mesa_qualified"]
        assert not by_kernel["srad"]["mesa_qualified"]
        assert result.mean("mesa_speedup") > 0
        assert "DynaSpAM" in result.render()

    def test_fig15_small(self):
        result = fig15_pe_scaling(iterations=192, pe_counts=(16, 64))
        assert result.default_speedup[0] == pytest.approx(1.0)
        assert result.default_speedup[1] > 1.5
        assert result.ideal_scaling == [1.0, 4.0]
        assert "PEs" in result.render()

    def test_fig15_ideal_memory_drive_starts_at_the_loop_entry(self):
        kernel = build_kernel("nn", iterations=96)
        result = MesaController(M_128).execute(
            kernel.program, kernel.state_factory, parallelizable=True)
        run = _ideal_memory_run(kernel, result, 96)
        assert run.iterations == 96
        assert kernel.verify(run.final_state)

    def test_fig16_series(self):
        result = fig16_amortization(checkpoints=(1, 10, 100))
        assert len(result.energy_per_iteration_nj) == 3
        assert (result.energy_per_iteration_nj[0]
                > result.energy_per_iteration_nj[-1])
        assert result.steady_state_nj > 0
        assert "iterations" in result.render()


class TestWorkersAxis:
    """Sharded figures merge in a fixed order: the rendered text is the
    same bytes at any worker count."""

    def test_fig11_renders_identically_over_workers(self):
        serial = fig11_rodinia(iterations=64, workers=1)
        pooled = fig11_rodinia(iterations=64, workers=2)
        assert not serial.degraded and not pooled.degraded
        assert pooled.render() == serial.render()

    def test_fig15_renders_identically_over_workers(self):
        def run(workers):
            return fig15_pe_scaling(iterations=96, pe_counts=(16, 32, 64),
                                    workers=workers)

        serial, pooled = run(1), run(2)
        assert not serial.degraded and not pooled.degraded
        assert serial.pe_counts == [16, 32, 64]
        assert pooled.render() == serial.render()

class TestTableDrivers:
    def test_table1(self):
        result = table1_area_power()
        text = result.render()
        assert "MESA Top" in text
        assert "0.502" in text
        area, power = result.lookup("MESA Top")
        assert area == pytest.approx(0.502)
        with pytest.raises(KeyError):
            result.lookup("nonexistent")

    def test_table2_small(self):
        result = table2_config_latency(iterations=96, kernels=("nn",))
        assert result.mesa_min_cycles > 0
        assert result.mesa_max_cycles >= result.mesa_min_cycles
        text = result.render()
        assert "DORA" in text and "MESA" in text
        assert "us" in result.mesa_latency_text
