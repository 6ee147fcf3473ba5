"""Tests for the experiment runner."""

import pytest

from repro.accel import M_128, M_64
from repro.harness import ExperimentRunner
from repro.workloads import kernel_names

#: Each kernel's hot loop at 64 iterations as ``(first, last)`` instruction
#: address: the loop the loop-stream detector ranks hottest, which OpenCGRA
#: schedules (Fig. 12) and DynaSpAM maps (Fig. 14).  A kernel or detector
#: change that moves one must update this table on purpose.
HOT_LOOPS = {
    "backprop": (0x100c, 0x1028),
    "bfs": (0x1010, 0x1030),
    "btree": (0x1010, 0x103c),
    "cfd": (0x1014, 0x1050),
    "gaussian": (0x100c, 0x102c),
    "heartwall": (0x100c, 0x1048),
    "hotspot": (0x101c, 0x106c),
    "hotspot3d": (0x1014, 0x105c),
    "kmeans": (0x100c, 0x1058),
    "lavamd": (0x100c, 0x106c),
    "leukocyte": (0x1010, 0x1050),
    "lud": (0x100c, 0x1028),
    "myocyte": (0x1004, 0x1034),
    "nn": (0x100c, 0x103c),
    "nw": (0x101c, 0x105c),
    "particlefilter": (0x100c, 0x1034),
    "pathfinder": (0x101c, 0x1054),
    "srad": (0x100c, 0x1040),
    "streamcluster": (0x1010, 0x1054),
}


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(iterations=96)


@pytest.fixture(scope="module")
def runner64():
    return ExperimentRunner(iterations=64)


def test_hot_loops_cover_every_kernel():
    assert set(HOT_LOOPS) == set(kernel_names())


@pytest.mark.parametrize("name", sorted(HOT_LOOPS))
def test_hot_loop_range_frozen(runner64, name):
    body = runner64._loop_body(runner64.kernel(name))
    assert (body[0].address, body[-1].address) == HOT_LOOPS[name]


class TestSystems:
    def test_single_core(self, runner):
        result = runner.single_core("nn")
        assert result.system == "single-core"
        assert result.cycles > 0
        assert result.energy_pj > 0

    def test_multicore_faster_than_single_for_parallel(self, runner):
        single = runner.single_core("nn")
        multi = runner.multicore("nn", cores=16)
        assert multi.cycles < single.cycles

    def test_multicore_serial_kernel_no_speedup(self, runner):
        single = runner.single_core("myocyte")
        multi = runner.multicore("myocyte", cores=16)
        assert multi.cycles >= single.cycles * 0.99

    def test_mesa_accelerates_nn(self, runner):
        result = runner.mesa("nn", M_128)
        assert result.accelerated
        assert result.cycles > 0
        assert result.energy_pj > 0
        assert "mesa" in result.details

    def test_mesa_rejects_srad(self, runner):
        result = runner.mesa("srad", M_128)
        assert not result.accelerated
        single = runner.single_core("srad")
        assert result.cycles == pytest.approx(single.cycles)

    def test_opencgra_schedules_fig12_kernel(self, runner):
        result = runner.opencgra("gaussian")
        assert result.details["ipc"] > 0
        assert result.cycles > 0

    def test_dynaspam_fits_small_kernel(self, runner):
        result = runner.dynaspam("gaussian")
        assert result.cycles > 0
        assert "mapping" in result.details or "fallback" in result.details

    def test_dynaspam_strips_inner_loops(self, runner):
        """srad's inner loop is unrolled for the in-pipeline fabric."""
        result = runner.dynaspam("srad")
        assert result.cycles > 0

    def test_kernel_cache_reuse(self, runner):
        a = runner.kernel("nn")
        b = runner.kernel("nn")
        assert a is b

    def test_energy_accounting_nonnegative(self, runner):
        for name in ("nn", "bfs", "myocyte"):
            result = runner.mesa(name, M_64)
            assert result.energy_pj >= 0


class TestSpeedupRelationships:
    def test_mesa_beats_single_core_on_parallel_compute(self, runner):
        single = runner.single_core("kmeans")
        mesa = runner.mesa("kmeans", M_128)
        assert mesa.accelerated
        assert mesa.cycles < single.cycles

    def test_mesa_more_energy_efficient_than_multicore(self, runner):
        multi = runner.multicore("kmeans")
        mesa = runner.mesa("kmeans", M_128)
        assert mesa.energy_pj < multi.energy_pj
