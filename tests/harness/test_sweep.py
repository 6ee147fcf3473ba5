"""Tests for the design-space sweep driver."""

import pytest

from repro.accel import AcceleratorConfig, M_128, M_64
from repro.core.configure import CacheStats
from repro.harness import (
    SweepPoint,
    SweepResult,
    pe_count_configs,
    sweep_backends,
)
from repro.workloads import kernel_names


@pytest.fixture(scope="module")
def sweep():
    return sweep_backends(["nn", "srad"], [M_64, M_128], iterations=96)


class TestSweep:
    def test_all_points_present(self, sweep):
        assert len(sweep.points) == 4
        assert sweep.kernels() == ["nn", "srad"]
        assert sweep.configs() == ["M-64", "M-128"]

    def test_point_lookup(self, sweep):
        point = sweep.point("nn", "M-128")
        assert point.accelerated
        assert point.speedup > 1.0
        with pytest.raises(KeyError):
            sweep.point("nn", "M-1024")

    def test_non_qualifying_kernel_marked(self, sweep):
        point = sweep.point("srad", "M-128")
        assert not point.accelerated
        assert point.speedup == 1.0
        assert point.reason

    def test_best_config(self, sweep):
        best = sweep.best_config("nn")
        assert best.config_name in ("M-64", "M-128")
        assert best.speedup == max(
            p.speedup for p in sweep.points if p.kernel == "nn")

    def test_best_config_excludes_degraded_placeholders(self):
        # The degraded placeholder carries speedup=1.0 — it must not beat
        # a genuine sub-1.0x measurement or a cpu-only point.
        result = SweepResult(points=[
            SweepPoint(kernel="nn", config_name="M-64", accelerated=True,
                       speedup=0.8, cycles=100.0),
            SweepPoint(kernel="nn", config_name="M-128", accelerated=False,
                       speedup=1.0, cycles=0.0,
                       reason="shard failed: worker process crashed"),
        ])
        assert result.best_config("nn").config_name == "M-64"

    def test_best_config_all_degraded_raises(self):
        result = SweepResult(points=[
            SweepPoint(kernel="nn", config_name="M-64", accelerated=False,
                       speedup=1.0, cycles=0.0,
                       reason="shard failed: timed out after 5s"),
        ])
        with pytest.raises(KeyError):
            result.best_config("nn")

    def test_best_config_unknown_kernel_raises(self, sweep):
        with pytest.raises(KeyError):
            sweep.best_config("quicksort")

    def test_render_matrix(self, sweep):
        text = sweep.render("speedup")
        assert "M-64" in text and "M-128" in text
        assert "cpu" in text, "non-qualifying cells rendered as 'cpu'"

    def test_render_other_metric(self, sweep):
        text = sweep.render("tile_factor")
        assert "tile_factor" in text

    def test_raising_point_degrades_alone(self):
        result = sweep_backends(["nn", "no-such-kernel"], [M_64],
                                iterations=32)
        assert not result.point("nn", "M-64").degraded
        bad = result.point("no-such-kernel", "M-64")
        assert bad.degraded and "KeyError" in bad.reason
        assert result.degraded_points() == [bad]

    def test_cache_stats_surfaced(self, sweep):
        total = CacheStats()
        for point in sweep.points:
            total = total + point.cache_stats
        assert sweep.cache_stats == total
        assert sweep.cache_stats.misses >= 1, \
            "accelerated points record their config-cache activity"


class TestParallelSweep:
    def test_workers_match_serial_bit_identical(self, sweep):
        pooled = sweep_backends(["nn", "srad"], [M_64, M_128],
                                iterations=96, workers=2)
        assert pooled.points == sweep.points
        assert pooled.cache_stats == sweep.cache_stats
        assert pooled.render("speedup") == sweep.render("speedup")

    def test_workers_axis_identical_over_every_kernel(self):
        # Every Rodinia kernel on two configs overflows the 8-entry config
        # cache, so any state shared between points (evictions included)
        # would make the output depend on which points share a worker.
        def run(workers):
            return sweep_backends(kernel_names(), [M_64, M_128],
                                  iterations=64, workers=workers)

        serial = run(1)
        assert len(serial.points) == 2 * len(kernel_names())
        # workers=2 twice: two pooled runs must agree with each other too.
        for workers in (2, 4, 2):
            pooled = run(workers)
            assert pooled.points == serial.points, f"workers={workers}"
            assert pooled.cache_stats == serial.cache_stats, \
                f"workers={workers}"
            assert pooled.render("speedup") == serial.render("speedup")


class TestDegradedRendering:
    @staticmethod
    def _result():
        return SweepResult(points=[
            SweepPoint(kernel="nn", config_name="M-64", accelerated=True,
                       speedup=3.0, cycles=100.0),
            SweepPoint(kernel="nn", config_name="M-128", accelerated=False,
                       speedup=1.0, cycles=0.0,
                       reason="shard failed: timed out after 5s"),
            SweepPoint(kernel="srad", config_name="M-64", accelerated=False,
                       speedup=1.0, cycles=200.0, reason="serial loop"),
            # (srad, M-128) intentionally absent.
        ])

    def test_missing_point_renders_placeholder(self):
        text = self._result().render("speedup")
        assert "—" in text, "absent point renders a placeholder, not KeyError"

    def test_degraded_point_renders_placeholder_and_footer(self):
        result = self._result()
        assert [p.kernel for p in result.degraded_points()] == ["nn"]
        text = result.render("speedup")
        assert "degraded shards (1):" in text
        assert "nn @ M-128: shard failed: timed out after 5s" in text

    def test_healthy_sweep_has_no_footer(self, sweep):
        assert "degraded" not in sweep.render("speedup")
        assert sweep.degraded_points() == []


class TestPeCountConfigs:
    def test_geometries(self):
        configs = pe_count_configs((16, 128))
        assert [c.num_pes for c in configs] == [16, 128]
        assert all(c.memory_ports == 8 for c in configs)
        assert configs[0].name == "M-16"

    def test_fixed_memory_system(self):
        configs = pe_count_configs((32, 256), lsu_entries=48, memory_ports=4)
        assert all(c.lsu_entries == 48 and c.memory_ports == 4
                   for c in configs)

    def test_larger_arrays_scale_speedup(self):
        sweep = sweep_backends(["kmeans"],
                               pe_count_configs((16, 128)),
                               iterations=192)
        small = sweep.point("kmeans", "M-16")
        large = sweep.point("kmeans", "M-128")
        assert large.speedup >= small.speedup
