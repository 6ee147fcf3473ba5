"""Tests for the supervised multi-process worker pool: crash isolation,
deadline kills with in-place replacement, task-error containment, warm
seeding, and the circuit breaker."""

import sys

import pytest

from repro.harness import Shard, ShardRunner
from repro.service import (
    CircuitBreaker,
    ProcessWorkerPool,
    WorkerCrash,
    WorkerTaskError,
    WorkerTimeout,
)

_BOOT_TOKEN = None
#: Set only in the test process; a forked worker would inherit it.
_PARENT_MARK = None


def _set_boot_token(value):
    global _BOOT_TOKEN
    _BOOT_TOKEN = value


def _read_process_state(payload):
    return _BOOT_TOKEN, _PARENT_MARK


def cpu_payload(kernel="nn", iterations=24, **extra):
    """A fast worker payload (CPU baseline; no fabric pipeline)."""
    payload = {"kernel": kernel, "iterations": iterations,
               "config": "M-128", "mode": "cpu"}
    payload.update(extra)
    return payload


@pytest.fixture(scope="module")
def pool():
    pool = ProcessWorkerPool(workers=2)
    pool.start()
    yield pool
    pool.close()


class TestProcessWorkerPool:
    def test_executes_and_reports_pid(self, pool):
        summary = pool.execute(cpu_payload())
        assert summary["accelerated"] is False
        assert summary["speedup"] == 1.0
        assert summary["pid"] in pool.worker_pids()

    def test_crash_degrades_one_request_and_replaces_worker(self, pool):
        before = set(pool.worker_pids())
        restarts = pool.restarts
        with pytest.raises(WorkerCrash) as excinfo:
            pool.execute(cpu_payload(fault="crash"))
        assert "exit code" in str(excinfo.value)
        assert pool.restarts == restarts + 1
        after = set(pool.worker_pids())
        assert pool.alive() == 2
        # Exactly one worker was replaced; the other kept its pid.
        assert len(before & after) == 1
        # The pool keeps serving.
        assert pool.execute(cpu_payload())["speedup"] == 1.0

    def test_hang_is_killed_at_deadline(self, pool):
        restarts = pool.restarts
        with pytest.raises(WorkerTimeout):
            pool.execute(cpu_payload(fault="hang", hang_s=60.0),
                         timeout_s=0.3)
        assert pool.restarts == restarts + 1
        assert pool.alive() == 2
        assert pool.execute(cpu_payload())["speedup"] == 1.0

    def test_task_error_leaves_worker_alive(self, pool):
        before = set(pool.worker_pids())
        with pytest.raises(WorkerTaskError) as excinfo:
            pool.execute({"kernel": "no-such-kernel", "iterations": 8,
                          "config": "M-128", "mode": "cpu"})
        assert "no-such-kernel" in str(excinfo.value)
        assert set(pool.worker_pids()) == before  # no replacement needed

    def test_sticky_affinity_routes_to_same_worker(self, pool):
        key = ("M-128", "digest-abc")
        first = pool.execute(cpu_payload(), affinity=key)
        second = pool.execute(cpu_payload(), affinity=key)
        assert first["pid"] == second["pid"]


class TestSeeding:
    def test_seeded_worker_boots_warm(self):
        from repro.accel import mesa_config
        from repro.core import MesaController
        from repro.workloads import build_kernel

        kernel = build_kernel("nn", iterations=64)
        controller = MesaController(mesa_config("M-128"))
        result = controller.execute(kernel.program, kernel.state_factory,
                                    parallelizable=kernel.parallelizable)
        assert result.accelerated
        warm = controller.execute(kernel.program, kernel.state_factory,
                                  parallelizable=kernel.parallelizable)
        assert warm.config_cache_hit
        records = controller.export_cache_regions()
        assert records

        pool = ProcessWorkerPool(workers=1, seed_source=lambda: records)
        pool.start()
        try:
            summary = pool.execute({"kernel": "nn", "iterations": 64,
                                    "config": "M-128",
                                    "parallelizable":
                                        kernel.parallelizable,
                                    "mode": "mesa"})
            assert summary["cache_hit"] is True
            assert summary["total_cycles"] == warm.total_cycles
        finally:
            pool.close()


class TestSpawnStartMethod:
    def test_initializer_and_seed_records_travel_as_spawn_args(
            self, monkeypatch):
        from repro.accel import mesa_config
        from repro.core import MesaController
        from repro.workloads import build_kernel

        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        monkeypatch.setattr(sys.modules[__name__], "_PARENT_MARK", "parent")

        outcomes = ShardRunner(
            workers=2, initializer=_set_boot_token,
            initargs=("spawn-warm",)).map(
                _read_process_state,
                [Shard(key=(i,), payload=i) for i in range(3)])
        assert [o.value for o in outcomes] == [("spawn-warm", None)] * 3, \
            "workers start from a fresh import, warmed by the initializer"

        kernel = build_kernel("nn", iterations=64)
        controller = MesaController(mesa_config("M-128"))
        controller.execute(kernel.program, kernel.state_factory,
                           parallelizable=kernel.parallelizable)
        warm = controller.execute(kernel.program, kernel.state_factory,
                                  parallelizable=kernel.parallelizable)
        records = controller.export_cache_regions()

        pool = ProcessWorkerPool(workers=1, seed_source=lambda: records)
        pool.start()
        try:
            summary = pool.execute({"kernel": "nn", "iterations": 64,
                                    "config": "M-128",
                                    "parallelizable":
                                        kernel.parallelizable,
                                    "mode": "mesa"})
        finally:
            pool.close()
        assert summary["cache_hit"] is True
        assert summary["total_cycles"] == warm.total_cycles


class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes(self):
        breaker = CircuitBreaker(threshold=3, probe_interval=4)
        key = ("M-128", "digest")
        for _ in range(3):
            assert breaker.check(key) is None
            breaker.record(key, ok=False, error="boom")
        # Open: requests 1..3 after opening are degraded, the 4th probes.
        outcomes = [breaker.check(key) for _ in range(4)]
        assert [o is None for o in outcomes] == [False, False, False, True]
        assert key in breaker.open_keys()
        # A successful probe closes the circuit.
        breaker.record(key, ok=True)
        assert breaker.check(key) is None
        assert key not in breaker.open_keys()

    def test_success_resets_count(self):
        breaker = CircuitBreaker(threshold=2, probe_interval=8)
        key = ("M-128", "d")
        breaker.record(key, ok=False, error="x")
        breaker.record(key, ok=True)
        breaker.record(key, ok=False, error="x")
        assert breaker.check(key) is None  # never reached threshold

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, probe_interval=8)
        breaker.record(("a",), ok=False, error="x")
        assert breaker.check(("a",)) is not None
        assert breaker.check(("b",)) is None
