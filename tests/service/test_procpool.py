"""Tests for the supervised multi-process worker pool: crash isolation,
deadline kills with in-place replacement, task-error containment, warm
seeding, and the circuit breaker."""

import dataclasses
import sys
import threading
from functools import partial

import pytest

from repro.harness import Shard, ShardRunner, parallel
from repro.service import (
    CircuitBreaker,
    ControllerPool,
    OffloadTask,
    ProcessWorkerPool,
    WorkerCrash,
    WorkerTaskError,
    WorkerTimeout,
)
from repro.cpu import collect_trace
from repro.isa import Program
from repro.service.procpool import BASELINE_TRACE_ENTRIES, ChipTask
from repro.workloads import (
    GeneratorParams,
    build_kernel,
    generate_kernel,
    kernel_names,
)

#: Set only in the test process; a forked worker would inherit it.
_PARENT_MARK = None


def _read_process_state(payload):
    return _PARENT_MARK, "repro.core" in sys.modules


def cpu_payload(kernel="nn", iterations=24, **extra):
    """A fast worker payload (CPU baseline; no fabric pipeline)."""
    built = build_kernel(kernel, iterations=iterations)
    return OffloadTask(built.program, built.state_factory, mode="cpu",
                       **extra)


def mesa_payload(kernel):
    return OffloadTask(kernel.program, kernel.state_factory,
                       parallelizable=kernel.parallelizable)


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
            pool.execute(OffloadTask(
                cpu_payload().program,
                partial(build_kernel, "no-such-kernel"), mode="cpu"))
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
        records = controller.config_cache.export_regions()
        assert records

        pool = ProcessWorkerPool(workers=1, seed_source=lambda: records)
        pool.start()
        try:
            summary = pool.execute(mesa_payload(kernel))
            assert summary["cache_hit"] is True
            assert summary["total_cycles"] == warm.total_cycles
        finally:
            pool.close()


class TestNewRegions:
    def test_each_cold_request_ships_only_its_own_region(self):
        kernels = [generate_kernel(GeneratorParams(iterations=64, seed=seed))
                   for seed in range(6)]
        pool = ProcessWorkerPool(workers=1)
        pool.start()
        try:
            summaries = [pool.execute(mesa_payload(kernel))
                         for kernel in kernels]
        finally:
            pool.close()
        assert all(not summary["cache_hit"] for summary in summaries)
        assert [len(summary["new_regions"]) for summary in summaries] \
            == [1] * len(kernels)
        digests = {summary["new_regions"][0]["digest"]
                   for summary in summaries}
        assert len(digests) == len(kernels)


    def test_hit_ships_its_key_and_no_records(self):
        kernel = generate_kernel(GeneratorParams(iterations=64, seed=1))
        task = ChipTask(ControllerPool(), isolated=False)
        cold = task(mesa_payload(kernel))
        warm = task(mesa_payload(kernel))
        (record,) = cold["new_regions"]
        assert cold["hit_regions"] == []
        assert warm["cache_hit"] and warm["new_regions"] == []
        assert warm["hit_regions"] == [(record["config"], record["start"],
                                        record["end"], record["digest"])]

    def test_seed_already_resident_is_not_restored(self):
        kernel = generate_kernel(GeneratorParams(iterations=64, seed=1))
        task = ChipTask(ControllerPool(), isolated=False)
        records = task(mesa_payload(kernel))["new_regions"]
        cache = task.pool.controller("M-128").config_cache
        before = cache.stats().insertions
        follower = task(dataclasses.replace(mesa_payload(kernel),
                                            seed=tuple(records)))
        assert follower["cache_hit"]
        assert cache.stats().insertions == before


#: Summary fields a reused CPU baseline must leave bit-identical.
RESULT_FIELDS = ("accelerated", "cache_hit", "reason", "speedup",
                 "total_cycles", "cache_stats", "hit_regions")


def result_fields(summary):
    return {name: summary.get(name) for name in RESULT_FIELDS}


class TestBaselineCache:
    @pytest.mark.parametrize("name", kernel_names())
    def test_baseline_hit_matches_fresh_task(self, name):
        kernel = build_kernel(name, iterations=64)
        task = ChipTask(ControllerPool(), isolated=False)
        cold = task(mesa_payload(kernel))
        warm = task(mesa_payload(kernel))
        assert not cold["baseline_hit"] and warm["baseline_hit"]
        assert "trace" not in warm["phase_seconds"]
        assert "cpu-model" not in warm["phase_seconds"]

        # A fresh task with the same configured regions recomputes the
        # baseline; everything it reports must match the reused one.
        fresh = ChipTask(ControllerPool(), isolated=False)
        fresh.seed(cold["new_regions"])
        expected = fresh(mesa_payload(kernel))
        assert not expected["baseline_hit"]
        assert "trace" in expected["phase_seconds"]
        assert result_fields(warm) == result_fields(expected)

        cpu_task = dataclasses.replace(mesa_payload(kernel), mode="cpu")
        reused = task(cpu_task)
        assert reused["baseline_hit"]
        assert result_fields(reused) == result_fields(
            ChipTask(ControllerPool(), isolated=False)(cpu_task))

    def test_cpu_fallback_baseline_serves_a_cold_execute(self):
        kernel = build_kernel("nn", iterations=64)
        task = ChipTask(ControllerPool(), isolated=False)
        fallback = task(dataclasses.replace(mesa_payload(kernel), mode="cpu"))
        served = task(mesa_payload(kernel))
        expected = ChipTask(ControllerPool(), isolated=False)(
            mesa_payload(kernel))
        assert not fallback["baseline_hit"] and served["baseline_hit"]
        assert not served["cache_hit"]
        assert result_fields(served) == result_fields(expected)

    def test_lambda_factory_never_hits(self):
        kernel = build_kernel("nn", iterations=24)
        task = ChipTask(ControllerPool(), isolated=False)
        for mode in ("cpu", "mesa"):
            payload = OffloadTask(kernel.program,
                                  lambda: kernel.state_factory(), mode=mode)
            assert [task(payload)["baseline_hit"] for _ in range(2)] \
                == [False, False]
        assert not task._baselines

    def test_other_base_address_or_recipe_misses(self):
        kernel = build_kernel("nn", iterations=24)
        program = kernel.program
        shift = 0x1000
        moved = Program(
            tuple(dataclasses.replace(instr, address=instr.address + shift)
                  for instr in program),
            dict(program.labels), program.base_address + shift)
        reseeded = build_kernel("nn", iterations=24, seed=2)
        assert reseeded.program == program
        assert reseeded.state_factory != kernel.state_factory

        task = ChipTask(ControllerPool(), isolated=False)
        assert not task(cpu_payload("nn"))["baseline_hit"]
        for other in (OffloadTask(moved, kernel.state_factory, mode="cpu"),
                      OffloadTask(program, reseeded.state_factory,
                                  mode="cpu")):
            assert not task(other)["baseline_hit"]
            assert task(other)["baseline_hit"]
        assert task(cpu_payload("nn"))["baseline_hit"]
        assert len(task._baselines) == 3

    def test_lru_holds_at_most_cache_capacity(self):
        kernels = [generate_kernel(GeneratorParams(iterations=24, seed=seed))
                   for seed in range(5)]
        payloads = [OffloadTask(kernel.program, kernel.state_factory,
                                mode="cpu") for kernel in kernels]
        task = ChipTask(ControllerPool(cache_capacity=2), isolated=False)
        for payload in payloads:
            assert not task(payload)["baseline_hit"]
            assert len(task._baselines) <= 2
        # The two most recent stay; the oldest was evicted.
        assert task(payloads[-1])["baseline_hit"]
        assert task(payloads[-2])["baseline_hit"]
        assert not task(payloads[0])["baseline_hit"]
        assert len(task._baselines) == 2

    def test_lru_holds_at_most_its_trace_budget(self):
        task = ChipTask(ControllerPool(), isolated=False)
        for iterations in (2048, 4096, 8192):
            summary = task(cpu_payload("nn", iterations=iterations))
            assert not summary["baseline_hit"]
            assert sum(len(trace) for trace, _ in task._baselines.values()) \
                <= BASELINE_TRACE_ENTRIES
        # The newest trace is kept and older ones went oldest first.
        assert len(task._baselines) < 3
        assert task(cpu_payload("nn", iterations=8192))["baseline_hit"]
        assert not task(cpu_payload("nn", iterations=2048))["baseline_hit"]

        # A trace larger than the whole budget is served but not kept, and
        # evicts nothing.
        kept = list(task._baselines)
        oversized = cpu_payload("nn", iterations=16384)
        assert len(collect_trace(oversized.program, oversized.state_factory())) \
            > BASELINE_TRACE_ENTRIES
        served = [task(oversized) for _ in range(2)]
        assert not any(summary["baseline_hit"] for summary in served)
        assert served[0]["total_cycles"] == served[1]["total_cycles"] > 0
        assert list(task._baselines) == kept

    def test_concurrent_callers_share_one_bounded_lru(self):
        kernels = [generate_kernel(GeneratorParams(iterations=16, seed=seed))
                   for seed in range(6)]
        payloads = [OffloadTask(kernel.program, kernel.state_factory,
                                mode="cpu") for kernel in kernels]
        expected = [ChipTask(ControllerPool(), isolated=False)(payload)
                    ["total_cycles"] for payload in payloads]
        task = ChipTask(ControllerPool(cache_capacity=3), isolated=False)
        errors, sizes = [], []

        def hammer(offset):
            try:
                for step in range(24):
                    index = (offset + step) % len(payloads)
                    summary = task(payloads[index])
                    assert summary["total_cycles"] == expected[index]
                    with task._lock:
                        sizes.append(len(task._baselines))
            except Exception as exc:  # reported below, with its thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(sizes) == 4 * 24
        assert max(sizes) <= 3


class TestSpawnStartMethod:
    def test_initializer_and_seed_records_travel_as_spawn_args(
            self, monkeypatch):
        from repro.accel import mesa_config
        from repro.core import MesaController
        from repro.workloads import build_kernel

        monkeypatch.setattr(parallel, "_START_METHOD", "spawn")
        monkeypatch.setattr(sys.modules[__name__], "_PARENT_MARK", "parent")

        outcomes = ShardRunner(workers=2).map(
            _read_process_state,
            [Shard(key=(i,), payload=i) for i in range(3)])
        assert [o.value for o in outcomes] == [(None, True)] * 3, \
            "workers start from a fresh import that loads the simulator stack"

        kernel = build_kernel("nn", iterations=64)
        controller = MesaController(mesa_config("M-128"))
        controller.execute(kernel.program, kernel.state_factory,
                           parallelizable=kernel.parallelizable)
        warm = controller.execute(kernel.program, kernel.state_factory,
                                  parallelizable=kernel.parallelizable)
        records = controller.config_cache.export_regions()

        pool = ProcessWorkerPool(workers=1, seed_source=lambda: records)
        pool.start()
        try:
            summary = pool.execute(mesa_payload(kernel))
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
        # A successful probe closes the circuit.
        breaker.record(key, ok=True)
        assert all(breaker.check(key) is None for _ in range(8))

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
