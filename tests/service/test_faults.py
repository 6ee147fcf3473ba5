"""Deterministic fault-injection suite: injected crashes, hangs,
connection drops, and corrupt snapshots must each degrade exactly what
they touch — every in-flight request reaches a terminal status, counters
stay consistent, and retries never double-execute."""

import asyncio
import os
import threading
from types import SimpleNamespace

import pytest

from repro.core import CacheStats
from repro.service import (
    TERMINAL_STATUSES,
    ControllerPool,
    FaultPlan,
    MesaService,
    OffloadRequest,
    RetryPolicy,
    ServiceClient,
    run_chaos_test,
    serve,
)

FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))


class CountingController:
    """Controller double that counts executions (dedupe assertions)."""

    def __init__(self):
        self.calls = 0
        self.lock = threading.Lock()

    def execute(self, program, state_factory, parallelizable=False,
                trace=None, cpu_only=None):
        with self.lock:
            self.calls += 1

        class Result:
            accelerated = True
            config_cache_hit = False
            reason = "offloaded"
            speedup_vs_single_core = 2.0
            total_cycles = 100.0
            phase_seconds = {}
            cache_stats = CacheStats()
            trace = ()  # an empty trace: sized, like a real one
            cpu_only = None

        return Result()

    def cpu_baseline(self, program, state_factory):
        return (), SimpleNamespace(cycles=200)  # an empty trace


def counting_service(chip, **kwargs):
    """An in-process service (``workers=0``) whose every chip is ``chip``."""
    return MesaService(pool=ControllerPool(factory=lambda name: chip),
                       workers=0, **kwargs)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=3, crash_rate=0.3, hang_rate=0.2,
                         drop_rate=0.25)
        first = [plan.execution_fault(i, "nn") for i in range(64)]
        second = [plan.execution_fault(i, "nn") for i in range(64)]
        assert first == second
        assert [plan.drops_connection(i) for i in range(64)] \
            == [plan.drops_connection(i) for i in range(64)]
        assert any(f == "crash" for f in first)
        assert any(f == "hang" for f in first)

    def test_sites_draw_independently(self):
        plan = FaultPlan(seed=3, crash_rate=1.0, drop_rate=0.0)
        assert plan.execution_fault(0) == "crash"
        assert not plan.drops_connection(0)

    def test_kernel_pinned_faults(self):
        plan = FaultPlan(seed=0, crash_kernels=("lud",),
                         hang_kernels=("srad",))
        assert plan.execution_fault(5, "lud") == "crash"
        assert plan.execution_fault(5, "srad") == "hang"
        assert plan.execution_fault(5, "nn") is None


class TestInjectedCrashes:
    def test_breaker_cannot_be_switched_off(self):
        with pytest.raises(ValueError):
            MesaService(workers=0, breaker_threshold=0)

    def test_crash_kernel_trips_breaker_to_degraded(self):
        """A region that always crashes ends up circuit-broken: requests
        get a structured CPU-baseline response, not an error storm."""

        async def scenario():
            service = MesaService(
                workers=1,
                fault_plan=FaultPlan(seed=1, crash_kernels=("nn",)),
                breaker_threshold=2, breaker_probe_interval=100)
            await service.start()
            statuses = []
            for _ in range(5):
                response = await service.offload(
                    OffloadRequest.for_kernel("nn", iterations=24))
                statuses.append(response.status)
            stats = service.stats()
            await service.close()
            assert statuses[:2] == ["failed", "failed"]
            assert statuses[2:] == ["degraded"] * 3
            assert stats.degraded == 3

        asyncio.run(scenario())

    def test_degraded_response_is_cpu_baseline(self):
        async def scenario():
            service = MesaService(
                workers=1,
                fault_plan=FaultPlan(seed=1, crash_kernels=("nn",)),
                breaker_threshold=1, breaker_probe_interval=100)
            await service.start()
            first = await service.offload(
                OffloadRequest.for_kernel("nn", iterations=24))
            second = await service.offload(
                OffloadRequest.for_kernel("nn", iterations=24))
            await service.close()
            assert first.status == "failed"
            assert second.status == "degraded"
            assert not second.accelerated
            assert second.speedup == 1.0
            assert second.total_cycles > 0
            assert "circuit open" in second.reason

        asyncio.run(scenario())

    def test_probe_closes_circuit_after_recovery(self):
        chip = CountingController()
        fail_until = {"n": 2}

        real_execute = chip.execute

        def flaky_execute(program, state_factory, parallelizable=False,
                          **baseline):
            if fail_until["n"] > 0:
                fail_until["n"] -= 1
                raise RuntimeError("transient fabric fault")
            return real_execute(program, state_factory, parallelizable,
                                **baseline)

        chip.execute = flaky_execute

        async def scenario():
            service = counting_service(chip, breaker_threshold=2,
                                       breaker_probe_interval=2)
            await service.start()
            request = OffloadRequest.for_kernel("nn", iterations=24)
            statuses = [
                (await service.offload(request)).status for _ in range(6)]
            await service.close()
            # 2 failures open the circuit; the first open request
            # degrades, the second probes (succeeds, closing it), then
            # normal completions resume.
            assert statuses == ["failed", "failed", "degraded",
                                "completed", "completed", "completed"]

        asyncio.run(scenario())


class TestInjectedHangs:
    def test_hung_request_times_out_and_pool_survives(self):
        async def scenario():
            service = MesaService(
                workers=1,
                fault_plan=FaultPlan(seed=1, hang_kernels=("nn",),
                                     hang_s=0.4))
            await service.start()
            hung = await service.offload(
                OffloadRequest.for_kernel("nn", iterations=24),
                timeout_s=0.05)
            assert hung.status == "timeout"
            # The hung worker is killed and replaced; the service keeps
            # serving other kernels.
            healthy = await service.offload(
                OffloadRequest.for_kernel("pathfinder", iterations=24))
            stats = service.stats()
            await service.close()
            assert healthy.status == "completed"
            assert stats.timed_out == 1

        asyncio.run(scenario())


class TestConnectionDrops:
    def test_retry_after_drop_never_double_executes(self):
        """A dropped connection after execution: the client retries with
        the same idempotency key and attaches to the original run."""

        class DropFirst(FaultPlan):
            def drops_connection(self, index):
                return index == 0

        chip = CountingController()

        async def scenario():
            service = counting_service(chip)
            await service.start()
            server = await serve(service, "127.0.0.1", 0,
                                 fault_plan=DropFirst())
            host, port = server.sockets[0].getsockname()[:2]
            client = ServiceClient(
                host, port, client_id="c1",
                policy=RetryPolicy(base_backoff_s=0.2, max_attempts=4),
                seed=3)
            reply = await client.offload("nn", iterations=24)
            stats = service.stats()
            server.close()
            await server.wait_closed()
            await service.close()
            return reply, stats

        reply, stats = asyncio.run(scenario())
        assert reply["status"] == "completed"
        # The reply to the first attempt was lost *after* execution; the
        # retry attached to that execution instead of re-running it.
        assert reply["deduped"] is True
        assert chip.calls == 1
        assert stats.completed == 1 and stats.deduped == 1


class TestChaos:
    def test_chaos_run_reaches_terminal_statuses(self):
        requests = 10 * FUZZ_SCALE
        ok, report = run_chaos_test(requests=requests, iterations=32,
                                    workers=2, seed=11)
        assert ok, report
        assert "FAIL" not in report

    def test_terminal_statuses_cover_every_outcome(self):
        assert set(TERMINAL_STATUSES) == {
            "completed", "rejected", "failed", "cancelled", "timeout",
            "degraded"}
