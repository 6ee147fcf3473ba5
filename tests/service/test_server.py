"""Tests for the asyncio offload server: admission control, coalescing,
cancellation, shared-cache amortization, and the TCP front end."""

import asyncio
import dataclasses
import os
import threading
from collections import Counter

import pytest

from repro.core import CacheStats
from repro.service import (
    AdmissionError,
    ControllerPool,
    FaultPlan,
    MesaService,
    OffloadRequest,
    WorkerCrash,
    WorkerTaskError,
    WorkerTimeout,
    run_self_test,
    serve,
)
from repro.service import procpool
from repro.service import server as server_module
from repro.workloads import build_kernel

from .test_net import request_once

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply the lifecycle rounds.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))


def kernel_request(name="nn", iterations=96, client="local",
                   config="M-128") -> OffloadRequest:
    return OffloadRequest.for_kernel(name, iterations=iterations,
                                     config=config, client=client)


# -- controllable fake chip ---------------------------------------------------


class FakeResult:
    accelerated = True
    config_cache_hit = False
    reason = "offloaded"
    speedup_vs_single_core = 2.0
    total_cycles = 100.0
    phase_seconds = {"execute": 0.001}
    cache_stats = CacheStats()
    trace = ()  # an empty trace: sized, like a real one
    cpu_only = None


class FakeController:
    """Controller double whose execute blocks until released."""

    def __init__(self, fail=False):
        self.release = threading.Event()
        self.calls = 0
        self.fail = fail

    def execute(self, program, state_factory, parallelizable=False,
                baseline=None):
        self.calls += 1
        if not self.release.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("test forgot to release the fake chip")
        if self.fail:
            raise RuntimeError("fabric caught fire")
        return FakeResult()


def fake_service(chip, **kwargs) -> MesaService:
    """An in-process service (``workers=0``) whose every chip is ``chip``."""
    pool = ControllerPool(factory=lambda name: chip)
    return MesaService(pool=pool, workers=0, **kwargs)


async def spin(predicate, timeout=5.0):
    """Yield to the loop until ``predicate()`` holds."""
    async def wait():
        while not predicate():
            await asyncio.sleep(0.005)
    await asyncio.wait_for(wait(), timeout)


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_queue_full_rejected_with_reason(self):
        async def scenario():
            chip = FakeController()
            service = fake_service(chip, max_queue=1)
            await service.start()
            first = asyncio.ensure_future(
                service.offload(kernel_request(client="a")))
            # Wait for the worker to dequeue the first job...
            await spin(lambda: chip.calls == 1)
            # ...then fill the one queue slot and overflow it.
            second = asyncio.ensure_future(
                service.offload(kernel_request(client="b")))
            await spin(lambda: service.stats().queue_depth == 1)
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(kernel_request(client="c"))
            assert "queue full" in excinfo.value.reason
            rejected = await service.offload(kernel_request(client="d"))
            assert rejected.status == "rejected"
            assert "queue full" in rejected.reason
            chip.release.set()
            assert (await first).ok and (await second).ok
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats.rejected_queue_full == 2
        assert stats.submitted == 4 and stats.admitted == 2

    def test_per_client_quota_is_fair(self):
        async def scenario():
            chip = FakeController()
            service = fake_service(chip, max_queue=64, max_per_client=1)
            await service.start()
            first = asyncio.ensure_future(
                service.offload(kernel_request(client="greedy")))
            await spin(lambda: chip.calls == 1)
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(kernel_request(client="greedy"))
            assert "quota" in excinfo.value.reason
            # Another client is unaffected by the greedy one's load.
            other = asyncio.ensure_future(
                service.offload(kernel_request(client="polite")))
            chip.release.set()
            assert (await first).ok and (await other).ok
            # The quota frees up once the request finishes.
            again = await service.offload(kernel_request(client="greedy"))
            assert again.ok
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats.rejected_client_quota == 1
        assert stats.completed == 3

    def test_submit_after_close_rejected(self):
        async def scenario():
            service = fake_service(FakeController())
            await service.start()
            await service.close()
            with pytest.raises(AdmissionError):
                service.submit(kernel_request())
            response = await service.offload(kernel_request())
            assert response.status == "rejected"
            assert "shutting down" in response.reason

        asyncio.run(scenario())

    def test_submit_before_start_rejected(self):
        async def scenario():
            service = fake_service(FakeController())
            with pytest.raises(AdmissionError):
                service.submit(kernel_request())

        asyncio.run(scenario())

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            MesaService(max_queue=0)
        with pytest.raises(ValueError):
            MesaService(max_per_client=0)


# -- cancellation -------------------------------------------------------------


class TestCancellation:
    def test_cancel_mid_queue_leaves_pool_healthy(self):
        async def scenario():
            chip = FakeController()
            service = fake_service(chip)
            await service.start()
            first = asyncio.ensure_future(
                service.offload(kernel_request(client="a")))
            await spin(lambda: chip.calls == 1)
            doomed = asyncio.ensure_future(
                service.offload(kernel_request(client="b")))
            await spin(lambda: service.stats().queue_depth == 1)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            chip.release.set()
            assert (await first).ok
            # The pool stays healthy: later jobs run normally and the
            # cancelled client's quota slot was released.
            later = await service.offload(kernel_request(client="b"))
            assert later.ok
            stats = service.stats()
            await service.close()
            return stats, chip.calls

        stats, calls = asyncio.run(scenario())
        assert stats.cancelled == 1
        assert stats.completed == 2
        assert calls == 2, "the cancelled job must never reach the chip"
        assert stats.queue_depth == 0 and stats.inflight == 0


# -- execution, failures, shared cache ----------------------------------------


class TestExecution:
    def test_offload_completes(self):
        async def scenario():
            service = MesaService(workers=1)
            await service.start()
            response = await service.offload(kernel_request())
            stats = service.stats()
            await service.close()
            return response, stats

        response, stats = asyncio.run(scenario())
        assert response.ok and response.accelerated
        assert not response.cache_hit, "a cold region must miss"
        assert response.speedup > 1.0
        assert response.execute_seconds > 0
        assert response.total_seconds >= response.execute_seconds
        assert stats.completed == 1 and stats.accelerated == 1
        assert stats.histogram("execute").count == 1
        assert stats.histogram("execute_cold").count == 1
        assert stats.histogram("phase:translate").count == 1

    def test_sequential_requests_share_cache(self):
        async def scenario():
            service = MesaService(workers=1)
            await service.start()
            cold = await service.offload(kernel_request())
            warm = await service.offload(kernel_request())
            stats = service.stats()
            await service.close()
            return cold, warm, stats

        cold, warm, stats = asyncio.run(scenario())
        assert not cold.cache_hit and warm.cache_hit
        assert stats.cache.hits == 1 and stats.cache.misses == 1
        assert stats.cache_hits == 1
        assert stats.histogram("execute_warm").count == 1

    def test_concurrent_identical_regions_coalesce(self):
        """The satellite contract: N identical in-flight regions produce
        ONE translation — one miss, N−1 hits — via coalescing."""
        async def scenario():
            service = MesaService(workers=3)
            await service.start()
            responses = await asyncio.gather(*[
                service.offload(kernel_request(client=f"c{i}"))
                for i in range(3)])
            stats = service.stats()
            await service.close()
            return responses, stats

        responses, stats = asyncio.run(scenario())
        assert all(r.ok and r.accelerated for r in responses)
        assert stats.cache.misses == 1, "exactly one translation"
        assert stats.cache.hits == 2, "the other two must reuse it"
        assert stats.cache.insertions == 1
        assert stats.coalesced == 2
        assert sum(1 for r in responses if r.coalesced) == 2
        assert sum(1 for r in responses if r.cache_hit) == 2

    def test_failed_execution_is_contained(self):
        async def scenario():
            chip = FakeController(fail=True)
            chip.release.set()
            service = fake_service(chip)
            await service.start()
            failed = await service.offload(kernel_request())
            chip.fail = False
            recovered = await service.offload(kernel_request())
            stats = service.stats()
            await service.close()
            return failed, recovered, stats

        failed, recovered, stats = asyncio.run(scenario())
        assert failed.status == "failed"
        assert "fabric caught fire" in failed.reason
        assert recovered.ok
        assert stats.failed == 1 and stats.completed == 1

    def test_distinct_configs_use_distinct_chips(self):
        async def scenario():
            service = MesaService(workers=0)
            await service.start()
            await service.offload(kernel_request(config="M-128"))
            await service.offload(kernel_request(config="M-64"))
            chips = sorted(service.pool._controllers)
            stats = service.stats()
            await service.close()
            return chips, stats

        chips, stats = asyncio.run(scenario())
        assert chips == ["M-128", "M-64"]
        # Different backend => different chip => both runs are cold.
        assert stats.cache.misses == 2 and stats.cache.hits == 0

    def test_stats_delta_reports_interval(self):
        async def scenario():
            service = MesaService(workers=1)
            await service.start()
            await service.offload(kernel_request())
            mid = service.stats()
            await service.offload(kernel_request())
            delta = service.stats() - mid
            await service.close()
            return delta

        delta = asyncio.run(scenario())
        assert delta.completed == 1
        assert delta.cache.hits == 1 and delta.cache.misses == 0
        assert delta.histogram("execute").count == 1
        assert delta.uptime_seconds > 0


# -- wire front end and self-test ---------------------------------------------


class TestNet:
    def test_tcp_roundtrip(self):
        async def scenario():
            service = MesaService(workers=1)
            await service.start()
            server = await serve(service, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            ping = await request_once(host, port, {"op": "ping"})
            offload = await request_once(host, port, {
                "op": "offload", "kernel": "nn", "iterations": 96,
                "client": "remote-1"})
            stats = await request_once(host, port, {"op": "stats"})
            bogus = await request_once(host, port, {"op": "explode"})
            unknown = await request_once(host, port, {
                "op": "offload", "kernel": "quicksort"})
            server.close()
            await server.wait_closed()
            await service.close()
            return ping, offload, stats, bogus, unknown

        ping, offload, stats, bogus, unknown = asyncio.run(scenario())
        assert ping == {"status": "ok"}
        assert offload["status"] == "completed"
        assert offload["accelerated"] is True
        assert offload["label"] == "nn"
        assert stats["completed"] == 1
        assert stats["cache"]["misses"] == 1
        assert "execute" in stats["latency"]
        assert bogus["status"] == "error"
        assert unknown["status"] == "error"
        assert "quicksort" in unknown["reason"]


class TestSelfTest:
    def test_self_test_passes(self):
        ok, report = run_self_test(requests=12, iterations=64, workers=2)
        assert ok, report
        assert "[ok] shared cache amortized" in report
        assert "hit rate" in report


class TestRequestHelpers:
    def test_for_kernel_carries_metadata(self):
        request = kernel_request("kmeans")
        kernel = build_kernel("kmeans", iterations=96)
        assert request.label == "kmeans"
        assert request.parallelizable == kernel.parallelizable
        assert request.coalesce_key()[0] == "M-128"

    def test_coalesce_key_distinguishes_content_and_backend(self):
        a = kernel_request("nn")
        b = kernel_request("nn")
        c = kernel_request("kmeans")
        d = kernel_request("nn", config="M-64")
        assert a.coalesce_key() == b.coalesce_key()
        assert a.coalesce_key() != c.coalesce_key()
        assert a.coalesce_key() != d.coalesce_key()


# -- deadlines, dedupe, graceful drain ----------------------------------------


class TestDeadlines:
    def test_queue_expired_request_never_occupies_the_chip(self):
        async def scenario():
            chip = FakeController()
            service = fake_service(chip)
            await service.start()
            blocker = asyncio.ensure_future(
                service.offload(kernel_request(client="a")))
            await spin(lambda: chip.calls == 1)
            doomed = asyncio.ensure_future(service.offload(
                dataclasses.replace(kernel_request("kmeans", client="b"),
                                    timeout_s=0.02)))
            await asyncio.sleep(0.1)  # deadline passes while queued
            chip.release.set()
            timed_out = await doomed
            assert (await blocker).ok
            # The pool is still healthy for the same client afterwards.
            later = await service.offload(kernel_request(client="b"))
            stats = service.stats()
            await service.close()
            return timed_out, later, stats, chip.calls

        timed_out, later, stats, calls = asyncio.run(scenario())
        assert timed_out.status == "timeout"
        assert "while queued" in timed_out.reason
        assert later.ok
        assert stats.timed_out == 1 and stats.completed == 2
        assert calls == 2, "the expired job must never reach the chip"
        assert stats.queue_depth == 0 and stats.inflight == 0

    def test_request_default_timeout_from_service(self):
        async def scenario():
            chip = FakeController()
            service = fake_service(chip, request_timeout_s=0.05)
            await service.start()
            response = await service.offload(kernel_request())
            await spin(lambda: True)
            chip.release.set()  # un-wedge the detached executor thread
            stats = service.stats()
            await service.close()
            return response, stats

        response, stats = asyncio.run(scenario())
        assert response.status == "timeout"
        assert stats.timed_out == 1


class TestDedupe:
    def test_identical_keys_execute_once(self):
        async def scenario():
            chip = FakeController()
            chip.release.set()
            service = fake_service(chip)
            await service.start()
            request = kernel_request()
            request = dataclasses.replace(request, idempotency_key="idem-1")
            first = await service.offload(request)
            second = await service.offload(request)
            stats = service.stats()
            await service.close()
            return first, second, stats, chip.calls

        first, second, stats, calls = asyncio.run(scenario())
        assert first.ok and not first.deduped
        assert second.ok and second.deduped
        assert calls == 1
        assert stats.deduped == 1 and stats.completed == 1

    def test_inflight_retry_attaches_to_leader(self):
        async def scenario():
            chip = FakeController()
            service = fake_service(chip)
            await service.start()
            request = dataclasses.replace(kernel_request(),
                                          idempotency_key="idem-2")
            leader = service.submit(request)
            await spin(lambda: chip.calls == 1)
            follower = service.submit(request)  # still in flight
            chip.release.set()
            first, second = await asyncio.gather(leader, follower)
            stats = service.stats()
            await service.close()
            return first, second, stats, chip.calls

        first, second, stats, calls = asyncio.run(scenario())
        assert first.ok and second.ok and second.deduped
        assert calls == 1
        assert stats.admitted == 1 and stats.deduped == 1

    def test_failed_responses_are_not_replayed(self):
        async def scenario():
            chip = FakeController(fail=True)
            chip.release.set()
            service = fake_service(chip)
            await service.start()
            request = dataclasses.replace(kernel_request(),
                                          idempotency_key="idem-3")
            first = await service.offload(request)
            chip.fail = False
            second = await service.offload(request)
            stats = service.stats()
            await service.close()
            return first, second, stats, chip.calls

        first, second, stats, calls = asyncio.run(scenario())
        assert first.status == "failed"
        assert second.ok and not second.deduped, \
            "a failure must not satisfy the retry"
        assert calls == 2

    def test_distinct_clients_never_collide(self):
        async def scenario():
            chip = FakeController()
            chip.release.set()
            service = fake_service(chip)
            await service.start()
            first = await service.offload(dataclasses.replace(
                kernel_request(client="a"), idempotency_key="shared"))
            second = await service.offload(dataclasses.replace(
                kernel_request(client="b"), idempotency_key="shared"))
            await service.close()
            return first, second, chip.calls

        first, second, calls = asyncio.run(scenario())
        assert first.ok and second.ok and not second.deduped
        assert calls == 2


class TestGracefulDrain:
    def test_close_finishes_inflight_and_rejects_new(self):
        async def scenario():
            chip = FakeController()
            service = fake_service(chip)
            await service.start()
            inflight = asyncio.ensure_future(
                service.offload(kernel_request(client="a")))
            await spin(lambda: chip.calls == 1)
            closing = asyncio.ensure_future(service.close())
            await asyncio.sleep(0.02)
            # New work is refused while draining...
            rejected = await service.offload(kernel_request(client="b"))
            # ...but the in-flight request is finished, not dropped.
            chip.release.set()
            await closing
            finished = await inflight
            stats = service.stats()
            return rejected, finished, stats

        rejected, finished, stats = asyncio.run(scenario())
        assert rejected.status == "rejected"
        assert "shutting down" in rejected.reason
        assert finished.ok
        assert stats.completed == 1
        assert stats.queue_depth == 0 and stats.inflight == 0

    def test_process_stats_zero_in_process(self):
        async def scenario():
            chip = FakeController()
            chip.release.set()
            service = fake_service(chip)
            await service.start()
            state = service.process_stats()
            await service.close()
            return state

        state = asyncio.run(scenario())
        assert state == {"workers": 0, "alive": 0, "restarts": 0,
                         "pids": []}

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            MesaService(workers=-1)


class FailingPool:
    """Stands in for ``ProcessWorkerPool``: an accelerated request fails
    with a task error (worker healthy), a CPU-baseline request with
    ``degraded_error`` after its worker is killed and replaced."""

    degraded_error: type = WorkerCrash

    def __init__(self, workers, **_):
        self.size = workers
        self.restarts = 0

    def start(self):
        pass

    def close(self):
        pass

    def alive(self):
        return self.size

    def worker_pids(self):
        return [None] * self.size

    def execute(self, payload, timeout_s=None, affinity=None):
        if payload.mode != "cpu":
            raise WorkerTaskError("fabric caught fire")
        self.restarts += 1
        raise self.degraded_error("injected pool failure")


class TestProcessDegradedPath:
    @pytest.mark.parametrize("error, status, counter", [
        (WorkerTimeout, "timeout", "timed_out"),
        (WorkerCrash, "failed", "worker_crashes"),
    ])
    def test_pool_failure_on_degraded_request(self, monkeypatch, error,
                                              status, counter):
        pool_type = type("Pool", (FailingPool,), {"degraded_error": error})
        monkeypatch.setattr(server_module, "ProcessWorkerPool", pool_type)
        # The first failure opens the circuit; no probe in this test.
        monkeypatch.setattr(procpool, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(procpool, "BREAKER_PROBE_INTERVAL", 100)

        async def scenario():
            service = MesaService(workers=1)
            await service.start()
            first = await service.offload(kernel_request(iterations=24))
            degraded = await service.offload(kernel_request(iterations=24))
            stats = service.stats()
            restarts = service.process_stats()["restarts"]
            await service.close()
            return first, degraded, stats, restarts

        first, degraded, stats, restarts = asyncio.run(scenario())
        assert first.status == "failed", "opens the circuit"
        assert degraded.status == status
        assert "injected pool failure" in degraded.reason
        assert getattr(stats, counter) == 1
        assert stats.degraded == 0
        assert stats.worker_restarts == restarts == 1


# -- one terminal path per request ----------------------------------------------


#: How long a request labelled "slow" sleeps before it executes.
HANG_S = 0.3


def lifecycle_request(name, iterations=24, label=None, timeout_s=None,
                      config="M-128") -> OffloadRequest:
    return dataclasses.replace(
        kernel_request(name, iterations=iterations, config=config),
        label=label or name, timeout_s=timeout_s)


async def lifecycle_round(service, lanes, index):
    """One request down every terminal path: each case's expected status
    and its response (None for a caller that cancelled)."""
    name = ("nn", "pathfinder")[index % 2]
    outcomes = []

    async def response_of(future):
        try:
            return await future
        except asyncio.CancelledError:
            return None

    # Completions, and coalesced followers when two lanes take identical
    # requests at once.
    group = await asyncio.gather(*[
        service.offload(lifecycle_request(name)) for _ in range(lanes + 1)])
    outcomes += [("completed", response) for response in group]
    assert sum(response.coalesced for response in group) == lanes - 1

    # Every lane busy with a slow request; the queued ones behind them are
    # cancelled or expire before a lane frees.
    blockers = [service.submit(lifecycle_request(name, label="slow"))
                for _ in range(lanes)]
    await spin(lambda: service.stats().inflight == lanes)
    queued_cancel = service.submit(lifecycle_request(name))
    queued_expire = service.submit(lifecycle_request(name, timeout_s=0.05))
    queued_cancel.cancel()
    outcomes += [("completed", await future) for future in blockers]
    outcomes.append(("cancelled", await response_of(queued_cancel)))
    expired = await queued_expire
    assert "while queued" in expired.reason
    outcomes.append(("timeout", expired))

    # Cancelled while executing: the execution finishes, and the caller's
    # cancellation is the request's one outcome.
    executing = service.submit(lifecycle_request(name, label="slow"))
    await spin(lambda: service.stats().inflight == 1)
    executing.cancel()
    outcomes.append(("cancelled", await response_of(executing)))
    await spin(lambda: service.stats().inflight == 0)

    # Expired while executing: the worker is killed, or the in-process
    # task detached (on its own chip, so it runs alone when it resumes).
    # The timeout counts against the key's circuit: a fresh key per round.
    overrun = await service.offload(lifecycle_request(
        name, iterations=26 + 2 * index, label="slow",
        timeout_s=HANG_S / 3, config="M-64"))
    assert "execution exceeded" in overrun.reason
    outcomes.append(("timeout", overrun))

    # A failing chip opens its key's circuit; the next request for the
    # key is served degraded.  A fresh key per round.
    poison = lifecycle_request(name, iterations=25 + 2 * index,
                               label="poison")
    outcomes.append(("failed", await service.offload(poison)))
    outcomes.append(("degraded", await service.offload(poison)))
    return outcomes


class TestLifecycle:
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_terminal_counters_sum_to_admitted(self, monkeypatch, workers):
        # The first failure opens a circuit; no half-open probe in this test.
        monkeypatch.setattr(procpool, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(procpool, "BREAKER_PROBE_INTERVAL", 1000)
        rounds = FUZZ_SCALE
        lanes = max(workers, 1)

        async def scenario():
            service = MesaService(
                max_queue=64, max_per_client=64, workers=workers,
                fault_plan=FaultPlan(hang_kernels=("slow",),
                                     crash_kernels=("poison",),
                                     hang_s=HANG_S))
            await service.start()
            outcomes = []
            for index in range(rounds):
                outcomes += await lifecycle_round(service, lanes, index)
            await service.close()
            return outcomes, service.stats()

        outcomes, stats = asyncio.run(scenario())
        assert [expected for expected, _ in outcomes] == [
            response.status if response else "cancelled"
            for _, response in outcomes]
        tally = Counter(expected for expected, _ in outcomes)
        assert stats.admitted == len(outcomes)
        assert (stats.completed, stats.failed, stats.timed_out,
                stats.degraded, stats.cancelled) == (
            tally["completed"], tally["failed"], tally["timeout"],
            tally["degraded"], tally["cancelled"])
        assert (stats.completed + stats.failed + stats.timed_out
                + stats.degraded + stats.cancelled) == stats.admitted
        # Only completed requests count as accelerated or as hits.
        completed = [response for _, response in outcomes
                     if response and response.ok]
        assert stats.accelerated == sum(r.accelerated for r in completed)
        assert stats.cache_hits == sum(r.cache_hit for r in completed)
        assert stats.histogram("total").count \
            == stats.completed + stats.degraded
        # The group's and the blockers' followers.
        assert stats.coalesced == 2 * (lanes - 1) * rounds
        assert stats.queue_depth == 0 and stats.inflight == 0
