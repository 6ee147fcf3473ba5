"""Tests for the TCP front end's robustness: malformed frames, oversized
frames, pipelining, and the wire surface of the new robustness fields."""

import asyncio
import json

from repro.core import CacheStats
from repro.service import (
    MAX_LINE_BYTES,
    ControllerPool,
    LatencyHistogram,
    MesaService,
    OffloadResponse,
    ServiceStats,
    response_to_json,
    serve,
    stats_to_json,
)


async def request_once(host, port, payload):
    """One request/response round trip over a fresh connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed before replying")
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class InstantController:
    """Controller double that completes immediately."""

    def execute(self, program, state_factory, parallelizable=False,
                baseline=None):
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


async def started_service():
    service = MesaService(
        pool=ControllerPool(factory=lambda name: InstantController()),
        workers=0)
    await service.start()
    server = await serve(service, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return service, server, host, port


async def shutdown(service, server):
    server.close()
    await server.wait_closed()
    await service.close()


class TestMalformedInput:
    def test_garbage_then_valid_on_same_connection(self):
        async def scenario():
            service, server, host, port = await started_service()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # Malformed JSON: structured error, connection survives.
                writer.write(b"{not json]\n")
                # Non-object JSON: also a structured error.
                writer.write(b"[1, 2, 3]\n")
                # Blank line: ignored outright.
                writer.write(b"\n")
                # Then a normal request on the very same connection.
                writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
                await writer.drain()
                replies = [json.loads(await reader.readline())
                           for _ in range(3)]
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                await shutdown(service, server)

        replies = asyncio.run(scenario())
        assert replies[0]["status"] == "error"
        assert replies[1]["status"] == "error"
        assert "JSON object" in replies[1]["reason"]
        assert replies[2]["status"] == "ok"

    def test_unknown_kernel_and_bad_timeout_are_structured(self):
        async def scenario():
            service, server, host, port = await started_service()
            try:
                bad_kernel = await request_once(host, port, {
                    "op": "offload", "kernel": "not-a-kernel"})
                bad_timeout = await request_once(host, port, {
                    "op": "offload", "kernel": "nn", "timeout_s": -1})
                return bad_kernel, bad_timeout
            finally:
                await shutdown(service, server)

        bad_kernel, bad_timeout = asyncio.run(scenario())
        assert bad_kernel["status"] == "error"
        assert "not-a-kernel" in bad_kernel["reason"]
        assert bad_timeout["status"] == "error"
        assert "timeout_s" in bad_timeout["reason"]


class TestOversizedFrames:
    def test_oversized_frame_rejected_connection_survives(self):
        async def scenario():
            service, server, host, port = await started_service()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # A frame past the cap, then a valid request behind it.
                writer.write(b"x" * (MAX_LINE_BYTES + 4096) + b"\n")
                writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
                await writer.drain()
                oversized = json.loads(await reader.readline())
                ping = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return oversized, ping
            finally:
                await shutdown(service, server)

        oversized, ping = asyncio.run(scenario())
        assert oversized["status"] == "error"
        assert "exceeds" in oversized["reason"]
        assert ping["status"] == "ok"

    def test_oversized_frame_without_newline_at_eof(self):
        async def scenario():
            service, server, host, port = await started_service()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"y" * (MAX_LINE_BYTES + 4096))
                await writer.drain()
                writer.write_eof()
                reply = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return reply
            finally:
                await shutdown(service, server)

        reply = asyncio.run(scenario())
        assert reply["status"] == "error"


class TestPipelining:
    def test_many_requests_one_connection(self):
        async def scenario():
            service, server, host, port = await started_service()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for index in range(5):
                    writer.write(json.dumps({
                        "op": "offload", "kernel": "nn", "iterations": 8,
                        "client": f"c{index}"}).encode() + b"\n")
                await writer.drain()
                replies = [json.loads(await reader.readline())
                           for _ in range(5)]
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                await shutdown(service, server)

        replies = asyncio.run(scenario())
        assert all(r["status"] == "completed" for r in replies)
        assert all("deduped" in r for r in replies)


class TestStatsSurface:
    def test_stats_expose_robustness_counters(self):
        async def scenario():
            service, server, host, port = await started_service()
            try:
                return await request_once(host, port, {"op": "stats"})
            finally:
                await shutdown(service, server)

        stats = asyncio.run(scenario())
        for key in ("timed_out", "degraded", "deduped", "worker_crashes",
                    "worker_restarts", "checkpoints_saved",
                    "regions_restored"):
            assert key in stats, key


#: The wire format, pinned key by key: a client parses these names.
RESPONSE_KEYS = {
    "status", "label", "client", "reason", "accelerated", "cache_hit",
    "coalesced", "deduped", "speedup", "total_cycles", "queue_seconds",
    "execute_seconds", "total_seconds",
}
COUNTERS = (
    "submitted", "admitted", "rejected_queue_full", "rejected_client_quota",
    "completed", "failed", "cancelled", "timed_out", "degraded", "coalesced",
    "deduped", "accelerated", "cache_hits", "baseline_hits", "worker_crashes",
    "worker_restarts", "checkpoints_saved", "regions_restored",
)
GAUGES = ("queue_depth", "inflight")
STATS_KEYS = {*COUNTERS, *GAUGES, "uptime_seconds", "throughput", "cache",
              "latency"}


def histogram(*seconds):
    hist = LatencyHistogram()
    for value in seconds:
        hist.record(value)
    return hist.snapshot()


def snapshot(scale, uptime, latency):
    """A snapshot whose every counter holds a distinct multiple of scale."""
    return ServiceStats(
        **{name: scale * (i + 1) for i, name in enumerate(COUNTERS)},
        **{name: 100 * scale + i for i, name in enumerate(GAUGES)},
        cache=CacheStats(hits=3 * scale, misses=scale, evictions=scale,
                         insertions=2 * scale),
        uptime_seconds=uptime, latency=latency)


class TestWireFormat:
    def test_response_keys_and_values(self):
        response = OffloadResponse(
            label="nn", client="c1", status="completed", reason="offloaded",
            accelerated=True, cache_hit=True, coalesced=True, deduped=True,
            speedup=2.5, total_cycles=100.0, queue_seconds=0.25,
            execute_seconds=0.5, total_seconds=0.75)
        payload = response_to_json(response)
        assert set(payload) == RESPONSE_KEYS
        for key in RESPONSE_KEYS:
            assert payload[key] == getattr(response, key), key
        assert json.loads(json.dumps(payload)) == payload

    def test_stats_keys_and_values(self):
        stats = snapshot(2, uptime=4.0,
                         latency={"execute": histogram(0.001, 0.002)})
        payload = stats_to_json(stats)
        assert set(payload) == STATS_KEYS
        for key in (*COUNTERS, *GAUGES, "uptime_seconds"):
            assert payload[key] == getattr(stats, key), key
        assert payload["throughput"] == stats.completed / 4.0
        assert payload["cache"] == {"hits": 6, "misses": 2, "evictions": 2,
                                    "insertions": 4, "hit_rate": 0.75}
        assert set(payload["latency"]) == {"execute"}
        execute = stats.latency["execute"]
        assert payload["latency"]["execute"] == {
            "count": 2, "mean": execute.mean, "p50": execute.p50,
            "p99": execute.p99}
        assert json.loads(json.dumps(payload)) == payload

    def test_subtraction_covers_every_counter_and_keeps_gauges(self):
        earlier = snapshot(1, uptime=1.0,
                           latency={"execute": histogram(0.001)})
        later = snapshot(10, uptime=5.0, latency={
            "execute": histogram(0.001, 0.002, 0.004),
            "queue_wait": histogram(0.003)})
        delta = later - earlier
        for i, name in enumerate(COUNTERS):
            assert getattr(delta, name) == 9 * (i + 1), name
        for i, name in enumerate(GAUGES):
            assert getattr(delta, name) == 1000 + i, name
        assert delta.cache == CacheStats(hits=27, misses=9, evictions=9,
                                         insertions=18)
        assert delta.uptime_seconds == 4.0
        assert delta.latency["execute"].count == 2
        assert delta.latency["queue_wait"] == later.latency["queue_wait"]
