"""Tests for the TCP front end's robustness: malformed frames, oversized
frames, pipelining, and the wire surface of the new robustness fields."""

import asyncio
import json

from repro.core import CacheStats
from repro.service import (
    MAX_LINE_BYTES,
    ControllerPool,
    MesaService,
    request_once,
    serve,
)


class InstantController:
    """Controller double that completes immediately."""

    def execute(self, program, state_factory, parallelizable=False):
        class Result:
            accelerated = True
            config_cache_hit = False
            reason = "offloaded"
            speedup_vs_single_core = 2.0
            total_cycles = 100.0
            phase_seconds = {}
            cache_stats = CacheStats()

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
