"""Tests for the backpressure-aware client: capped jittered backoff,
retry-through-drop, honoring rejection reasons, and terminal honesty."""

import asyncio
import json
import random

import pytest

from repro.service import ServiceClient
from repro.service import client as client_module
from repro.service.client import (
    BASE_BACKOFF_S,
    JITTER,
    MAX_ATTEMPTS,
    MAX_BACKOFF_S,
    backoff_s,
)


class ScriptedServer:
    """A JSON-lines server that replays a script of behaviors.

    Each connection consumes the next behavior: ``"drop"`` closes without
    replying, a dict is sent as the reply verbatim.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.server = None

    async def start(self):
        self.server = await asyncio.start_server(self._handle,
                                                 "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[:2]

    async def _handle(self, reader, writer):
        try:
            line = await reader.readline()
            if not line:
                return
            self.requests.append(json.loads(line))
            behavior = self.script.pop(0) if self.script else {"status": "ok"}
            if behavior == "drop":
                writer.transport.abort()
                return
            writer.write(json.dumps(behavior).encode() + b"\n")
            await writer.drain()
        finally:
            writer.close()

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()


def run_with_server(script, call):
    async def scenario():
        scripted = ScriptedServer(script)
        host, port = await scripted.start()
        try:
            reply = await call(host, port)
        finally:
            await scripted.stop()
        return reply, scripted.requests

    return asyncio.run(scenario())


class NoJitter(random.Random):
    """An RNG whose draws take no jitter off the backoff."""

    def random(self):
        return 0.0


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        sleeps = [backoff_s(a, NoJitter()) for a in range(1, 8)]
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
        assert sleeps[-1] == MAX_BACKOFF_S

    def test_jitter_stays_within_band(self):
        rng = random.Random(7)
        for attempt in range(1, 8):
            capped = min(MAX_BACKOFF_S, BASE_BACKOFF_S * 2 ** (attempt - 1))
            sleep = backoff_s(attempt, rng)
            assert capped * (1 - JITTER) <= sleep <= capped


class TestClientRetries:
    @pytest.fixture(autouse=True)
    def fast_backoff(self, monkeypatch):
        monkeypatch.setattr(client_module, "BASE_BACKOFF_S", 0.01)
        monkeypatch.setattr(client_module, "MAX_BACKOFF_S", 0.05)

    def test_drop_then_success_reuses_idempotency_key(self):
        ok = {"status": "completed", "label": "nn", "deduped": True}
        reply, requests = run_with_server(
            ["drop", ok],
            lambda host, port: ServiceClient(
                host, port, client_id="c1").offload(
                    "nn", iterations=8))
        assert reply["status"] == "completed"
        assert len(requests) == 2
        # Both attempts carried the *same* idempotency key — the server
        # can attach the retry to the original execution.
        assert requests[0]["idem"] == requests[1]["idem"]
        assert requests[0]["idem"]

    def test_distinct_calls_use_distinct_keys(self):
        async def scenario():
            scripted = ScriptedServer([{"status": "completed"},
                                       {"status": "completed"}])
            host, port = await scripted.start()
            client = ServiceClient(host, port, client_id="c1")
            await client.offload("nn", iterations=8)
            await client.offload("nn", iterations=8)
            await scripted.stop()
            return scripted.requests

        requests = asyncio.run(scenario())
        assert requests[0]["idem"] != requests[1]["idem"]

    def test_backpressure_rejection_retried(self):
        rejected = {"status": "rejected",
                    "reason": "queue full (64 waiting, limit 64)"}
        ok = {"status": "completed"}
        reply, requests = run_with_server(
            [rejected, rejected, ok],
            lambda host, port: ServiceClient(
                host, port, client_id="c1").offload(
                    "nn", iterations=8))
        assert reply["status"] == "completed"
        assert len(requests) == 3

    def test_permanent_rejection_not_retried(self):
        rejected = {"status": "error", "reason": "unknown kernel 'zzz'"}
        reply, requests = run_with_server(
            [rejected],
            lambda host, port: ServiceClient(
                host, port, client_id="c1").offload(
                    "zzz", iterations=8))
        assert reply["status"] == "error"
        assert len(requests) == 1  # no pointless retries

    def test_exhausted_retries_return_last_rejection(self):
        rejected = {"status": "rejected",
                    "reason": "client 'c1' quota exceeded (8 in flight, "
                              "limit 8)"}
        reply, requests = run_with_server(
            [rejected] * MAX_ATTEMPTS,
            lambda host, port: ServiceClient(
                host, port, client_id="c1").offload(
                    "nn", iterations=8))
        assert reply["status"] == "rejected"
        assert "quota" in reply["reason"]
        assert len(requests) == MAX_ATTEMPTS

    def test_unreachable_server_is_terminal_not_raised(self):
        async def scenario():
            # Bind a socket, learn the port, close it: nothing listens.
            server = await asyncio.start_server(lambda r, w: None,
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            server.close()
            await server.wait_closed()
            client = ServiceClient(host, port, client_id="c1")
            return await client.offload("nn", iterations=8)

        reply = asyncio.run(scenario())
        assert reply["status"] == "unreachable"
        assert f"gave up after {MAX_ATTEMPTS} attempts" in reply["reason"]

    def test_stats_swallows_transport_errors(self):
        async def scenario():
            server = await asyncio.start_server(lambda r, w: None,
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            server.close()
            await server.wait_closed()
            client = ServiceClient(host, port, client_id="c1")
            return await client.stats()

        assert asyncio.run(scenario()) is None
