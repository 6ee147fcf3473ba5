"""Tests for the backpressure-aware client: capped jittered backoff,
retry-through-drop, honoring rejection reasons, and terminal honesty."""

import asyncio
import json
import random

from repro.service import RetryPolicy, ServiceClient


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


FAST = RetryPolicy(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.05)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.5,
                             jitter=0.0)
        rng = random.Random(0)
        sleeps = [policy.backoff_s(a, rng) for a in range(1, 6)]
        assert sleeps == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=10.0,
                             jitter=0.5)
        rng = random.Random(7)
        for attempt in range(1, 6):
            capped = min(10.0, 0.1 * 2 ** (attempt - 1))
            sleep = policy.backoff_s(attempt, rng)
            assert capped * 0.5 <= sleep <= capped


class TestClientRetries:
    def test_drop_then_success_reuses_idempotency_key(self):
        ok = {"status": "completed", "label": "nn", "deduped": True}
        reply, requests = run_with_server(
            ["drop", ok],
            lambda host, port: ServiceClient(
                host, port, client_id="c1", policy=FAST).offload(
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
            client = ServiceClient(host, port, client_id="c1", policy=FAST)
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
                host, port, client_id="c1", policy=FAST).offload(
                    "nn", iterations=8))
        assert reply["status"] == "completed"
        assert len(requests) == 3

    def test_permanent_rejection_not_retried(self):
        rejected = {"status": "error", "reason": "unknown kernel 'zzz'"}
        reply, requests = run_with_server(
            [rejected],
            lambda host, port: ServiceClient(
                host, port, client_id="c1", policy=FAST).offload(
                    "zzz", iterations=8))
        assert reply["status"] == "error"
        assert len(requests) == 1  # no pointless retries

    def test_exhausted_retries_return_last_rejection(self):
        rejected = {"status": "rejected",
                    "reason": "client 'c1' quota exceeded (8 in flight, "
                              "limit 8)"}
        reply, requests = run_with_server(
            [rejected] * 4,
            lambda host, port: ServiceClient(
                host, port, client_id="c1", policy=FAST).offload(
                    "nn", iterations=8))
        assert reply["status"] == "rejected"
        assert "quota" in reply["reason"]
        assert len(requests) == 4

    def test_unreachable_server_is_terminal_not_raised(self):
        async def scenario():
            # Bind a socket, learn the port, close it: nothing listens.
            server = await asyncio.start_server(lambda r, w: None,
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            server.close()
            await server.wait_closed()
            client = ServiceClient(host, port, client_id="c1",
                                   policy=RetryPolicy(
                                       max_attempts=2,
                                       base_backoff_s=0.01))
            return await client.offload("nn", iterations=8)

        reply = asyncio.run(scenario())
        assert reply["status"] == "unreachable"
        assert "gave up after 2 attempts" in reply["reason"]

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
