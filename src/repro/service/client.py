"""Backpressure-aware client for the offload service's TCP front end.

The server's admission control only works if clients *honor* it: a
rejected request carries a reason ("queue full", "quota exceeded") that
means *back off and retry later*, not *hammer the socket*.
:class:`ServiceClient` encodes that contract:

* **capped exponential backoff with jitter** between attempts — retries
  from a fleet of clients decorrelate instead of thundering back in
  lockstep (the jitter RNG is seeded per client, so tests replay
  exactly);
* **per-attempt timeouts** so a dead server fails fast;
* **idempotent resubmission**: every offload carries an idempotency key
  (by default derived from the request parameters plus a per-call nonce)
  that is *reused across retries of the same call* — if the connection
  died after the server executed but before the reply arrived, the retry
  attaches to the original execution instead of running it twice;
* **terminal honesty**: when retries are exhausted the caller gets a
  structured ``{"status": "unreachable" | "rejected", ...}`` response,
  never an exception from deep inside the socket stack.

The client is deliberately sans-state between calls — it opens one
connection per attempt (the protocol is cheap) so it also exercises the
server's reconnect path, which is exactly what the fault-injection suite
needs.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import Any

__all__ = ["RetryPolicy", "ServiceClient"]

#: Rejection reasons that mean "try again later" (backpressure), as
#: opposed to permanent refusals like an unknown kernel.
_RETRIABLE_REJECTIONS = ("queue full", "quota exceeded",
                         "shutting down", "not started")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to push against a busy or flaky service."""

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    #: Fraction of the backoff randomized away (0.5 → sleep 50–100% of
    #: the capped exponential value).
    jitter: float = 0.5
    #: Whether backpressure rejections are retried at all; connection
    #: errors always are.
    retry_rejected: bool = True

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (1-based), capped + jittered."""
        capped = min(self.max_backoff_s,
                     self.base_backoff_s * (2.0 ** (attempt - 1)))
        if self.jitter <= 0.0:
            return capped
        return capped * (1.0 - self.jitter * rng.random())


class ServiceClient:
    """A retrying JSON-lines client for one service endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8537,
                 client_id: str = "client", policy: RetryPolicy | None = None,
                 attempt_timeout_s: float = 60.0, seed: int = 0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.policy = policy if policy is not None else RetryPolicy()
        self.attempt_timeout_s = attempt_timeout_s
        self._rng = random.Random(f"{client_id}:{seed}")
        self._nonce = 0
        #: Attempt-level telemetry: how often the client had to retry.
        self.attempts = 0
        self.retries = 0

    # -- wire helpers ---------------------------------------------------------

    async def _roundtrip(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One connection, one request, one reply (may raise)."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=self.attempt_timeout_s)
            if not line:
                raise ConnectionResetError("server closed before replying")
            reply = json.loads(line)
            if not isinstance(reply, dict):
                raise ValueError("reply is not a JSON object")
            return reply
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _is_backpressure(reply: dict[str, Any]) -> bool:
        if reply.get("status") != "rejected":
            return False
        reason = str(reply.get("reason", ""))
        return any(marker in reason for marker in _RETRIABLE_REJECTIONS)

    def _next_idempotency_key(self, kernel: str, iterations: int,
                              config: str) -> str:
        # Unique per *call*, stable across that call's retries: two
        # deliberate submissions of the same kernel are distinct logical
        # requests, but a retry of one submission is the same request.
        self._nonce += 1
        return f"{self.client_id}:{kernel}:{iterations}:{config}:{self._nonce}"

    # -- public API -----------------------------------------------------------

    async def stats(self) -> dict[str, Any] | None:
        try:
            return await self._roundtrip({"op": "stats"})
        except (ConnectionError, OSError, ValueError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return None

    async def offload(self, kernel: str, iterations: int = 64,
                      config: str = "M-128",
                      timeout_s: float | None = None) -> dict[str, Any]:
        """Offload one kernel run, retrying through drops and backpressure.

        Always returns a structured reply.  On exhausted retries the
        status is ``"unreachable"`` (transport never delivered a reply)
        or the last rejection as-is; both carry the final reason.
        """
        payload: dict[str, Any] = {
            "op": "offload", "kernel": kernel, "iterations": iterations,
            "config": config, "client": self.client_id,
            "idem": self._next_idempotency_key(kernel, iterations, config),
        }
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        last_error = "no attempts made"
        last_reply: dict[str, Any] | None = None
        for attempt in range(1, self.policy.max_attempts + 1):
            self.attempts += 1
            if attempt > 1:
                self.retries += 1
                await asyncio.sleep(
                    self.policy.backoff_s(attempt - 1, self._rng))
            try:
                reply = await self._roundtrip(payload)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                # Reply lost — but the server may still have executed the
                # request; the reused idempotency key makes the retry
                # attach rather than double-execute.
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if self._is_backpressure(reply) and self.policy.retry_rejected:
                last_reply = reply
                last_error = str(reply.get("reason", "rejected"))
                continue
            return reply
        if last_reply is not None:
            return last_reply
        return {"status": "unreachable", "kernel": kernel,
                "client": self.client_id,
                "reason": f"gave up after {self.policy.max_attempts} "
                          f"attempts: {last_error}"}
