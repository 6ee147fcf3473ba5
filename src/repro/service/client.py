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
needs.  The attempt budget, backoff curve, jitter and attempt timeout are
module constants, one value each: no caller tunes them.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any

__all__ = ["ServiceClient"]

#: Rejection reasons that mean "try again later" (backpressure), as
#: opposed to permanent refusals like an unknown kernel.
_RETRIABLE_REJECTIONS = ("queue full", "quota exceeded",
                         "shutting down", "not started")

#: Attempts per offload call, the first one included.
MAX_ATTEMPTS = 4
#: Backoff before the first retry; it doubles per retry up to the cap.
BASE_BACKOFF_S = 0.05
MAX_BACKOFF_S = 2.0
#: Fraction of the backoff randomized away (0.5 → sleep 50–100% of the
#: capped exponential value).
JITTER = 0.5
#: Seconds one attempt waits for its reply.
ATTEMPT_TIMEOUT_S = 60.0


def backoff_s(attempt: int, rng: random.Random) -> float:
    """Sleep before retry ``attempt`` (1-based), capped + jittered."""
    capped = min(MAX_BACKOFF_S, BASE_BACKOFF_S * (2.0 ** (attempt - 1)))
    return capped * (1.0 - JITTER * rng.random())


class ServiceClient:
    """A retrying JSON-lines client for one service endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8537,
                 client_id: str = "client", seed: int = 0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
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
                                          timeout=ATTEMPT_TIMEOUT_S)
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
        for attempt in range(1, MAX_ATTEMPTS + 1):
            self.attempts += 1
            if attempt > 1:
                self.retries += 1
                await asyncio.sleep(backoff_s(attempt - 1, self._rng))
            try:
                reply = await self._roundtrip(payload)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                # Reply lost — but the server may still have executed the
                # request; the reused idempotency key makes the retry
                # attach rather than double-execute.
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if self._is_backpressure(reply):
                last_reply = reply
                last_error = str(reply.get("reason", "rejected"))
                continue
            return reply
        if last_reply is not None:
            return last_reply
        return {"status": "unreachable", "kernel": kernel,
                "client": self.client_id,
                "reason": f"gave up after {MAX_ATTEMPTS} "
                          f"attempts: {last_error}"}
