"""Wire front end and self-test for the offload service.

The protocol is JSON lines over TCP — one request object per line, one
response object per line, stdlib-only on both ends::

    {"op": "offload", "kernel": "nn", "iterations": 96, "config": "M-128",
     "client": "c1", "idem": "abc123", "timeout_s": 30}
    {"op": "stats"}
    {"op": "ping"}

``offload`` responses carry the :class:`~repro.service.server
.OffloadResponse` fields; ``stats`` returns the monotonic counters plus
p50/p99 of the main latency histograms.  The connection handler is built
to *stay healthy under garbage*: malformed JSON or an unknown op produces
``{"status": "error", "reason": ...}`` instead of dropping the
connection, an oversized frame (no newline within :data:`MAX_LINE_BYTES`)
is answered with a structured error and discarded up to the next newline
so the per-connection buffer stays bounded, and one connection may
pipeline any number of requests.

:func:`run_self_test` is the CI smoke: start a service in-process, replay
a small Zipfian mix, assert the shared cache actually amortized (hit rate
> 0, every request completed), that warm requests reused their CPU
baseline, and shut down cleanly.  The ``--chaos`` variant lives in
:func:`repro.service.faults.run_chaos_test`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
from typing import Any

from .metrics import ServiceStats
from .server import MesaService, OffloadRequest, OffloadResponse

__all__ = ["MAX_LINE_BYTES", "response_to_json", "stats_to_json", "serve",
           "request_once", "run_self_test", "SELF_TEST_KERNELS"]

#: Largest accepted request frame.  A real request is a few hundred bytes;
#: anything without a newline in 64 KiB is garbage or abuse, and bounding
#: the buffer keeps one bad client from growing server memory without end.
MAX_LINE_BYTES = 1 << 16

#: Read chunk size for the manual framing loop.
_CHUNK = 8192

#: Sentinel the framer yields exactly once per discarded oversized frame
#: (distinct from a legitimately empty line).
_OVERSIZED = object()


def response_to_json(response: OffloadResponse) -> dict[str, Any]:
    return dataclasses.asdict(response)


def stats_to_json(stats: ServiceStats) -> dict[str, Any]:
    """Every :class:`ServiceStats` field, plus ``throughput`` and the cache
    hit rate; each latency histogram is reduced to count, mean, p50, p99."""
    payload = {f.name: getattr(stats, f.name)
               for f in dataclasses.fields(stats)}
    payload["throughput"] = stats.throughput
    payload["cache"] = {**dataclasses.asdict(stats.cache),
                        "hit_rate": stats.cache.hit_rate}
    payload["latency"] = {
        name: {"count": hist.count, "mean": hist.mean,
               "p50": hist.p50, "p99": hist.p99}
        for name, hist in stats.latency.items()}
    return payload


def _offload_request(payload: dict[str, Any]) -> OffloadRequest:
    from ..workloads import kernel_names

    name = payload.get("kernel")
    if name not in kernel_names():
        raise ValueError(f"unknown kernel {name!r}")
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        timeout_s = float(timeout_s)
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    return OffloadRequest.for_kernel(
        name,
        iterations=int(payload.get("iterations", 64)),
        config=str(payload.get("config", "M-128")),
        client=str(payload.get("client", "remote")),
        timeout_s=timeout_s,
        idempotency_key=str(payload.get("idem", "")))


class _LineFramer:
    """Manual newline framing with a hard per-connection buffer cap.

    The stdlib ``readline``/``readuntil`` helpers raise once their limit
    is hit and leave the buffer in an awkward state; this framer instead
    owns the buffer, reports an oversized frame as a one-shot signal, and
    then *discards* bytes until the next newline so the connection can
    resume with the following request.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 limit: int = MAX_LINE_BYTES) -> None:
        self._reader = reader
        self._limit = limit
        self._buffer = bytearray()
        self._discarding = False

    async def next_frame(self):
        """The next newline-terminated frame as ``bytes``.

        Returns :data:`_OVERSIZED` exactly once per oversized frame
        (after discarding it through the next newline), and ``None`` at
        EOF.
        """
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                oversized = self._discarding or newline > self._limit
                frame = bytes(self._buffer[:newline])
                del self._buffer[:newline + 1]
                if oversized:
                    # Tail of the oversized frame: drop it, report once.
                    self._discarding = False
                    return _OVERSIZED
                return frame
            if self._discarding:
                # Still inside the oversized frame: drop what we have.
                del self._buffer[:]
            elif len(self._buffer) > self._limit:
                del self._buffer[:]
                self._discarding = True
            chunk = await self._reader.read(_CHUNK)
            if not chunk:
                return None if not self._discarding else _OVERSIZED
            self._buffer.extend(chunk)


async def _handle_connection(service: MesaService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             fault_plan=None,
                             request_counter=None) -> None:
    framer = _LineFramer(reader)
    try:
        while True:
            frame = await framer.next_frame()
            if frame is None:
                break
            if frame is _OVERSIZED:
                reply: dict[str, Any] = {
                    "status": "error",
                    "reason": f"frame exceeds {MAX_LINE_BYTES} bytes"}
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
                continue
            if not frame.strip():
                continue
            try:
                payload = json.loads(frame)
                if not isinstance(payload, dict):
                    raise ValueError("request must be a JSON object")
                op = payload.get("op", "offload")
                if op == "ping":
                    reply = {"status": "ok"}
                elif op == "stats":
                    reply = stats_to_json(service.stats())
                elif op == "offload":
                    response = await service.offload(
                        _offload_request(payload))
                    if fault_plan is not None and request_counter is not None:
                        index = next(request_counter)
                        if fault_plan.drops_connection(index):
                            # Injected reply loss: the server *did*
                            # execute, but the client never hears back —
                            # its retry must attach via the idempotency
                            # key instead of executing again.
                            writer.transport.abort()
                            return
                    reply = response_to_json(response)
                else:
                    raise ValueError(f"unknown op {op!r}")
            except (ValueError, KeyError, TypeError) as exc:
                reply = {"status": "error", "reason": str(exc)}
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()
    except (ConnectionError, OSError):
        pass  # client went away mid-request; nothing to tell it
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def serve(service: MesaService, host: str = "127.0.0.1",
                port: int = 8537,
                fault_plan=None) -> asyncio.AbstractServer:
    """Start the TCP front end; the caller owns both lifecycles.

    ``fault_plan`` (a :class:`~repro.service.faults.FaultPlan`) injects
    deterministic connection drops, indexed by a counter shared across
    every connection this server accepts.
    """
    request_counter = itertools.count() if fault_plan is not None else None
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w, fault_plan,
                                        request_counter),
        host, port)


async def request_once(host: str, port: int,
                       payload: dict[str, Any]) -> dict[str, Any]:
    """One request/response round trip (client helper; tests and tools)."""
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


#: Popular accelerating kernels used by the self-test's Zipfian mix (rank
#: order = popularity order).
SELF_TEST_KERNELS = ("nn", "pathfinder", "hotspot", "kmeans", "lud",
                     "backprop")


async def _self_test(requests: int, iterations: int, workers: int,
                     seed: int) -> tuple[bool, str]:
    from ..harness.report import format_service_stats
    from .workload import zipfian_stream

    service = MesaService(max_queue=max(requests, 1),
                          max_per_client=max(requests, 1),
                          workers=workers)
    await service.start()
    stream = zipfian_stream(SELF_TEST_KERNELS, requests, s=1.1, seed=seed)
    responses = await asyncio.gather(*[
        service.offload(OffloadRequest.for_kernel(
            name, iterations=iterations, client=f"client-{index % 4}"))
        for index, name in enumerate(stream)])
    stats = service.stats()
    await service.close()

    failures = [r for r in responses if not r.ok]
    checks = [
        (not failures,
         f"all {len(responses)} requests completed"
         if not failures else
         f"{len(failures)} requests did not complete "
         f"({failures[0].status}: {failures[0].reason})"),
        (stats.cache.hits > 0,
         f"shared cache amortized: {stats.cache.hits} hits "
         f"({stats.hit_rate:.1%} hit rate)"),
        (stats.baseline_hits > 0,
         f"baseline reused: {stats.baseline_hits} hits"),
        (stats.queue_depth == 0 and stats.inflight == 0,
         "queue drained and no jobs in flight after close"),
        (service.closed, "service shut down cleanly"),
    ]
    ok = all(passed for passed, _ in checks)
    lines = [f"service self-test: {requests} requests, "
             f"Zipf(1.1) over {len(SELF_TEST_KERNELS)} kernels, "
             f"{iterations} iterations, workers={workers}"]
    lines += [f"  [{'ok' if passed else 'FAIL'}] {message}"
              for passed, message in checks]
    lines.append("")
    lines.append(format_service_stats(stats))
    return ok, "\n".join(lines)


def run_self_test(requests: int = 48, iterations: int = 64,
                  workers: int = 2, seed: int = 7) -> tuple[bool, str]:
    """Replay a Zipfian mix through an in-process service (CI smoke).

    Returns ``(ok, report)``: ``ok`` is True only if every request
    completed, the shared cache recorded at least one hit, at least one
    request reused a cached CPU baseline, and shutdown left the queue
    empty.
    """
    return asyncio.run(_self_test(requests, iterations, workers, seed))
