"""Deterministic fault injection for the offload service.

Robustness claims need adversarial tests, and adversarial tests need
*reproducible* adversity: a chaos run that fails in CI must replay
identically on a laptop.  :class:`FaultPlan` therefore derives every
fault decision from a seeded hash of ``(seed, site, request index)`` —
no global RNG state, no ordering sensitivity between concurrently
executing requests.

Fault classes the plan can inject:

* ``crash``   — the worker process dies mid-execute (``os._exit``), or
  an in-process task (``workers=0``) raises; exercises supervisor
  replacement.
* ``hang``    — the execute sleeps past its deadline; exercises the
  deadline kill path.
* connection drops — the TCP front end (:func:`repro.service.net.serve`)
  aborts the connection before replying; exercises client retry +
  idempotent dedupe.
* corrupt snapshots — :func:`corrupt_snapshot` damages a checkpoint file
  in a chosen way; exercises tolerant cold boot.

:func:`run_chaos_test` is the end-to-end harness behind
``repro serve --self-test --chaos``: a multi-process service with tight
deadlines and a crash/hang-seasoned workload, asserting that every
in-flight request reaches exactly one terminal status (the terminal
counters sum to ``admitted``), the supervisor kept the pool at full
strength, and a corrupted snapshot cannot stop the next boot.
"""

from __future__ import annotations

import asyncio
import os
import random
from dataclasses import dataclass, field

__all__ = ["FaultPlan", "corrupt_snapshot", "run_chaos_test"]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, stateless fault schedule.

    Each decision hashes ``f"{seed}:{site}:{index}"`` into its own
    :class:`random.Random`, so plans are deterministic regardless of the
    order in which concurrent requests consult them, and each fault site
    (execution vs. connection) draws independently.
    """

    seed: int = 0
    #: Probability an executed request's worker crashes mid-execute.
    crash_rate: float = 0.0
    #: Probability an executed request's worker hangs past its deadline.
    hang_rate: float = 0.0
    #: How long an injected hang sleeps (should exceed the deadline).
    hang_s: float = 30.0
    #: Kernels that *always* crash (models a poisoned region, for
    #: circuit-breaker tests).  Rates still apply to other kernels.
    crash_kernels: tuple[str, ...] = ()
    hang_kernels: tuple[str, ...] = ()
    #: Probability the TCP front end drops a connection before replying.
    drop_rate: float = 0.0

    def _rng(self, site: str, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{site}:{index}")

    def execution_fault(self, index: int, kernel: str = "") -> str | None:
        """Fault for the ``index``-th admitted request, or None."""
        if kernel and kernel in self.crash_kernels:
            return "crash"
        if kernel and kernel in self.hang_kernels:
            return "hang"
        roll = self._rng("exec", index).random()
        if roll < self.crash_rate:
            return "crash"
        if roll < self.crash_rate + self.hang_rate:
            return "hang"
        return None

    def drops_connection(self, index: int) -> bool:
        """Whether the front end aborts the ``index``-th wire request."""
        return (self.drop_rate > 0.0
                and self._rng("drop", index).random() < self.drop_rate)


def corrupt_snapshot(path: str, mode: str = "garbage") -> None:
    """Damage a checkpoint file in a specific way (test helper).

    Modes: ``garbage`` (non-JSON bytes), ``truncate`` (torn write),
    ``magic`` (valid JSON, wrong magic), ``version`` (future schema),
    ``records`` (record list replaced by junk entries).
    """
    import json

    if mode == "garbage":
        with open(path, "wb") as handle:
            handle.write(b"\x00\xffnot json at all\x9c")
        return
    if mode == "truncate":
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: max(1, len(data) // 2)])
        return
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if mode == "magic":
        payload["magic"] = "definitely-not-a-snapshot"
    elif mode == "version":
        payload["version"] = payload.get("version", 1) + 999
    elif mode == "records":
        payload["records"] = ["junk", 17, {"config": "M-128"}]
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


async def _chaos(requests: int, iterations: int, workers: int,
                 seed: int) -> tuple[bool, str]:
    import tempfile

    from ..harness.report import format_service_stats
    from .checkpoint import load_snapshot
    from .server import TERMINAL_STATUSES, MesaService, OffloadRequest
    from .workload import zipfian_stream

    kernels = ("nn", "pathfinder", "hotspot", "kmeans")
    plan = FaultPlan(seed=seed, crash_rate=0.12, hang_rate=0.08,
                     hang_s=30.0)
    with tempfile.TemporaryDirectory(prefix="mesa-chaos-") as tmp:
        snapshot = os.path.join(tmp, "cache.snapshot.json")
        service = MesaService(max_queue=max(requests, 1),
                              max_per_client=max(requests, 1),
                              workers=workers,
                              request_timeout_s=90.0,
                              checkpoint_path=snapshot,
                              fault_plan=plan)
        await service.start()
        # A request planned to hang gets its own tight deadline, so the
        # kill comes long before the hang (or the service default) ends.
        stream = zipfian_stream(kernels, requests, s=1.1, seed=seed)
        responses = await asyncio.gather(*[
            service.offload(OffloadRequest.for_kernel(
                name, iterations=iterations,
                client=f"client-{index % 4}",
                timeout_s=8.0 if plan.execution_fault(index, name) == "hang"
                else None))
            for index, name in enumerate(stream)])
        pool_state = service.process_stats()
        await service.close()
        stats = service.stats()

        terminal = [r.status in TERMINAL_STATUSES for r in responses]
        statuses = sorted({r.status for r in responses})
        resolved = (stats.completed + stats.failed + stats.timed_out
                    + stats.degraded + stats.cancelled)
        records, load_reason = load_snapshot(snapshot)

        # Corrupt the flushed snapshot and prove the next boot survives.
        corrupt_snapshot(snapshot, "garbage")
        reboot = MesaService(workers=0, checkpoint_path=snapshot)
        await reboot.start()
        reboot_stats = reboot.stats()
        await reboot.close()

        planned = sum(1 for index, name in enumerate(stream)
                      if plan.execution_fault(index, name) is not None)
        checks = [
            (all(terminal),
             f"every response terminal (statuses seen: {statuses})"),
            (stats.completed > 0,
             f"{stats.completed} requests completed despite chaos"),
            (resolved == stats.admitted,
             f"all {stats.admitted} admitted requests resolved once "
             f"({resolved} terminal resolutions)"),
            (stats.worker_crashes + stats.timed_out > 0 or planned == 0,
             f"injected faults surfaced ({stats.worker_crashes} crashes, "
             f"{stats.timed_out} timeouts of {planned} planned)"),
            (pool_state["alive"] == workers,
             f"supervisor kept pool at strength "
             f"({pool_state['alive']}/{workers} alive, "
             f"{pool_state['restarts']} restarts)"),
            (records is not None,
             f"shutdown checkpoint readable "
             f"({len(records or [])} records)" if records is not None
             else f"shutdown checkpoint unreadable: {load_reason}"),
            (reboot_stats.regions_restored == 0 and reboot.closed,
             "corrupt snapshot skipped at boot (cold start, no crash)"),
        ]
        ok = all(passed for passed, _ in checks)
        lines = [f"service chaos test: {requests} requests, "
                 f"workers={workers}, seed={seed}, "
                 f"crash_rate={plan.crash_rate}, hang_rate={plan.hang_rate}"]
        lines += [f"  [{'ok' if passed else 'FAIL'}] {message}"
                  for passed, message in checks]
        lines.append("")
        lines.append(format_service_stats(stats))
        return ok, "\n".join(lines)


def run_chaos_test(requests: int = 24, iterations: int = 48,
                   workers: int = 2, seed: int = 11) -> tuple[bool, str]:
    """Fault-seasoned end-to-end run (CI chaos smoke).

    Returns ``(ok, report)``; ``ok`` is True only if every request
    reached exactly one terminal status, the supervisor kept the pool at
    full strength, the shutdown checkpoint was readable, and a corrupted
    snapshot could not stop the next boot.
    """
    return asyncio.run(_chaos(requests, iterations, workers, seed))
