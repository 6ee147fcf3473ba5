"""MESA-as-a-service: a long-lived asyncio offload server.

One deployed chip amortizes configuration cost across *every* request it
ever serves, not just across the iterations of one run — that is the
paper's Table 2 / Fig. 16 story at system scale.  :class:`MesaService`
models that deployment:

* a **controller pool** (:class:`ControllerPool`) holds one
  :class:`~repro.core.controller.MesaController` per chip (backend
  config) in each process that executes, so requests targeting the same
  backend share a configuration cache — LRU-managed and larger than the
  library default, the deployment settings of
  :class:`~repro.core.configure.ConfigCache`;
* a **bounded job queue with admission control**: a request is rejected
  *with a reason* when the queue is full or its client already has its
  quota in flight (per-client fairness — one chatty client cannot starve
  the queue), never silently dropped;
* **request coalescing** generalizes ``MesaSystem``'s serial evaluation
  (duplicates hit what the first occurrence configured) to a stream: a
  request whose region is identical (same content digest, same backend)
  to one currently being configured waits for that *leader*
  instead of starting a duplicate translation, then executes with the
  leader's fresh configuration — N identical in-flight regions cost one
  translation, one miss, N−1 hits;
* a **metrics surface**: monotonic counters plus log-bucketed latency
  histograms (queue wait, execute wall split cold/warm by cache outcome,
  per-pipeline-phase seconds), snapshot via :meth:`MesaService.stats`
  and subtractable for interval reporting
  (:class:`~repro.service.metrics.ServiceStats`).  Every admitted request
  resolves through one terminal path, so once the queue drains
  ``completed + failed + timed_out + degraded + cancelled == admitted``.

Every request — a named kernel, a generated region, or the circuit
breaker's CPU-baseline fallback — becomes one picklable
:class:`~repro.service.procpool.OffloadTask` for one task function,
:class:`~repro.service.procpool.ChipTask`, which runs it on the chip's
controller.  ``workers >= 1`` runs the task on a supervised
:class:`~repro.service.procpool.ProcessWorkerPool` (the service's subclass
of the shared :class:`~repro.harness.parallel.WorkerPool`): N worker
*processes*, per-request deadlines, crash isolation (a dying worker
degrades only its own request and is replaced in place), sticky
region→worker affinity, and seeding from the region store so replacement
workers rejoin warm.  ``workers=0`` runs the same task function in the
service's own process, one request at a time.  Either way the cache tally,
phase seconds, newly configured regions and the keys of the regions that
hit come back only through the task's summary.

Fault tolerance on top:

* **per-request deadlines** — ``OffloadRequest.timeout_s``, else the
  service's ``request_timeout_s``, read once per job as it leaves the
  queue (a coalesced follower: once its leader is done).  A request
  expired by then resolves ``status="timeout"`` without ever occupying a
  worker; otherwise the time left is its execution budget, and one that
  overruns it is killed (a worker process) or detached (an in-process
  task);
* **circuit breaking** — a (config, region) key whose requests keep
  failing is served a structured ``status="degraded"`` CPU-baseline
  response instead of burning workers, with half-open probing to close
  the circuit once the region recovers;
* **idempotent dedupe** — a resubmission carrying the same
  ``idempotency_key`` (the client library keys them by region digest)
  attaches to the original in-flight request or replays its completed
  response — a retry after a dropped connection never double-executes;
* **checkpointing** — the region store persists to a versioned snapshot
  (:mod:`repro.service.checkpoint`) on interval and at shutdown, and is
  warm-restored at boot, so a restart keeps the cache's hit rate.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from collections import Counter, OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable

from ..core import CacheStats, region_digest
from ..isa import MachineState, Program
from ..workloads.base import KernelInstance
from .checkpoint import RegionStore, load_snapshot, save_snapshot
from .metrics import LatencyHistogram, ServiceStats
from .procpool import (
    ChipTask,
    CircuitBreaker,
    ControllerPool,
    OffloadTask,
    PoolBroken,
    ProcessWorkerPool,
    WorkerCrash,
    WorkerTaskError,
    WorkerTimeout,
)

__all__ = ["AdmissionError", "OffloadRequest", "OffloadResponse",
           "ControllerPool", "MesaService", "TERMINAL_STATUSES"]

log = logging.getLogger("repro.service")

#: Every status an admitted request can resolve to.  The fault-injection
#: harness asserts each in-flight request reaches exactly one of these.
TERMINAL_STATUSES = ("completed", "rejected", "failed", "cancelled",
                     "timeout", "degraded")


@lru_cache(maxsize=64)
def _named_kernel(name: str, iterations: int) -> KernelInstance:
    """A named kernel, built once per ``(name, iterations)``.

    The wire front end builds every request's kernel on the event loop;
    a client picks ``iterations`` freely, so the memo is bounded.  Sharing
    is safe: a kernel's program and state recipe are never mutated.
    """
    from ..workloads import build_kernel

    return build_kernel(name, iterations=iterations)


class AdmissionError(RuntimeError):
    """A request the service refused to queue; ``reason`` says why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class OffloadRequest:
    """One client's offload request: a binary plus its fresh-state factory.

    With ``workers >= 1`` both cross to a worker process, so both must
    pickle: a :class:`~repro.workloads.base.StateRecipe` does, a lambda
    does not (the request then fails with the pickling error).
    """

    program: Program
    state_factory: Callable[[], MachineState]
    client: str = "local"
    config: str = "M-128"
    parallelizable: bool = False
    #: Display name (e.g. the kernel name); also what a fault plan's
    #: per-kernel faults match.
    label: str = ""
    #: End-to-end deadline in seconds (queue wait + execution); ``None``
    #: defers to the service-wide default.
    timeout_s: float | None = None
    #: Resubmission identity: two submissions from the same client with
    #: the same key are the same logical request — the second attaches to
    #: the first instead of executing again.
    idempotency_key: str = ""

    @classmethod
    def for_kernel(cls, name: str, iterations: int = 64,
                   config: str = "M-128",
                   client: str = "local",
                   timeout_s: float | None = None,
                   idempotency_key: str = "") -> "OffloadRequest":
        """Convenience constructor from a named Rodinia kernel."""
        kernel = _named_kernel(name, iterations)
        return cls(program=kernel.program,
                   state_factory=kernel.state_factory,
                   client=client, config=config,
                   parallelizable=kernel.parallelizable, label=name,
                   timeout_s=timeout_s, idempotency_key=idempotency_key)

    def coalesce_key(self) -> tuple[str, str]:
        """Identity of this request's region work: (backend, content).

        Two requests with the same key would translate the exact same
        instruction bytes for the exact same backend — the service runs
        that translation once.
        """
        digest = region_digest(self.program, self.program.base_address,
                               self.program.end_address)
        return (self.config, digest)


@dataclass
class OffloadResponse:
    """Outcome of one request, with its end-to-end latency breakdown."""

    label: str
    client: str
    #: One of :data:`TERMINAL_STATUSES`.
    status: str
    reason: str = ""
    accelerated: bool = False
    cache_hit: bool = False
    coalesced: bool = False
    #: This response was replayed from (or attached to) an earlier
    #: submission with the same idempotency key.
    deduped: bool = False
    speedup: float = 0.0
    total_cycles: float = 0.0
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "completed"


@dataclass
class _Job:
    request: OffloadRequest
    future: asyncio.Future
    submitted_at: float
    #: Absolute ``time.perf_counter()`` deadline, or None.
    deadline: float | None = None
    #: Admission sequence number (deterministic fault-plan index).
    index: int = 0
    started_at: float = 0.0
    coalesced: bool = False
    #: Set once a coalescing leader's execution is over; followers wait
    #: on it and then carry the leader's ``new_regions`` as their seed.
    configured: asyncio.Event | None = None
    new_regions: tuple[dict, ...] = ()


class MesaService:
    """The asyncio offload server; see the module docstring for the model.

    Lifecycle::

        service = MesaService(workers=2)
        await service.start()
        response = await service.offload(OffloadRequest.for_kernel("nn"))
        await service.close()

    ``offload`` never raises for service-level refusals — a rejected
    request comes back as an :class:`OffloadResponse` with
    ``status="rejected"`` and the admission reason, matching what a
    remote client would see on the wire.
    """

    #: Completed-response entries retained for idempotent replay.
    DEDUPE_CAPACITY = 1024

    def __init__(self, pool: ControllerPool | None = None,
                 max_queue: int = 64, max_per_client: int = 8,
                 workers: int = 2,
                 request_timeout_s: float | None = None,
                 checkpoint_path: str | None = None,
                 checkpoint_interval_s: float = 0.0,
                 fault_plan=None) -> None:
        if max_queue < 1 or max_per_client < 1 or workers < 0:
            raise ValueError("max_queue and max_per_client must be "
                             "positive, workers non-negative")
        self.pool = pool if pool is not None else ControllerPool()
        self.max_queue = max_queue
        self.max_per_client = max_per_client
        self.workers = workers
        self.request_timeout_s = request_timeout_s
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval_s = checkpoint_interval_s
        self.fault_plan = fault_plan
        self._breaker = CircuitBreaker()
        self._queue: asyncio.Queue[_Job] = asyncio.Queue()
        self._worker_tasks: list[asyncio.Task] = []
        self._checkpoint_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._procpool: ProcessWorkerPool | None = None
        self._task: ChipTask | None = None
        self._store = RegionStore(self.pool.options.cache_capacity)
        self._cache_tally = CacheStats()
        self._inflight: dict[tuple[str, str], _Job] = {}
        self._dedupe: OrderedDict[tuple[str, str], asyncio.Future] = \
            OrderedDict()
        self._client_load: dict[str, int] = {}
        self._running_jobs = 0
        self._admitted_index = 0
        #: Counts by :class:`ServiceStats` field name; ``stats`` passes
        #: them straight to its constructor.
        self._counters: Counter[str] = Counter()
        self._latency: dict[str, LatencyHistogram] = {}
        self._started_at = time.perf_counter()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Restore the checkpoint, boot the worker pool, spawn the job
        loops."""
        if self._worker_tasks:
            return
        self._started_at = time.perf_counter()
        loop = asyncio.get_running_loop()
        if self.checkpoint_path:
            # load_snapshot warns about an unusable snapshot itself.
            records, _ = load_snapshot(self.checkpoint_path)
            if records:
                restored = self._store.add_many(records)
                self._counters["regions_restored"] += restored
                log.info("checkpoint restored %d region(s) from %s",
                         restored, self.checkpoint_path)
        if self.workers:
            # Every worker seeds itself from the store at boot.
            self._procpool = ProcessWorkerPool(
                self.workers, pool=self.pool,
                seed_source=self._store.records)
            await loop.run_in_executor(None, self._procpool.start)
        else:
            self._task = ChipTask(self.pool, isolated=False)
            await loop.run_in_executor(None, self._task.seed,
                                       self._store.records())
        lanes = max(self.workers, 1)
        # One spare thread so interval checkpoints never wait behind a
        # full complement of executing requests.
        self._executor = ThreadPoolExecutor(
            max_workers=lanes + 1, thread_name_prefix="mesa-service")
        self._worker_tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(lanes)]
        if self.checkpoint_path and self.checkpoint_interval_s > 0:
            self._checkpoint_task = asyncio.ensure_future(
                self._checkpoint_loop())

    async def close(self) -> None:
        """Graceful shutdown: reject new work, drain admitted jobs, stop
        the worker pool, and flush a final checkpoint."""
        self._closed = True
        if self._worker_tasks:
            await self._queue.join()
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            await asyncio.gather(self._checkpoint_task,
                                 return_exceptions=True)
            self._checkpoint_task = None
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks,
                                 return_exceptions=True)
        self._worker_tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        loop = asyncio.get_running_loop()
        if self._procpool is not None:
            # The closed pool stays referenced: stats() keeps reading its
            # restart count.
            await loop.run_in_executor(None, self._procpool.close)
        if self.checkpoint_path:
            await loop.run_in_executor(None, self.save_checkpoint)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- persistence ----------------------------------------------------------

    def save_checkpoint(self) -> int:
        """Write the region store to the snapshot file.

        Blocking (call from an executor thread), atomic on disk.  Returns
        the record count written, 0 when checkpointing is off.
        """
        if not self.checkpoint_path:
            return 0
        count = save_snapshot(self.checkpoint_path, self._store.records())
        self._counters["checkpoints_saved"] += 1
        return count

    async def _checkpoint_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.checkpoint_interval_s)
            try:
                await loop.run_in_executor(None, self.save_checkpoint)
            except Exception as exc:  # never let a bad disk kill the loop
                log.warning("interval checkpoint failed: %s", exc)

    # -- submission -----------------------------------------------------------

    def submit(self, request: OffloadRequest) -> asyncio.Future:
        """Admit a request; returns the future its response resolves on.

        Raises :class:`AdmissionError` when the service is shutting down,
        the job queue is at capacity, or the client has exhausted its
        in-flight quota.  Rejection is counted but costs the service
        nothing else — that is the point of admission control.

        A request carrying an ``idempotency_key`` that matches an
        in-flight or successfully completed submission from the same
        client is *deduplicated*: the returned future mirrors the
        original's response (marked ``deduped=True``) and nothing new is
        queued or executed.
        """
        self._counters["submitted"] += 1
        if self._closed:
            raise AdmissionError("service is shutting down")
        if not self._worker_tasks:
            raise AdmissionError("service is not started")
        dedupe_key = ((request.client, request.idempotency_key)
                      if request.idempotency_key else None)
        if dedupe_key is not None:
            original = self._dedupe.get(dedupe_key)
            if original is not None and self._replayable(original):
                self._counters["deduped"] += 1
                self._dedupe.move_to_end(dedupe_key)
                return self._mirror(original)
        load = self._client_load.get(request.client, 0)
        if load >= self.max_per_client:
            self._counters["rejected_client_quota"] += 1
            raise AdmissionError(
                f"client {request.client!r} quota exceeded "
                f"({load} in flight, limit {self.max_per_client})")
        waiting = self._queue.qsize()
        if waiting >= self.max_queue:
            self._counters["rejected_queue_full"] += 1
            raise AdmissionError(
                f"queue full ({waiting} waiting, limit {self.max_queue})")
        self._counters["admitted"] += 1
        self._client_load[request.client] = load + 1
        submitted_at = time.perf_counter()
        budget = (request.timeout_s if request.timeout_s is not None
                  else self.request_timeout_s)
        job = _Job(request=request,
                   future=asyncio.get_running_loop().create_future(),
                   submitted_at=submitted_at,
                   deadline=(submitted_at + budget
                             if budget is not None else None),
                   index=self._admitted_index)
        self._admitted_index += 1
        if dedupe_key is not None:
            self._dedupe[dedupe_key] = job.future
            while len(self._dedupe) > self.DEDUPE_CAPACITY:
                self._dedupe.popitem(last=False)
        self._queue.put_nowait(job)
        return job.future

    @staticmethod
    def _replayable(future: asyncio.Future) -> bool:
        """An idempotency entry worth attaching a resubmission to.

        In-flight futures qualify (the retry rides along); completed ones
        qualify only when the outcome was a success (``completed`` /
        ``degraded``) — replaying a failure or timeout would defeat the
        retry, so those resubmissions execute fresh.
        """
        if future.cancelled():
            return False
        if not future.done():
            return True
        if future.exception() is not None:
            return False
        return future.result().status in ("completed", "degraded")

    @staticmethod
    def _mirror(source: asyncio.Future) -> asyncio.Future:
        """A future resolving with the source's response, flagged deduped.

        Mirrored, not shared: cancelling the retry must not cancel the
        original submission's future.
        """
        mirror = asyncio.get_running_loop().create_future()

        def _copy(fut: asyncio.Future) -> None:
            if mirror.done():
                return
            if fut.cancelled():
                mirror.cancel()
                return
            exc = fut.exception()
            if exc is not None:
                mirror.set_exception(exc)
                return
            mirror.set_result(dataclasses.replace(fut.result(),
                                                  deduped=True))

        if source.done():
            _copy(source)
        else:
            source.add_done_callback(_copy)
        return mirror

    async def offload(self, request: OffloadRequest) -> OffloadResponse:
        """Submit and await one request; refusals become responses.

        Cancelling the awaiting task cancels the job (a job cancelled
        while still queued never reaches a worker; one already executing
        finishes but its response is discarded), and either way the job
        counts as ``cancelled`` — the cancellation propagates to the
        caller as usual.
        """
        try:
            future = self.submit(request)
        except AdmissionError as exc:
            return OffloadResponse(label=request.label,
                                   client=request.client,
                                   status="rejected", reason=exc.reason)
        return await future

    # -- metrics --------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Monotonic snapshot; subtract an earlier one for an interval."""
        return ServiceStats(
            **self._counters,
            worker_restarts=(self._procpool.restarts
                             if self._procpool is not None else 0),
            cache=self._cache_tally,
            uptime_seconds=time.perf_counter() - self._started_at,
            queue_depth=self._queue.qsize(),
            inflight=self._running_jobs,
            latency={name: hist.snapshot()
                     for name, hist in self._latency.items()},
        )

    def process_stats(self) -> dict[str, Any]:
        """Supervision state of the worker pool (zeros at ``workers=0``)."""
        if self._procpool is None:
            return {"workers": 0, "alive": 0, "restarts": 0, "pids": []}
        return {"workers": self._procpool.size,
                "alive": self._procpool.alive(),
                "restarts": self._procpool.restarts,
                "pids": self._procpool.worker_pids()}

    def _record(self, name: str, seconds: float) -> None:
        hist = self._latency.get(name)
        if hist is None:
            hist = self._latency[name] = LatencyHistogram()
        hist.record(seconds)

    # -- execution ------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    def _release(self, client: str) -> None:
        load = self._client_load.get(client, 0) - 1
        if load > 0:
            self._client_load[client] = load
        else:
            self._client_load.pop(client, None)

    async def _run_job(self, job: _Job) -> None:
        """Take one admitted job from the queue to its terminal response."""
        request = job.request
        job.started_at = time.perf_counter()
        self._record("queue_wait", job.started_at - job.submitted_at)
        self._running_jobs += 1
        try:
            key = request.coalesce_key()
            leader = self._inflight.get(key)
            if leader is not None:
                # Identical region already being configured: wait for its
                # leader, then execute with the leader's fresh configuration
                # (N identical in-flight regions -> one translation, one
                # miss, N-1 hits, whichever worker each lands on).
                job.coalesced = True
                self._counters["coalesced"] += 1
                await leader.configured.wait()
            # The job's one read of its cancellation and deadline: a job
            # cancelled or expired by now never reaches a worker or leads
            # a coalescing group, and the time left is its dispatch budget.
            if job.future.cancelled():
                self._finish(job, {"status": "cancelled"})
                return
            remaining = (None if job.deadline is None
                         else job.deadline - time.perf_counter())
            if remaining is not None and remaining <= 0.0:
                waited = job.started_at - job.submitted_at
                self._finish(job, {"status": "timeout", "reason": (
                    f"deadline expired while queued (waited {waited:.3f}s)"
                    if job.deadline <= job.started_at
                    else "deadline expired waiting on coalesced leader")})
                return
            await self._execute(job, key, leader, remaining)
        finally:
            self._running_jobs -= 1
            self._release(request.client)

    async def _execute(self, job: _Job, key: tuple[str, str],
                       leader: _Job | None, remaining: float | None) -> None:
        request = job.request
        if leader is None:
            job.configured = asyncio.Event()
            self._inflight[key] = job
        degraded_reason = self._breaker.check(key)
        if degraded_reason is None:
            fault, hang_s = self._planned_fault(job)
            task = OffloadTask(request.program, request.state_factory,
                               request.config, request.parallelizable,
                               fault=fault, hang_s=hang_s,
                               seed=leader.new_regions if leader else ())
        else:
            task = OffloadTask(request.program, request.state_factory,
                               request.config, mode="cpu")
        start = time.perf_counter()
        try:
            summary = await self._dispatch(job, task, key, remaining)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Containment: an unexpected error is this request's failure,
            # never the job loop's.
            summary = {"status": "failed",
                       "reason": f"{type(exc).__name__}: {exc}"}
        finally:
            if job.configured is not None:
                # Release followers even on failure: they re-translate
                # themselves rather than wait forever.
                del self._inflight[key]
                job.configured.set()
        execute_seconds = time.perf_counter() - start
        if degraded_reason is None:
            self._breaker.record(key, summary["status"] == "completed",
                                 summary.get("reason", ""))
        elif summary["status"] == "completed":
            summary.update(status="degraded", reason=degraded_reason)
        self._finish(job, summary, execute_seconds)

    def _finish(self, job: _Job, summary: dict,
                execute_seconds: float = 0.0) -> None:
        """The one terminal path: count the job's outcome, record its
        latency and resolve the caller's future.

        A job whose caller cancelled its future counts as ``cancelled``
        whatever it reached, and as nothing else, so the five terminal
        counters sum to ``admitted``.  Only a completed job counts toward
        ``accelerated``, ``cache_hits`` and ``baseline_hits``.
        """
        if job.future.cancelled():
            self._counters["cancelled"] += 1
            return
        status = summary["status"]
        self._counters["timed_out" if status == "timeout" else status] += 1
        done = time.perf_counter()
        if status == "completed":
            if summary.get("accelerated"):
                self._counters["accelerated"] += 1
            if summary.get("cache_hit"):
                self._counters["cache_hits"] += 1
            if summary.get("baseline_hit"):
                self._counters["baseline_hits"] += 1
            self._record("execute", execute_seconds)
            # Split the execute path three ways so cold-vs-warm quantiles
            # compare only runs that actually went through the config
            # pipeline: CPU-only regions never consult the cache and
            # would otherwise pollute the cold histogram.
            if not summary.get("accelerated"):
                self._record("execute_cpu", execute_seconds)
            elif summary.get("cache_hit"):
                self._record("execute_warm", execute_seconds)
            else:
                self._record("execute_cold", execute_seconds)
            for phase, seconds in summary.get("phase_seconds", {}).items():
                self._record(f"phase:{phase}", seconds)
        elif status == "degraded":
            self._record("execute_degraded", execute_seconds)
        if status in ("completed", "degraded"):
            self._record("total", done - job.submitted_at)
        request = job.request
        job.future.set_result(OffloadResponse(
            label=request.label, client=request.client,
            status=status, reason=summary.get("reason", ""),
            accelerated=bool(summary.get("accelerated")),
            cache_hit=bool(summary.get("cache_hit")),
            coalesced=job.coalesced,
            speedup=float(summary.get("speedup", 0.0)),
            total_cycles=float(summary.get("total_cycles", 0.0)),
            queue_seconds=job.started_at - job.submitted_at,
            execute_seconds=execute_seconds,
            total_seconds=done - job.submitted_at))

    # -- dispatch -------------------------------------------------------------

    def _planned_fault(self, job: _Job) -> tuple[str | None, float]:
        if self.fault_plan is None:
            return None, 0.0
        fault = self.fault_plan.execution_fault(job.index, job.request.label)
        return fault, getattr(self.fault_plan, "hang_s", 30.0)

    async def _dispatch(self, job: _Job, task: OffloadTask,
                        affinity: Any, remaining: float | None) -> dict:
        """Run one task in-process (``workers=0``) or on the worker pool
        within ``remaining`` seconds (None: no deadline).

        Returns the task's summary with ``status="completed"``, or a
        terminal status when the request could not finish: a blown
        deadline is a ``timeout``; a crash, a task error or a broken pool
        is ``failed``.  An in-process task's own exception propagates.
        """
        loop = asyncio.get_running_loop()
        try:
            if self._procpool is None:
                future = loop.run_in_executor(self._executor, self._task,
                                              task)
                done, _ = await asyncio.wait({future}, timeout=remaining)
                if not done:
                    # A thread cannot be killed: detach it (its eventual
                    # result is discarded) and resolve the request now.
                    future.add_done_callback(self._swallow)
                    return {"status": "timeout",
                            "reason": f"execution exceeded {remaining:.3f}s "
                                      f"budget (in-process task detached)"}
                summary = future.result()
            else:
                summary = await loop.run_in_executor(
                    self._executor,
                    partial(self._procpool.execute, task,
                            timeout_s=remaining, affinity=affinity))
        except WorkerTimeout as exc:
            return {"status": "timeout", "reason": str(exc)}
        except WorkerCrash as exc:
            self._counters["worker_crashes"] += 1
            return {"status": "failed", "reason": str(exc)}
        except (WorkerTaskError, PoolBroken) as exc:
            return {"status": "failed", "reason": str(exc)}
        summary["status"] = "completed"
        if "cache_stats" in summary:
            self._cache_tally = self._cache_tally + summary["cache_stats"]
        job.new_regions = tuple(summary.get("new_regions", ()))
        self._store.add_many(job.new_regions)
        self._store.touch(summary.get("hit_regions", ()))
        return summary

    @staticmethod
    def _swallow(future) -> None:
        if not future.cancelled():
            future.exception()
