"""Supervised worker pool and the process-parallel shard runner.

The paper's evaluation is an embarrassingly parallel grid — kernels ×
backend configs × PE-scaling points — but a single Python process caps the
harness's throughput no matter how fast the simulator's hot loop gets.
This module decomposes a sweep into independent *shards* (one picklable
work unit each — a ``(kernel, config)`` point, or a *chunk* of points) and
executes them on a **persistent pool of warm workers**, merging the results
**deterministically**: outcomes are returned in shard-submission order, not
completion order, so any table or JSON built from them is byte-identical to
a serial run.

:class:`WorkerPool` is the one supervised process pool in the repo; the
sweep harness (:class:`ShardRunner`) and the offload service's worker
pool (:class:`repro.service.ProcessWorkerPool`) both run on it.  Each
worker process is owned directly and served one task at a time over its
own pipe, which buys three serving-grade properties a shared-queue
``ProcessPoolExecutor`` cannot give:

* **warm boot** — every worker runs an ``initializer`` before accepting
  work (pre-import the simulator stack, pre-build per-config controllers,
  seed caches) and then signals readiness over the pipe; a worker survives
  across tasks, so per-process caches stay resident;
* **deadline watchdog** — a task's wall-clock budget is measured from the
  moment it is handed to an idle worker, i.e. from actual execution
  start.  A task queued behind a slow one gets its *full* budget.  On
  expiry only the wedged worker is killed and replaced; every other
  in-flight task keeps running — the pool is repaired, never rebuilt;
* **exact crash blame** — the caller that dispatched a task is the only
  one waiting on that worker's pipe, so a dying worker process fails
  *its* task only (no ``BrokenProcessPool`` fan-out).

:class:`ShardRunner` adds per-shard robustness on top: ``retries`` bounded
re-execution after a crash, timeout, or worker exception, and **graceful
degradation** — a shard that exhausts its retries becomes a failed
:class:`ShardOutcome` carrying the error string, and the caller renders it
as a degraded row instead of aborting the whole sweep.

``workers=1`` runs every shard inline in the calling process — no pool, no
pickling — preserving the exact pre-existing serial behaviour (and letting
worker-side caches, like the per-config controller reuse in
:mod:`repro.harness.sweep`, live in the caller's process).  Any
``workers > 1`` goes through the pool, *including a single shard*: a lone
``(kernel, config)`` point still gets timeout enforcement and process
isolation.

Worker processes use the ``fork`` start method where the platform provides
it (the child inherits every imported module, making warm boot nearly
free) and fall back to ``spawn``; override with ``REPRO_MP_START_METHOD``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["Shard", "ShardOutcome", "ShardRunner", "WorkerPool",
           "WorkerCrash", "WorkerTimeout", "WorkerTaskError", "PoolBroken",
           "MAX_BOOT_FAILURES", "describe_error", "pool_start_method",
           "warm_boot_imports"]

#: Consecutive worker boot deaths tolerated before the pool gives up; a
#: worker that can't even boot is an environment failure, not any task's.
MAX_BOOT_FAILURES = 3


class WorkerCrash(RuntimeError):
    """The worker process died mid-task; it has been replaced."""


class WorkerTimeout(RuntimeError):
    """The task blew its deadline; the worker was killed and replaced."""


class WorkerTaskError(RuntimeError):
    """The task raised inside the worker; the worker itself is healthy."""


class PoolBroken(RuntimeError):
    """Workers failed to boot, none remain, or the pool is closed."""


def pool_start_method() -> str:
    """The multiprocessing start method the pool will use.

    ``fork`` where the platform allows it — the child inherits the parent's
    imported modules and read-only state, so warm boot costs almost nothing
    — with ``spawn`` as the portable fallback (macOS, Windows).  Set
    ``REPRO_MP_START_METHOD=spawn|fork|forkserver`` to override.
    """
    override = os.environ.get("REPRO_MP_START_METHOD")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def warm_boot_imports() -> None:
    """Default warm-boot initializer for this repo's own drivers.

    Imports the simulator stack so a spawn-context worker's first shard
    pays no import latency; under ``fork`` the child inherits the parent's
    modules and this is a no-op.
    """
    import repro.accel  # noqa: F401
    import repro.core  # noqa: F401
    import repro.cpu  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    import repro.workloads  # noqa: F401


@dataclass(frozen=True)
class Shard:
    """One independent unit of work.

    ``key`` identifies and orders the shard (e.g. ``(config, kernel)``);
    ``payload`` is the picklable argument handed to the worker function;
    ``timeout`` overrides the runner-wide ``shard_timeout`` for this shard
    (chunked shards scale it by their chunk size so a *per-point* budget
    still holds).
    """

    key: tuple
    payload: Any
    timeout: float | None = None


@dataclass
class ShardOutcome:
    """What happened to one shard."""

    key: tuple
    value: Any = None
    error: str | None = None
    #: Worker invocations consumed (1 = first try succeeded).  Pool repair
    #: after an unrelated worker's crash or timeout never charges an
    #: attempt: only this shard's own crash/timeout/exception does.
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return self.error is not None


# -- worker process side ------------------------------------------------------

_READY = "ready"
_OK = "ok"
_ERR = "err"
_TASK = "task"
_STOP = "stop"


def _worker_main(conn, worker_fn, initializer, initargs) -> None:
    """Worker process loop: warm boot, signal readiness (with the pid),
    then serve one task at a time (strict request/response over ``conn``)."""
    try:
        if initializer is not None:
            initializer(*initargs)
        conn.send((_READY, os.getpid()))
        while True:
            kind, payload = conn.recv()
            if kind == _STOP:
                break
            try:
                message = (_OK, worker_fn(payload))
            except Exception as exc:
                message = (_ERR, describe_error(exc))
            try:
                conn.send(message)
            except (EOFError, OSError):
                break
            except Exception as exc:
                # The result didn't pickle; the task still gets an answer.
                # (Connection.send pickles before writing, so the stream is
                # still clean when it raises.)
                conn.send((_ERR, describe_error(exc)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# -- parent side --------------------------------------------------------------

class _Worker:
    """Parent-side handle for one worker process and its duplex pipe."""

    __slots__ = ("process", "conn", "pid")

    def __init__(self, ctx, worker_fn, initializer, initargs) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_fn, initializer, initargs),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.pid: int | None = None

    def handshake(self, timeout: float) -> bool:
        """Wait for the ready message; False if the worker died booting."""
        try:
            if not self.conn.poll(timeout):
                return False
            kind, self.pid = self.conn.recv()
        except (EOFError, OSError):
            return False
        return kind == _READY

    def stop(self) -> None:
        """Ask the worker to exit once it is idle (best effort)."""
        try:
            self.conn.send((_STOP, None))
        except OSError:
            pass

    def kill(self) -> None:
        """Tear down a wedged or dead worker immediately."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)


class WorkerPool:
    """Fixed-size supervised pool of persistent worker processes.

    Every worker runs ``initializer(*initargs)`` and then
    ``worker_fn(payload)`` for each task it is handed.  :meth:`execute` is
    blocking and thread-safe: callers drive the pool from as many threads
    as there are workers, one task per thread.  ``affinity`` routes a task
    to a preferred worker (``hash(affinity) % size``) when that worker is
    idle, falling back to any idle worker.

    Subclasses override :meth:`_spawn_initargs` to compute the
    initializer's arguments at every spawn — a replacement worker boots
    from the state the parent holds *then*, not at construction.
    """

    BOOT_TIMEOUT = 120.0

    def __init__(self, workers: int, worker_fn: Callable[[Any], Any],
                 initializer: Callable[..., None] | None = None,
                 initargs: Sequence[Any] = ()) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.size = workers
        self._worker_fn = worker_fn
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._ctx = multiprocessing.get_context(pool_start_method())
        self._cond = threading.Condition()
        # Replacements spawn from dispatch threads.  One spawn at a time,
        # so no forked child inherits another new worker's end of its
        # pipe (which would hide that worker's death from the parent).
        self._spawn_lock = threading.Lock()
        self._slots: list[_Worker | None] = [None] * workers
        self._idle: set[int] = set()
        self._boot_failures = 0
        self._closed = False
        #: Workers killed for a crash or a blown deadline (read under the
        #: pool lock).
        self.restarts = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker, then wait for every handshake (blocking).

        Raises :class:`PoolBroken` once :data:`MAX_BOOT_FAILURES` workers in
        a row die before signalling readiness.
        """
        spawned = [self._spawn() for _ in range(self.size)]
        booted: list[_Worker] = []
        try:
            for worker in spawned:
                booted.append(self._boot(worker))
        except PoolBroken:
            for worker in spawned + booted:
                worker.kill()
            raise
        with self._cond:
            self._slots = booted
            self._idle = set(range(self.size))
            self._cond.notify_all()

    def close(self) -> None:
        """Ask every worker to stop, allow a second's grace, then kill
        whatever is still running (a busy worker never reads the stop)."""
        with self._cond:
            self._closed = True
            workers = [worker for worker in self._slots if worker is not None]
            self._slots = [None] * self.size
            self._idle.clear()
            self._cond.notify_all()
        for worker in workers:
            worker.stop()
        grace = time.monotonic() + 1.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, grace - time.monotonic()))
        for worker in workers:
            worker.kill()

    # -- introspection --------------------------------------------------------

    def worker_pids(self) -> list[int | None]:
        """Current pid per slot (None for a dead slot)."""
        with self._cond:
            return [worker.pid if worker is not None else None
                    for worker in self._slots]

    def alive(self) -> int:
        with self._cond:
            return sum(1 for worker in self._slots if worker is not None)

    # -- execution ------------------------------------------------------------

    def execute(self, payload: Any, timeout_s: float | None = None,
                affinity: Any = None) -> Any:
        """Run one payload on a worker; blocking, thread-safe.

        Raises :class:`WorkerTaskError` (the task raised or didn't pickle;
        the worker is healthy), :class:`WorkerCrash` /
        :class:`WorkerTimeout` (worker killed and replaced in place), or
        :class:`PoolBroken` (closed / no live workers).  The deadline
        anchors at dispatch: queueing for an idle worker does not consume
        the task's execution budget.
        """
        slot, worker = self._acquire(affinity)
        healthy = True
        try:
            try:
                worker.conn.send((_TASK, payload))
            except OSError as exc:
                healthy = False
                raise WorkerCrash(
                    f"worker {worker.pid} pipe failed: {exc}") from exc
            except Exception as exc:
                # The payload didn't pickle — the task's fault, not the
                # worker's: nothing was written, the worker stays idle.
                raise WorkerTaskError(describe_error(exc)) from exc
            try:
                if not worker.conn.poll(timeout_s):
                    healthy = False
                    raise WorkerTimeout(
                        f"execution exceeded {timeout_s:g}s; worker "
                        f"{worker.pid} killed and replaced")
                kind, value = worker.conn.recv()
            except (EOFError, OSError) as exc:
                healthy = False
                raise WorkerCrash(
                    f"worker {worker.pid} crashed mid-request "
                    f"(exit code {worker.process.exitcode})") from exc
            if kind == _ERR:
                raise WorkerTaskError(value)
            return value
        finally:
            if healthy:
                self._checkin(slot)
            else:
                self._replace(slot, worker)

    # -- internals ------------------------------------------------------------

    def _spawn_initargs(self) -> tuple:
        """The initializer's arguments for the worker about to spawn."""
        return self._initargs

    def _spawn(self) -> _Worker:
        initargs = self._spawn_initargs()
        with self._spawn_lock:
            return _Worker(self._ctx, self._worker_fn, self._initializer,
                           initargs)

    def _boot(self, worker: _Worker | None = None) -> _Worker:
        """Handshake ``worker`` (or a fresh spawn), respawning after a boot
        death until :data:`MAX_BOOT_FAILURES` consecutive failures."""
        while True:
            worker = worker if worker is not None else self._spawn()
            if worker.handshake(self.BOOT_TIMEOUT):
                with self._cond:
                    self._boot_failures = 0
                return worker
            worker.kill()
            worker = None
            with self._cond:
                self._boot_failures += 1
                failures = self._boot_failures
            if failures >= MAX_BOOT_FAILURES:
                raise PoolBroken(
                    f"worker pool failed to boot: {failures} workers in a "
                    f"row exited during warm-up (crashing initializer?)")

    def _acquire(self, affinity: Any) -> tuple[int, _Worker]:
        with self._cond:
            while True:
                if self._closed:
                    raise PoolBroken("worker pool is closed")
                if all(worker is None for worker in self._slots):
                    raise PoolBroken("no live workers remain")
                if self._idle:
                    preferred = (hash(affinity) % self.size
                                 if affinity is not None else None)
                    slot = (preferred if preferred in self._idle
                            else min(self._idle))
                    self._idle.remove(slot)
                    worker = self._slots[slot]
                    assert worker is not None
                    return slot, worker
                self._cond.wait(timeout=1.0)

    def _checkin(self, slot: int) -> None:
        with self._cond:
            if not self._closed and self._slots[slot] is not None:
                self._idle.add(slot)
                self._cond.notify()

    def _replace(self, slot: int, worker: _Worker) -> None:
        """Kill a wedged/dead worker and boot a replacement into its slot.

        The pool is repaired, never rebuilt: only this slot changes, the
        other workers keep running (and keep their warm caches).  If the
        replacement cannot boot, the slot is marked dead rather than
        raising — the original task's failure is the caller's error.
        """
        worker.kill()
        with self._cond:
            self.restarts += 1
            if self._closed:
                return
        try:
            replacement = self._boot()
        except PoolBroken:
            with self._cond:
                self._slots[slot] = None
                self._cond.notify_all()
            return
        with self._cond:
            if not self._closed:
                self._slots[slot] = replacement
                self._idle.add(slot)
                self._cond.notify()
                return
        replacement.kill()


class ShardRunner:
    """Executes shards on a :class:`WorkerPool` with exact retry/degrade
    semantics.

    Args:
        workers: pool size; ``1`` (the default) runs shards inline in the
            calling process, byte-identical to the historical serial path.
            Any larger value pools — even for a single shard, so timeout
            enforcement and process isolation never silently disappear.
        shard_timeout: wall-clock seconds allowed per shard, measured from
            the moment the shard starts executing on a worker (None =
            unbounded).  :attr:`Shard.timeout` overrides it per shard.
            Only enforceable with ``workers > 1`` — an in-process shard
            cannot be interrupted.
        retries: extra attempts granted after a crash/timeout/exception.
        initializer: warm-boot callable run once in each worker process
            before it accepts shards (and once in the calling process for
            the inline path, which *is* the worker).  Must be picklable
            under the ``spawn`` start method.
        initargs: arguments for ``initializer``.
    """

    def __init__(self, workers: int = 1, shard_timeout: float | None = None,
                 retries: int = 1,
                 initializer: Callable[..., None] | None = None,
                 initargs: Sequence[Any] = ()) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.shard_timeout = shard_timeout
        self.retries = retries
        self.initializer = initializer
        self.initargs = tuple(initargs)

    def map(self, worker: Callable[[Any], Any],
            shards: Sequence[Shard]) -> list[ShardOutcome]:
        """Run ``worker(shard.payload)`` for every shard.

        Returns one :class:`ShardOutcome` per shard **in input order**,
        regardless of completion order or worker count.  ``worker`` must be
        a module-level (picklable) callable when ``workers > 1``.  Raises
        :class:`PoolBroken` if the pool's workers cannot boot.
        """
        shards = list(shards)
        if not shards:
            return []
        if self.workers == 1:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return [self._run(lambda s: worker(s.payload), shard)
                    for shard in shards]
        pool = WorkerPool(min(self.workers, len(shards)), worker,
                          self.initializer, self.initargs)
        pool.start()

        def execute(shard: Shard) -> Any:
            return pool.execute(shard.payload, timeout_s=self._budget(shard))

        threads = ThreadPoolExecutor(max_workers=pool.size,
                                     thread_name_prefix="shard-dispatch")
        try:
            return list(threads.map(lambda shard: self._run(execute, shard),
                                    shards))
        finally:
            # Close the pool before joining the threads, so an interrupted
            # map ends every in-flight shard instead of waiting on it.
            pool.close()
            threads.shutdown()

    def _run(self, call: Callable[[Shard], Any],
             shard: Shard) -> ShardOutcome:
        """Call until success or the retry budget is spent; a failure that
        exhausts it becomes a degraded outcome carrying the error."""
        attempts = 0
        while True:
            attempts += 1
            try:
                return ShardOutcome(key=shard.key, value=call(shard),
                                    attempts=attempts)
            except PoolBroken:
                raise
            except Exception as exc:
                if attempts > self.retries:
                    return ShardOutcome(key=shard.key, attempts=attempts,
                                        error=self._error(exc, shard))

    def _budget(self, shard: Shard) -> float | None:
        return (shard.timeout if shard.timeout is not None
                else self.shard_timeout)

    def _error(self, exc: Exception, shard: Shard) -> str:
        if isinstance(exc, WorkerCrash):
            return "worker process crashed"
        if isinstance(exc, WorkerTimeout):
            return f"timed out after {self._budget(shard):g}s"
        if isinstance(exc, WorkerTaskError):
            return str(exc)
        return describe_error(exc)


def describe_error(exc: BaseException) -> str:
    """One-line error description with the innermost frame for context."""
    frames = traceback.extract_tb(exc.__traceback__)
    location = f" at {frames[-1].filename}:{frames[-1].lineno}" if frames else ""
    return f"{type(exc).__name__}: {exc}{location}"
