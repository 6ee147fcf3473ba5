"""MESA-as-a-service: the long-lived offload server.

Today's CLI runs are one-shot; this package is the deployment model the
paper's amortization argument implies — one chip, one shared
configuration cache, many concurrent offload streams:

* :class:`MesaService` — asyncio server: bounded queue, admission control
  with per-client fairness, request coalescing (identical in-flight
  regions translate once), per-request deadlines, circuit-broken
  CPU-baseline degradation, idempotent dedupe, and one dispatch path:
  every request runs the same task on supervised worker processes
  (``workers >= 1``) or in-process (``workers=0``);
* :class:`ControllerPool` — one shared controller per chip/backend;
* :class:`OffloadTask` / :class:`ProcessWorkerPool` /
  :class:`CircuitBreaker` — the picklable task payload and the supervised
  worker processes that run it: crash isolation, deadline kills,
  in-place replacement, warm seeding;
* :class:`RegionStore` / :func:`save_snapshot` / :func:`load_snapshot` —
  config-cache persistence: versioned on-disk snapshots, tolerant
  restore;
* :class:`ServiceClient` — backpressure-honoring client with capped
  jittered backoff and idempotent resubmission;
* :class:`FaultPlan` / :func:`run_chaos_test` — deterministic fault
  injection and the chaos smoke behind ``repro serve --self-test
  --chaos``;
* :class:`ServiceStats` / :class:`HistogramSnapshot` — monotonic,
  subtractable metrics snapshots for interval reporting;
* :func:`zipfian_stream` — popularity-skewed request mixes;
* :func:`run_self_test` / :func:`serve` — CI smoke and the TCP JSON-lines
  front end behind ``repro serve``.
"""

from .checkpoint import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    RegionStore,
    load_snapshot,
    save_snapshot,
)
from .client import ServiceClient
from .faults import FaultPlan, corrupt_snapshot, run_chaos_test
from .metrics import (
    BUCKET_BOUNDS,
    HistogramSnapshot,
    LatencyHistogram,
    ServiceStats,
)
from .net import (
    MAX_LINE_BYTES,
    SELF_TEST_KERNELS,
    response_to_json,
    run_self_test,
    serve,
    stats_to_json,
)
from .procpool import (
    CircuitBreaker,
    ControllerPool,
    OffloadTask,
    PoolBroken,
    ProcessWorkerPool,
    WorkerCrash,
    WorkerTaskError,
    WorkerTimeout,
)
from .server import (
    TERMINAL_STATUSES,
    AdmissionError,
    MesaService,
    OffloadRequest,
    OffloadResponse,
)
from .workload import popularity_tier, zipf_weights, zipfian_stream

__all__ = [
    "BUCKET_BOUNDS",
    "HistogramSnapshot",
    "LatencyHistogram",
    "ServiceStats",
    "MAX_LINE_BYTES",
    "SELF_TEST_KERNELS",
    "response_to_json",
    "run_self_test",
    "serve",
    "stats_to_json",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "RegionStore",
    "load_snapshot",
    "save_snapshot",
    "ServiceClient",
    "FaultPlan",
    "corrupt_snapshot",
    "run_chaos_test",
    "CircuitBreaker",
    "OffloadTask",
    "PoolBroken",
    "ProcessWorkerPool",
    "WorkerCrash",
    "WorkerTaskError",
    "WorkerTimeout",
    "TERMINAL_STATUSES",
    "AdmissionError",
    "ControllerPool",
    "MesaService",
    "OffloadRequest",
    "OffloadResponse",
    "popularity_tier",
    "zipf_weights",
    "zipfian_stream",
]
