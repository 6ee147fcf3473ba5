"""Layer spans recorded from the benchmark's side of each layer boundary.

The benchmark times the program without editing it.  While a traced round
runs, :class:`Tracer` replaces every public callable named in
:data:`SPANS` -- at the place callers look it up -- with a wrapper that
records one :class:`Span` per call: name, start, end, the enclosing span on
the same thread, and the thread.  Uninstalling puts the original objects
back, so an untraced round runs exactly the program's own code.

A module-level function is wrapped at each module that imported it by name
(``repro.core.controller.collect_trace``), because that module's global is
what its callers resolve; a method is wrapped on its class.  ``mem`` and
``isa`` are called per access and per instruction, so tracing stays cheap
only because they are not wrapped; the one ``mem`` span is the
construction of a memory hierarchy, which allocates its caches.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

__all__ = ["SPANS", "SPAN_NAMES", "Span", "Tracer", "summarize",
           "top_level_seconds"]

#: (module, class or "", attribute, span name).  The span name's prefix is
#: the layer: the module under ``src/repro/`` whose code the call enters.
SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.harness.experiment", "", "build_kernel", "workloads.build_kernel"),
    ("repro.workloads", "", "build_kernel", "workloads.build_kernel"),
    ("repro.workloads.base", "KernelInstance", "fresh_state",
     "workloads.fresh_state"),
    ("repro.harness.experiment", "", "MemoryHierarchy", "mem.hierarchy_init"),
    ("repro.core.controller", "", "MemoryHierarchy", "mem.hierarchy_init"),
    ("repro.harness.experiment", "", "collect_trace", "cpu.collect_trace"),
    ("repro.core.controller", "", "collect_trace", "cpu.collect_trace"),
    ("repro.cpu.core", "OutOfOrderCore", "run", "cpu.ooo_run"),
    ("repro.cpu.multicore", "MulticoreCpu", "run", "cpu.multicore_run"),
    ("repro.core.controller", "MesaController", "execute", "core.execute"),
    ("repro.core.region", "CodeRegionDetector", "detect", "core.detect"),
    ("repro.core.controller", "", "build_ldfg", "core.build_ldfg"),
    ("repro.core.controller", "", "apply_memory_optimizations",
     "core.memopt"),
    ("repro.core.mapping", "InstructionMapper", "map", "core.map"),
    ("repro.core.controller", "", "build_program", "core.build_program"),
    ("repro.accel", "", "encode_bitstream", "accel.encode_bitstream"),
    ("repro.accel.engine", "DataflowEngine", "run", "accel.engine_run"),
    ("repro.accel.engine", "", "compile_plan", "accel.compile_plan"),
    ("repro.accel.engine", "", "drive_batched", "accel.drive_batched"),
    ("repro.accel.batch", "", "compile_batch", "accel.compile_batch"),
    ("repro.power.model", "AcceleratorEnergyModel", "energy", "power.energy"),
    ("repro.power.cpu_power", "CpuEnergyModel", "energy", "power.energy"),
)

#: Every distinct span name, in table order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(row[3] for row in SPANS))


def _execute_counts(result) -> dict[str, int]:
    stats = result.cache_stats
    return {"core.cache.hits": stats.hits, "core.cache.misses": stats.misses,
            "core.cache.evictions": stats.evictions,
            "core.accelerated": int(result.accelerated)}


def _ooo_counts(result) -> dict[str, int]:
    return {"cpu.trace_instrs": result.counters.instructions}


def _engine_counts(run) -> dict[str, int]:
    return {"accel.iterations": run.iterations,
            "accel.batched_runs": int(run.drive_path == "batched")}


#: Counts taken from a call's return value at the same boundary as its span,
#: so that ratios are measured where the work happens.
COUNTS: dict[str, Callable[[object], dict[str, int]]] = {
    "core.execute": _execute_counts,
    "cpu.ooo_run": _ooo_counts,
    "accel.engine_run": _engine_counts,
}


class Span(NamedTuple):
    id: int
    #: Id of the enclosing span on the same thread, 0 at top level.
    parent: int
    name: str
    start: float
    end: float
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the span wrappers and keeps what they record in memory.

    Use as a context manager around one traced round; the wrappers are
    removed on exit even if the round raises.  The parent stack is
    thread-local, so spans recorded on service worker threads nest under
    that thread's own enclosing span.
    """

    def __init__(self, table=SPANS) -> None:
        self.table = table
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module, cls, attr, name in self.table:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str):
        count = COUNTS.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end,
                                  threading.get_ident()))
            if count is not None:
                tally = count(result)
                with self._lock:
                    self.counts.update(tally)
            return result

        return wrapper

    def dump_jsonl(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    A span's self time is its duration minus the durations of its direct
    children.  Children run on their parent's thread, so they never
    overlap one another.
    """
    children = defaultdict(float)
    for span in spans:
        if span.parent:
            children[span.parent] += span.seconds
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name,
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.seconds
        row["self_s"] += span.seconds - children[span.id]
    return table


def top_level_seconds(spans, thread: int) -> float:
    """Seconds the given thread spent inside any top-level span."""
    return sum(span.seconds for span in spans
               if span.parent == 0 and span.thread == thread)
