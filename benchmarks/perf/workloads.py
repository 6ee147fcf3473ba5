"""The benchmark's four workloads.

Each workload builds its inputs from a seed, sets itself up (inputs plus a
warm-up), and then runs in rounds until the measuring time is up.  A round
returns the host latency of every op it completed and the busy seconds
those ops took together, which is the base of the throughput metric.

Every op's simulated outputs are compared with the workload's reference:
the results its own warm-up produced.  A simulator speed-up must leave
every simulated statistic identical, so any difference counts the op as
failed.  :meth:`Workload.simulated` exposes the reference for the golden
check and the ``sim_fingerprint`` in ``run.py``.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import hashlib
import itertools
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

from repro.accel import M_128, M_512, DataflowEngine, mesa_config
from repro.core import MesaController, region_digest
from repro.harness import ExperimentRunner, Fig11Result
from repro.isa import Executor
from repro.service import (
    ControllerPool,
    MesaService,
    OffloadRequest,
    ServiceClient,
    serve,
    zipfian_stream,
)
from repro.workloads import (
    FIG11_SET,
    GeneratorParams,
    build_kernel,
    generate_kernel,
    kernel_names,
)

__all__ = ["WORKLOADS", "ENGINE_KERNELS", "RoundResult", "Workload",
           "fig11_row", "percentile"]

#: Fig. 11 trip count, as in benchmarks/bench_fig11_rodinia.py.
FIG11_ITERATIONS = 384
#: The paper's Fig. 11 geomean speedups over the 16-core CPU.
PAPER_FIG11_SPEEDUP = {"m128": 1.33, "m512": 1.81}

#: The batchable kernels of benchmarks/bench_engine_throughput.py plus bfs,
#: the one kernel still driven by the scalar compiled loop.
ENGINE_KERNELS = ("hotspot", "cfd", "kmeans", "nn", "backprop", "pathfinder",
                  "streamcluster", "nw", "lavamd", "myocyte", "bfs")
ENGINE_ITERATIONS = 4096
#: Trip count of the build the fabric configuration is taken from.  The
#: configuration depends only on the loop body, which does not change with
#: the trip count (set-up checks the region digests match); configuring
#: from the long build would spend ~8 s of set-up modelling 4096 CPU
#: iterations that the timed drive never uses.
ENGINE_CONFIGURE_ITERATIONS = 64

SERVICE_ITERATIONS = 64
#: Closed-loop clients: an offloading core waits for its reply.
CLIENTS = 2
SERVICE_WORKERS = 2
#: Requests per service round.
SEGMENT_REQUESTS = 40
ZIPF_S = 1.1
#: Long enough that no run drains it.
ZIPF_STREAM_LENGTH = 20_000
CHURN_CONFIGS = ("M-64", "M-128", "M-512")
CHURN_CACHE_ENTRIES = 16
#: Churn regions generated per measured second: a ceiling well above the
#: service's rate; a run that drains them stops early.
CHURN_REGIONS_PER_SECOND = 80
CHURN_WARMUP_REQUESTS = 6
#: Leading requests every churn run completes; the fingerprint covers them.
CHURN_FINGERPRINT_REQUESTS = 64
#: Churn requests re-run through a fresh controller after the run, to check
#: that the service returns what the library computes.
CHURN_CROSS_CHECKS = 4


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class RoundResult:
    #: Host seconds of each op the round completed.
    latencies: list[float]
    #: Seconds the ops took together: the throughput base.
    busy_s: float


class Workload:
    """Base class: failure bookkeeping and the no-op defaults."""

    name = ""
    #: What one op is, for the printed report.
    op = ""
    #: The simulated results do not depend on the seed.
    seed_independent = False
    #: The golden holds more items than one run produces.
    partial_golden = False

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, traced: bool) -> RoundResult | None:
        """One round; None when the workload's inputs are used up."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run after the measurement, then teardown."""
        self.close()

    def close(self) -> None:
        """Release what set-up started."""

    def simulated(self) -> dict[str, object]:
        """Every simulated result the run produced, keyed by item."""
        raise NotImplementedError

    def fingerprint_keys(self, simulated: dict[str, object]) -> list[str]:
        """The keys every run at this seed produces."""
        return sorted(simulated)

    def layer_metrics(self, spans: dict[str, dict[str, float]],
                      rounds: int) -> dict[str, float]:
        """Workload-specific per-layer metrics, per traced round."""
        return {}

    def info(self, busy: list[float]) -> list[str]:
        """Informational report lines, given each round's busy seconds."""
        return []


def _check_same(workload: Workload, what: str, new, old) -> None:
    if old is not None and new != old:
        workload.fail(f"{what}: set-up results differ between set-ups")


# -- fig11-sweep --------------------------------------------------------------


def fig11_row(kernel: str, outputs: dict) -> dict:
    """A kernel's Fig. 11 row, computed as ``fig11_rodinia`` computes it."""
    base_cycles, base_energy, _ = outputs[(kernel, "multicore-16")]
    m128 = outputs[(kernel, "M-128")]
    m512 = outputs[(kernel, "M-512")]
    return {
        "kernel": kernel,
        "speedup_m128": base_cycles / m128[0],
        "speedup_m512": base_cycles / m512[0],
        "efficiency_m128": base_energy / max(1e-9, m128[1]),
        "efficiency_m512": base_energy / max(1e-9, m512[1]),
        "accelerated_m128": m128[2],
        "accelerated_m512": m512[2],
    }


class Fig11Sweep(Workload):
    """The paper's headline run: Fig. 11 over 19 kernels, serially.

    One op is one system's evaluation of one kernel -- the 16-core
    baseline, M-128 or M-512 -- through the harness's ExperimentRunner,
    exactly as ``fig11_rodinia``'s row worker composes them, with the
    input data drawn from the seed.
    """

    name = "fig11-sweep"
    op = "kernel x system evaluation (57 per sweep)"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.reference: dict | None = None

    def _sweep(self) -> tuple[dict, list[float]]:
        outputs: dict[tuple[str, str], tuple] = {}
        latencies: list[float] = []
        for kernel in FIG11_SET:
            runner = ExperimentRunner(iterations=FIG11_ITERATIONS,
                                      seed=self.seed)
            systems = (("multicore-16", lambda: runner.multicore(kernel, 16)),
                       ("M-128", lambda: runner.mesa(kernel, M_128)),
                       ("M-512", lambda: runner.mesa(kernel, M_512)))
            for system, evaluate in systems:
                start = time.perf_counter()
                result = evaluate()
                latencies.append(time.perf_counter() - start)
                outputs[(kernel, system)] = (result.cycles, result.energy_pj,
                                             result.accelerated)
        return outputs, latencies

    def setup(self) -> None:
        outputs, _ = self._sweep()
        _check_same(self, "fig11", outputs, self.reference)
        self.reference = outputs

    def run_round(self, traced: bool) -> RoundResult:
        start = time.perf_counter()
        outputs, latencies = self._sweep()
        busy = time.perf_counter() - start
        self.attempted += len(outputs)
        for key, value in outputs.items():
            if value != self.reference[key]:
                self.fail(f"{key[0]} on {key[1]}: {value} != "
                          f"{self.reference[key]}")
        return RoundResult(latencies, busy)

    def simulated(self) -> dict[str, object]:
        return {kernel: fig11_row(kernel, self.reference)
                for kernel in FIG11_SET}

    def info(self, busy: list[float]) -> list[str]:
        rows = list(self.simulated().values())
        mean = Fig11Result(rows=rows).mean_speedup
        lines = [f"sweep_s = {statistics.median(busy):.4f} s "
                 f"(median of {len(busy)} timed sweeps)"]
        lines.append(
            "accuracy (informational): fig11 geomean speedup vs 16-core "
            + ", ".join(f"{cfg.upper()} {mean[cfg]:.2f}x (paper "
                        f"{PAPER_FIG11_SPEEDUP[cfg]:.2f}x)"
                        for cfg in ("m128", "m512")))
        return lines


# -- engine-long --------------------------------------------------------------


def _memory_digest(memory: dict[int, int]) -> str:
    return hashlib.sha256(repr(sorted(memory.items())).encode()).hexdigest()


def _loop_entry_state(kernel, entry_pc: int):
    """A fresh state of ``kernel`` stepped functionally to ``entry_pc``."""
    state = kernel.fresh_state()
    executor = Executor(kernel.program, state)
    for _ in range(100_000):
        if state.pc == entry_pc:
            return state
        executor.step()
    raise RuntimeError(f"{kernel.name}: loop entry {entry_pc:#x} not reached")


class EngineLong(Workload):
    """Long fabric drives: only ``DataflowEngine.run`` is timed.

    Each of 11 kernels is configured at M-128 during set-up; a round drives
    each one for 4096 iterations from a deep copy of its loop-entry state,
    with a fresh engine (and so cold modelled caches).  The copy, the
    engine and the check sit outside the timer.  One op is one drive.
    """

    name = "engine-long"
    op = "4096-iteration fabric drive of one kernel (11 per pass)"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.drives: dict[str, tuple] = {}
        self.reference: dict[str, tuple] | None = None
        self.iterations: dict[str, int] = defaultdict(int)
        self.drive_s: dict[str, float] = defaultdict(float)
        self.paths: dict[str, str] = {}

    def setup(self) -> None:
        drives = {}
        for name in ENGINE_KERNELS:
            long = build_kernel(name, iterations=ENGINE_ITERATIONS,
                                seed=self.seed)
            short = build_kernel(name, iterations=ENGINE_CONFIGURE_ITERATIONS,
                                 seed=self.seed)
            controller = MesaController(M_128)
            result = controller.execute(short.program, short.state_factory,
                                        parallelizable=short.parallelizable)
            if not result.accelerated:
                raise RuntimeError(f"{name} did not offload: {result.reason}")
            loop = result.decision.loop
            if (region_digest(long.program, loop.start_address,
                              loop.end_address)
                    != region_digest(short.program, loop.start_address,
                                     loop.end_address)):
                raise RuntimeError(f"{name}: loop body changes with the "
                                   "trip count")
            drives[name] = (result.accel_program, controller.interconnect,
                            result.loop_plan.to_execution_options(),
                            _loop_entry_state(long, loop.start_address))
        self.drives = drives
        reference = {name: self._outputs(run)
                     for name, run, _ in self._pass()}
        _check_same(self, "engine", reference, self.reference)
        self.reference = reference

    def _pass(self):
        for name, (program, interconnect, options, entry) in \
                self.drives.items():
            state = copy.deepcopy(entry)
            engine = DataflowEngine(program, interconnect=interconnect)
            start = time.perf_counter()
            run = engine.run(state, options)
            yield name, run, time.perf_counter() - start

    @staticmethod
    def _outputs(run) -> tuple:
        return (run.iterations, run.cycles,
                dataclasses.asdict(run.activity),
                run.final_state.memory._bytes)

    def run_round(self, traced: bool) -> RoundResult:
        latencies = []
        for name, run, seconds in self._pass():
            latencies.append(seconds)
            self.attempted += 1
            if self._outputs(run) != self.reference[name]:
                self.fail(f"{name}: drive results differ from the reference")
            self.paths[name] = run.drive_path
            if traced:
                self.iterations[name] += run.iterations
                self.drive_s[name] += seconds
        return RoundResult(latencies, sum(latencies))

    def simulated(self) -> dict[str, object]:
        return {name: {"iterations": iterations, "cycles": cycles,
                       "activity": activity,
                       "memory_sha256": _memory_digest(memory)}
                for name, (iterations, cycles, activity, memory)
                in self.reference.items()}

    def layer_metrics(self, spans, rounds: int) -> dict[str, float]:
        return {f"accel.{name}.iters_per_s":
                self.iterations[name] / self.drive_s[name]
                for name in ENGINE_KERNELS if self.drive_s[name]}

    def info(self, busy: list[float]) -> list[str]:
        iterations = sum(run[0] for run in self.reference.values())
        rate = statistics.median(iterations / seconds for seconds in busy)
        paths = ", ".join(f"{name}={path}"
                          for name, path in self.paths.items())
        return [f"fabric_iters_per_s = {rate:.1f} iter/s (median over "
                f"{len(busy)} passes)", f"drive paths: {paths}"]


# -- service-zipf / service-churn ---------------------------------------------


class _ServiceWorkload(Workload):
    """A MesaService on its own event loop, driven by closed-loop clients.

    One op is one request, timed as its client sees it.  A round is one
    segment of :data:`SEGMENT_REQUESTS` requests shared by the clients;
    every request of a segment completes before the next begins.
    """

    op = "offload request (client-observed)"
    cache_entries = 0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.service: MesaService | None = None
        #: Per-layer samples and counts from traced rounds.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def setup(self) -> None:
        self.close()
        self.loop = asyncio.new_event_loop()
        self.service = MesaService(
            pool=ControllerPool(cache_capacity=self.cache_entries,
                                cache_policy="lru"),
            workers=SERVICE_WORKERS, max_queue=64, max_per_client=8)
        self._run(self.service.start())
        self._run(self._start())

    async def _start(self) -> None:
        raise NotImplementedError

    async def _send(self, client_index: int, item) -> tuple[dict, float]:
        """Send one request; returns (reply fields, client latency)."""
        raise NotImplementedError

    def _check(self, item, reply: dict) -> None:
        raise NotImplementedError

    def _retries(self) -> int:
        return 0

    def _segment_items(self) -> list:
        raise NotImplementedError

    def run_round(self, traced: bool) -> RoundResult | None:
        items = self._segment_items()
        if not items:
            return None
        return self._run(self._segment(items, traced))

    async def _segment(self, items: list, traced: bool) -> RoundResult:
        pending = iter(items)
        done: list[tuple[object, dict, float]] = []

        async def client_loop(index: int) -> None:
            for item in pending:
                reply, latency = await self._send(index, item)
                done.append((item, reply, latency))

        before = self.service.stats()
        retries = self._retries()
        start = time.perf_counter()
        await asyncio.gather(*(client_loop(i) for i in range(CLIENTS)))
        busy = time.perf_counter() - start
        for item, reply, _ in done:
            self.attempted += 1
            if reply["status"] != "completed":
                self.fail(f"{reply['status']}: {reply.get('reason', '')}")
            else:
                self._check(item, reply)
        if traced:
            delta = self.service.stats() - before
            self.counts["service.coalesced"] += delta.coalesced
            self.counts["service.rejected"] += (delta.rejected_queue_full
                                                + delta.rejected_client_quota)
            self.counts["service.retries"] += self._retries() - retries
            for _, reply, latency in done:
                self.samples["queue_wait"].append(reply["queue_seconds"])
                self.samples["execute"].append(reply["execute_seconds"])
                self.samples["wire"].append(latency - reply["total_seconds"])
        return RoundResult([latency for _, _, latency in done], busy)

    def close(self) -> None:
        if self.loop is None:
            return
        self._run(self._stop())
        self._run(self.service.close())
        self.loop.close()
        self.loop = None

    async def _stop(self) -> None:
        """Stop whatever fronts the service."""

    def layer_metrics(self, spans, rounds: int) -> dict[str, float]:
        def ms(name: str, q: int) -> float:
            return percentile(self.samples[name], q) * 1e3

        execute_s = sum(self.samples["execute"])
        core_s = spans.get("core.execute", {}).get("total_s", 0.0)
        metrics = {
            "service.queue_wait_p50_ms": ms("queue_wait", 50),
            "service.queue_wait_p95_ms": ms("queue_wait", 95),
            "service.execute_p50_ms": ms("execute", 50),
            "service.execute_p95_ms": ms("execute", 95),
            "service.wire_p50_ms": ms("wire", 50),
            "service.execute_unattributed_frac":
                1.0 - core_s / execute_s if execute_s else 0.0,
        }
        for name in ("service.coalesced", "service.rejected",
                     "service.retries"):
            metrics[name] = self.counts[name] / rounds
        return metrics


class ServiceZipf(_ServiceWorkload):
    """Zipf(1.1) requests over 19 named kernels through the TCP front end.

    After a warm-up of every kernel cold and then warm, the config cache
    holds every region, so the timed requests are all hits.  The kernels
    are built server-side with their default data, so every request's
    simulated cycles are the same at any seed: only the request stream
    comes from the seed.
    """

    name = "service-zipf"
    seed_independent = True
    cache_entries = 64

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.reference: dict[str, float] | None = None

    async def _start(self) -> None:
        self.server = await serve(self.service, port=0)
        port = self.server.sockets[0].getsockname()[1]
        self.clients = [ServiceClient(port=port, client_id=f"client-{i}",
                                      seed=self.seed)
                        for i in range(CLIENTS)]
        kernels = kernel_names()
        self.stream = iter(zipfian_stream(kernels, ZIPF_STREAM_LENGTH,
                                          s=ZIPF_S, seed=self.seed))
        reference = {}
        for _ in ("cold", "warm"):
            for kernel in kernels:
                reply, _ = await self._send(0, kernel)
                if reply["status"] != "completed":
                    raise RuntimeError(f"warm-up {kernel}: {reply}")
                reference[self._key(kernel, reply)] = reply["total_cycles"]
        _check_same(self, "service-zipf", reference, self.reference)
        self.reference = reference

    async def _stop(self) -> None:
        self.server.close()
        await self.server.wait_closed()

    @staticmethod
    def _key(kernel: str, reply: dict) -> str:
        return f"{kernel}/{'hit' if reply['cache_hit'] else 'miss'}"

    async def _send(self, client_index: int, kernel) -> tuple[dict, float]:
        start = time.perf_counter()
        reply = await self.clients[client_index].offload(
            kernel, iterations=SERVICE_ITERATIONS)
        return reply, time.perf_counter() - start

    def _check(self, kernel, reply: dict) -> None:
        key = self._key(kernel, reply)
        if reply["total_cycles"] != self.reference.get(key):
            self.fail(f"{key}: total_cycles {reply['total_cycles']} != "
                      f"{self.reference.get(key)}")

    def _retries(self) -> int:
        return sum(client.retries for client in self.clients)

    def _segment_items(self) -> list:
        return list(itertools.islice(self.stream, SEGMENT_REQUESTS))

    def simulated(self) -> dict[str, object]:
        return dict(self.reference)


def churn_requests(seed: int, count: int) -> list[OffloadRequest]:
    """``count`` generated loop regions, none repeating, over 3 chips."""
    rng = random.Random(seed)
    seen = set()
    requests: list[OffloadRequest] = []
    while len(requests) < count:
        kernel = generate_kernel(GeneratorParams(
            loads=rng.randint(1, 4), compute_ops=rng.randint(2, 12),
            stores=rng.randint(1, 2), fp_fraction=rng.random(),
            iterations=SERVICE_ITERATIONS, seed=rng.randrange(1 << 30)))
        request = OffloadRequest(
            program=kernel.program, state_factory=kernel.state_factory,
            client="churn", config=CHURN_CONFIGS[len(requests) % 3],
            parallelizable=kernel.parallelizable,
            label=f"region-{len(requests)}")
        if request.coalesce_key() in seen:
            continue
        seen.add(request.coalesce_key())
        requests.append(request)
    return requests


class ServiceChurn(_ServiceWorkload):
    """Never-repeating generated regions through an in-process service.

    Every request misses the 16-entry cache and evicts: the write side of
    the cache, where translate, map and configure dominate.  The wire
    accepts only named kernels, so the clients call the service directly.
    """

    name = "service-churn"
    partial_golden = True
    cache_entries = CHURN_CACHE_ENTRIES

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.requests: list[OffloadRequest] = []
        self.cycles: dict[int, float] = {}
        self.next_index = 0

    async def _start(self) -> None:
        count = (CHURN_WARMUP_REQUESTS
                 + int(CHURN_REGIONS_PER_SECOND * self.seconds))
        self.requests = churn_requests(self.seed, count)
        self.cycles = {}
        for index in range(CHURN_WARMUP_REQUESTS):
            reply, _ = await self._send(0, index)
            if reply["status"] != "completed":
                raise RuntimeError(f"warm-up region-{index}: {reply}")
            self._check(index, reply)
        self.next_index = CHURN_WARMUP_REQUESTS

    async def _send(self, client_index: int, index) -> tuple[dict, float]:
        start = time.perf_counter()
        response = await self.service.offload(self.requests[index])
        latency = time.perf_counter() - start
        return dataclasses.asdict(response), latency

    def _check(self, index, reply: dict) -> None:
        if reply["cache_hit"]:
            self.fail(f"region-{index} hit the cache; regions never repeat")
        self.cycles[index] = reply["total_cycles"]

    def _segment_items(self) -> list:
        end = min(len(self.requests), self.next_index + SEGMENT_REQUESTS)
        items = list(range(self.next_index, end))
        self.next_index = end
        return items

    def finish(self) -> None:
        pool = self.service.pool
        timed = sorted(self.cycles)[CHURN_WARMUP_REQUESTS:]
        for index in timed[:CHURN_CROSS_CHECKS]:
            request = self.requests[index]
            controller = MesaController(mesa_config(request.config),
                                        pool.cpu_config, pool.options)
            expected = controller.execute(
                request.program, request.state_factory,
                parallelizable=request.parallelizable).total_cycles
            if expected != self.cycles[index]:
                self.fail(f"region-{index}: service total_cycles "
                          f"{self.cycles[index]} != library {expected}")
        super().finish()

    def simulated(self) -> dict[str, object]:
        return {str(index): self.cycles[index]
                for index in sorted(self.cycles)}

    def fingerprint_keys(self, simulated: dict[str, object]) -> list[str]:
        return [str(index) for index in range(CHURN_FINGERPRINT_REQUESTS)]


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Fig11Sweep, EngineLong, ServiceZipf, ServiceChurn)
}
