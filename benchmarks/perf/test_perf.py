"""Tests of the benchmark itself; run explicitly, not part of tier 1.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py
    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -k quick

The ``quick`` smoke runs every workload for one second, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with
its unit.  The other tests check the span arithmetic, that tracing leaves
the program as it found it, and that a perturbed simulated result fails
the golden check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import SPANS, Span, Tracer, summarize, top_level_seconds  # noqa: E402

from repro.accel import M_128, DataflowEngine, encode_bitstream  # noqa: E402
from repro.core import MesaController  # noqa: E402
from repro.harness import fig11_rodinia  # noqa: E402
from repro.workloads import build_kernel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(1, 0, "root", 0.0, 10.0, 7),
        Span(2, 1, "a", 1.0, 4.0, 7),
        Span(3, 2, "leaf", 2.0, 3.0, 7),
        Span(4, 1, "b", 5.0, 9.0, 7),
        Span(5, 0, "root", 20.0, 21.0, 7),
        Span(6, 0, "other-thread", 0.0, 50.0, 8),
    ]
    table = summarize(spans)
    assert table["root"] == {"calls": 2, "total_s": 11.0, "self_s": 4.0}
    assert table["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert table["leaf"]["self_s"] == 1.0
    assert table["b"]["self_s"] == 4.0
    # Self times partition each thread's top-level time.
    assert sum(row["self_s"] for name, row in table.items()
               if name != "other-thread") == top_level_seconds(spans, 7)


class _Toy:
    def outer(self, inner_calls: int) -> int:
        return sum(self.inner() for _ in range(inner_calls))

    def inner(self) -> int:
        return 1


_TOY_TABLE = ((__name__, "_Toy", "outer", "toy.outer"),
              (__name__, "_Toy", "inner", "toy.inner"))


def test_spans_nest_per_thread():
    tracer = Tracer(table=_TOY_TABLE)
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        _Toy().outer(3)

    with tracer:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    by_id = {span.id: span for span in tracer.spans}
    outers = [span for span in tracer.spans if span.name == "toy.outer"]
    inners = [span for span in tracer.spans if span.name == "toy.inner"]
    assert len(outers) == 2 and len(inners) == 6
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "toy.outer" and parent.thread == span.thread


def test_tracer_restores_every_original():
    import importlib

    def originals():
        found = []
        for module, cls, attr, _ in SPANS:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            found.append(vars(owner)[attr])
        return found

    before = originals()
    original_run = DataflowEngine.run
    kernel = build_kernel("nn", iterations=96)
    tracer = Tracer()
    with tracer:
        MesaController(M_128).execute(kernel.program, kernel.state_factory,
                                      parallelizable=kernel.parallelizable)
    assert DataflowEngine.run is original_run
    assert all(a is b for a, b in zip(originals(), before))
    names = {span.name for span in tracer.spans}
    assert {"core.execute", "cpu.collect_trace", "cpu.ooo_run", "core.map",
            "accel.engine_run"} <= names
    execute = next(s for s in tracer.spans if s.name == "core.execute")
    engine = next(s for s in tracer.spans if s.name == "accel.engine_run")
    assert engine.parent == execute.id
    assert tracer.counts["core.accelerated"] == 1

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("round failed")
    assert DataflowEngine.run is original_run


class _Stub:
    name = "service-zipf"
    seed = 1
    seed_independent = True
    partial_golden = False

    def fingerprint_keys(self, simulated):
        return sorted(simulated)


def test_perturbed_simulated_value_fails_the_golden_check():
    golden = json.loads(run.GOLDEN.read_text())["service-zipf"]["simulated"]
    status, bad = run.check_golden(_Stub(), dict(golden))
    assert bad == 0, status
    perturbed = dict(golden)
    key = sorted(perturbed)[0]
    perturbed[key] += 1.0
    status, bad = run.check_golden(_Stub(), perturbed)
    assert bad == 1 and key in status
    missing = dict(golden)
    del missing[key]
    assert run.check_golden(_Stub(), missing)[1] == 1


def test_fig11_rows_match_the_harness(monkeypatch):
    kernels = ("nn", "bfs", "srad")
    monkeypatch.setattr(workloads, "FIG11_ITERATIONS", 32)
    monkeypatch.setattr(workloads, "FIG11_SET", kernels)
    sweep = workloads.Fig11Sweep(seed=1, seconds=0)
    sweep.setup()
    expected = fig11_rodinia(iterations=32, kernels=kernels).rows
    assert list(sweep.simulated().values()) == expected


def test_engine_configuration_does_not_depend_on_trip_count():
    for name in workloads.ENGINE_KERNELS:
        configured = []
        for iterations in (workloads.ENGINE_CONFIGURE_ITERATIONS,
                           workloads.ENGINE_ITERATIONS):
            kernel = build_kernel(name, iterations=iterations)
            result = MesaController(M_128).execute(
                kernel.program, kernel.state_factory,
                parallelizable=kernel.parallelizable)
            configured.append((encode_bitstream(result.accel_program),
                               result.loop_plan,
                               result.decision.loop.start_address))
        assert configured[0] == configured[1], name


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


#: A per-layer metric each workload must fill, by workload.
_OWN_LAYER_METRIC = {
    "fig11-sweep": "cpu.ooo_run.total_s",
    "engine-long": "accel.nn.iters_per_s",
    "service-zipf": "service.execute_p50_ms",
    "service-churn": "core.map.total_s",
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_smoke_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in wanted:
        printed = f"{metric['name']} = "
        value = result["metrics"][metric["name"]]["value"]
        assert not value or printed in proc.stdout, metric["name"]
    if trace:
        assert result["metrics"][_OWN_LAYER_METRIC[workload]]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
