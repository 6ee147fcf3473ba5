"""Run the repository benchmark.

One workload, in this process (the form BENCHMARK.json's command takes)::

    python3 benchmarks/perf/run.py --workload fig11-sweep --seed 1 \\
        --seconds 15 --trace 0

prints the report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``.  It exits 1 if any op failed or any simulated result
differs from its reference or from ``golden.json``.

Every workload, each in its own fresh interpreter, one at a time::

    python3 benchmarks/perf/run.py [--seed N] [--repeat R] [--trace] \\
        [--out FILE]

runs seeds N .. N+R-1, workloads interleaved, each untraced and (with
``--trace``) then traced, and writes the record ``compare.py`` reads.
"""

from __future__ import annotations

import time

#: Set-up time counts from here: imports are part of it.
START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"
#: Span dumps and per-run records; ignored by git.
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: A traced run needs at least one traced and one untraced round.
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 900

#: Every time the benchmark reports is host time scaled to one machine
#: speed.  A fixed pure-Python loop is timed before and after each round;
#: a duration measured while the loop took ``c`` seconds is multiplied by
#: ``CALIBRATION_REFERENCE_S / c``.  On a shared host the loop's time
#: drifts by up to 2x within minutes, and the workloads' times drift with
#: it: the scaling halves their run-to-run spread (README.md, "Noise").
CALIBRATION_REFERENCE_S = 0.015
CALIBRATION_SAMPLES = 3
#: Units whose values are scaled as durations, and as rates.
DURATION_UNITS = ("s", "ms", "ns")
RATE_UNITS = ("op/s", "iter/s")


@dataclass
class Round:
    latencies: list[float]
    busy_s: float
    traced: bool
    #: CALIBRATION_REFERENCE_S over the calibration time around the round.
    scale: float


def calibration_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def calibrate() -> list[float]:
    """Seconds of each of CALIBRATION_SAMPLES calibration loops."""
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        calibration_loop()
        samples.append(time.perf_counter() - start)
    return samples


def scale_between(before: list[float], after: list[float]) -> float:
    return CALIBRATION_REFERENCE_S / statistics.median(before + after)


def scaled(value: float, unit: str, scale: float) -> float:
    if unit in DURATION_UNITS:
        return value * scale
    if unit in RATE_UNITS:
        return value / scale
    return value


def load_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(p25, median, p75), as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, median, p75 = statistics.quantiles(values, n=4)
    return p25, median, p75


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload -------------------------------------------------------------


def measure(workload, seconds: float, tracer) -> list[Round]:
    """Rounds until ``seconds`` have passed; with a tracer, every other
    round (the first included) runs traced."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            with tracer:
                result = workload.run_round(traced=True)
        else:
            result = workload.run_round(traced=False)
        if result is None:
            break
        after = calibrate()
        rounds.append(Round(result.latencies, result.busy_s, traced,
                            scale_between(before, after)))
        before = after
    return rounds


def end_to_end(rounds: list[Round], setup_s: float,
               scaling: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``scaling=False`` gives raw host time."""
    from workloads import percentile

    scales = [r.scale if scaling else 1.0 for r in rounds]
    latencies = [x * scale for r, scale in zip(rounds, scales)
                 for x in r.latencies]
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            len(r.latencies) / (r.busy_s * scale)
            for r, scale in zip(rounds, scales)),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, tracer, rounds: list[Round]) -> dict[str, float]:
    """Per-layer metrics from the traced rounds, per traced round."""
    from spans import SPAN_NAMES, summarize, top_level_seconds

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    n = len(traced)
    table = summarize(tracer.spans)
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field, value in row.items():
            metrics[f"{name}.{field}"] = value / n
    counts = {name: value / n for name, value in tracer.counts.items()}

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    instrs = counts.get("cpu.trace_instrs", 0)
    iterations = counts.get("accel.iterations", 0)
    hits = counts.get("core.cache.hits", 0)
    misses = counts.get("core.cache.misses", 0)
    metrics.update({
        "cpu.trace_instrs": instrs,
        "cpu.ooo_run.ns_per_instr":
            ratio(metrics["cpu.ooo_run.total_s"], instrs) * 1e9,
        "accel.iterations": iterations,
        "accel.ns_per_iter":
            ratio(metrics["accel.engine_run.total_s"], iterations) * 1e9,
        "accel.batched_run_ratio":
            ratio(counts.get("accel.batched_runs", 0),
                  metrics["accel.engine_run.calls"]),
        "core.cache.hits": hits,
        "core.cache.misses": misses,
        "core.cache.evictions": counts.get("core.cache.evictions", 0),
        "core.cache.hit_ratio": ratio(hits, hits + misses),
        "core.accelerated_ratio":
            ratio(counts.get("core.accelerated", 0),
                  metrics["core.execute.calls"]),
    })
    busy = sum(r.busy_s for r in traced)
    covered = top_level_seconds(tracer.spans, threading.main_thread().ident)
    metrics["harness.self_s"] = (busy - covered) / n
    metrics["harness.span_coverage"] = covered / busy

    def per_op(group: list[Round]) -> float:
        return (sum(r.busy_s * r.scale for r in group)
                / sum(len(r.latencies) for r in group))

    metrics["trace_overhead_frac"] = per_op(traced) / per_op(untraced) - 1.0
    metrics.update(workload.layer_metrics(table, n))
    return metrics


def check_golden(workload, simulated: dict) -> tuple[str, int]:
    """(status, number of mismatched items) against ``golden.json``."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    entry = golden.get(workload.name)
    if entry is None:
        return "no golden recorded", 0
    if not workload.seed_independent and entry["seed"] != workload.seed:
        return f"not checked (golden is for seed {entry['seed']})", 0
    expected = entry["simulated"]
    keys = set(workload.fingerprint_keys(simulated))
    keys |= set(simulated) & set(expected)
    if not workload.partial_golden:
        keys |= set(simulated) | set(expected)
    bad = sorted(key for key in keys
                 if key not in simulated or key not in expected
                 or canonical(simulated[key]) != canonical(expected[key]))
    if bad:
        return f"MISMATCH in {len(bad)} item(s): {', '.join(bad[:5])}", \
            len(bad)
    return f"match ({len(keys)} items)", 0


def fingerprint(workload, simulated: dict) -> str:
    view = {key: simulated.get(key)
            for key in workload.fingerprint_keys(simulated)}
    return hashlib.sha256(canonical(view).encode()).hexdigest()[:16]


def update_golden(workload, simulated: dict) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[workload.name] = {
        "seed": None if workload.seed_independent else workload.seed,
        "simulated": simulated}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import repro
        from spans import Tracer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    imports_s = time.perf_counter() - START
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    host_setup_s = imports_s + statistics.median(setups)

    tracer = Tracer() if args.trace else None
    rounds = measure(workload, args.seconds, tracer)
    workload.finish()
    # The run's median factor: a loop timed just after start-up reads slow.
    setup_scale = statistics.median(r.scale for r in rounds)

    simulated = workload.simulated()
    golden_status, golden_bad = check_golden(workload, simulated)
    failed = workload.failed + golden_bad
    attempted = workload.attempted
    correct = failed == 0 and attempted > 0
    sim_fingerprint = fingerprint(workload, simulated)

    if tracer is None:
        host = end_to_end(rounds, host_setup_s, scaling=False)
        metrics = end_to_end(rounds, host_setup_s * setup_scale)
        wanted = spec["end_to_end"]
    else:
        host = per_layer(workload, tracer, rounds)
        wanted = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump_jsonl(
            OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    units = {metric["name"]: metric["unit"] for metric in wanted}
    unknown = set(host) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
    host = {name: float(host.get(name, 0.0)) for name in units}
    if tracer is not None:
        # Per-layer times come from several rounds: scale them by the
        # traced rounds' mean factor.
        scale = statistics.fmean(r.scale for r in rounds if r.traced)
        metrics = {name: scaled(value, units[name], scale)
                   for name, value in host.items()}
    values = {name: float(metrics[name]) for name in units}

    busy = [r.busy_s * r.scale for r in rounds if not r.traced]
    scales = [r.scale for r in rounds]
    lines = [
        f"workload {workload.name}: seed {workload.seed}, "
        f"{args.seconds:g} s, {len(rounds)} rounds "
        f"({sum(r.traced for r in rounds)} traced), {SETUPS} set-ups",
        f"op: {workload.op}",
        f"setup: imports {imports_s:.3f} s + median of set-ups "
        + ", ".join(f"{s:.3f}" for s in setups) + " (host s)",
        f"times scaled to a {CALIBRATION_REFERENCE_S * 1e3:g} ms "
        f"calibration loop: factor {min(scales):.3f}..{max(scales):.3f} "
        f"over rounds, {setup_scale:.3f} for set-up",
    ]
    for name, value in values.items():
        if value or tracer is None:
            raw = (f" (host {host[name]:.6g})" if value != host[name]
                   else "")
            lines.append(f"{name} = {value:.6g} {units[name]}{raw}")
    error_rate = failed / attempted if attempted else 1.0
    lines.append(f"error_rate = {error_rate:.6g} (failed {failed} of "
                 f"{attempted} attempted)")
    lines += [f"  problem: {problem}" for problem in workload.problems]
    lines.append(f"sim_fingerprint = {sim_fingerprint}")
    lines.append(f"golden: {golden_status}")
    lines += workload.info(busy)
    print("\n".join(lines))

    if args.update_golden:
        if not correct:
            print("error: not updating golden.json from a failed run",
                  file=sys.stderr)
        else:
            update_golden(workload, simulated)
            print(f"golden.json updated for {workload.name}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": workload.name, "seed": workload.seed,
            "trace": int(tracer is not None), "seconds": args.seconds,
            "rounds": [[len(r.latencies), r.busy_s, r.traced, r.scale]
                       for r in rounds],
            "correct": correct,
            "attempted": attempted, "failed": failed,
            "error_rate": error_rate, "sim_fingerprint": sim_fingerprint,
            "golden": golden_status, "metrics": values,
            "host_metrics": host}, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


# -- every workload -----------------------------------------------------------


def git_sha() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"run-{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(record)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if not record.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode} without a record")
    result = json.loads(record.read_text())
    summary = ", ".join(f"{name} {value:.4g}"
                        for name, value in list(result["metrics"].items())[:5])
    print(f"  {workload:<14} seed {seed:<4} trace {trace}  "
          f"{'ok ' if result['correct'] else 'BAD'} "
          f"fp {result['sim_fingerprint']}  {summary}", flush=True)
    return result


def aggregate(runs: list[dict], wanted: list[dict],
              key: str = "metrics") -> dict:
    table = {}
    for metric in wanted:
        values = [run[key][metric["name"]] for run in runs]
        p25, median, p75 = quartiles(values)
        table[metric["name"]] = {"unit": metric["unit"], "median": median,
                                 "p25": p25, "p75": p75, "values": values}
    return table


def run_all(args, spec: dict) -> int:
    names = [workload["name"] for workload in spec["workloads"]]
    seeds = [args.seed + i for i in range(args.repeat)]
    runs = {name: {"untraced": [], "traced": []} for name in names}
    for seed in seeds:
        for name in names:
            runs[name]["untraced"].append(
                run_child(name, seed, args.seconds, 0))
            if args.trace:
                runs[name]["traced"].append(
                    run_child(name, seed, args.seconds, 1))
    record = {"git_sha": git_sha(), "nproc": os.cpu_count(),
              "python": sys.version.split()[0], "seconds": args.seconds,
              "repeat": args.repeat, "seeds": seeds,
              "setups_per_run": SETUPS, "workloads": {}}
    ok = True
    print(f"\n{'workload':<14} {'metric':<16} {'median':>12} {'p25':>12} "
          f"{'p75':>12} {'spread':>7} {'bound':>6}")
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for name in names:
        every = runs[name]["untraced"] + runs[name]["traced"]
        correct = all(run["correct"] for run in every)
        ok &= correct
        entry = {
            "correct": correct,
            "fingerprints": [[run["seed"], run["sim_fingerprint"]]
                             for run in every],
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "end_to_end": aggregate(runs[name]["untraced"],
                                    spec["end_to_end"]),
            "host_end_to_end": aggregate(runs[name]["untraced"],
                                         spec["end_to_end"], "host_metrics"),
        }
        if runs[name]["traced"]:
            entry["per_layer"] = aggregate(runs[name]["traced"],
                                           spec["per_layer"])
        record["workloads"][name] = entry
        for metric, row in entry["end_to_end"].items():
            spread = ((row["p75"] - row["p25"]) / row["median"]
                      if row["median"] else 0.0)
            print(f"{name:<14} {metric:<16} {row['median']:>12.5g} "
                  f"{row['p25']:>12.5g} {row['p75']:>12.5g} "
                  f"{spread:>7.3f} {bounds[metric]:>6}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nrecord written to {args.out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: record layer spans, print per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="every-workload mode: seeds per workload")
    parser.add_argument("--out", help="write the run's JSON record here")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's simulated results as golden")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
