"""Command-line interface: run kernels and regenerate evaluation artifacts.

Examples::

    python -m repro run nn --config M-128 --iterations 512
    python -m repro run nn --repeat 2        # warm config-cache encounter
    python -m repro fig 11 --iterations 256
    python -m repro fig 15
    python -m repro table 1 --config M-64
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .accel import mesa_config
from .core import MesaController
from .harness import (
    Shard,
    ShardRunner,
    fig11_rodinia,
    fig12_opencgra,
    fig13_breakdown,
    fig14_dynaspam,
    fig15_pe_scaling,
    fig16_amortization,
    format_cache_stats,
    table1_area_power,
    table2_config_latency,
)
from .workloads import build_kernel, kernel_names

__all__ = ["main", "build_parser"]

_FIG_DRIVERS = {
    "11": lambda args: fig11_rodinia(iterations=args.iterations,
                                     workers=args.workers,
                                     shard_timeout=args.shard_timeout),
    "12": lambda args: fig12_opencgra(iterations=args.iterations),
    "13": lambda args: fig13_breakdown(iterations=args.iterations),
    "14": lambda args: fig14_dynaspam(iterations=args.iterations),
    "15": lambda args: fig15_pe_scaling(workers=args.workers,
                                        shard_timeout=args.shard_timeout),
    "16": lambda args: fig16_amortization(),
}
#: The figures whose drivers run shards (and so take the shard flags).
_SHARDED_FIGS = ("11", "15")
#: The figures and tables whose drivers take ``--iterations`` (default 256).
_ITERATED = {"fig": ("11", "12", "13", "14"), "table": ("2",)}

_TABLE_DRIVERS = {
    "1": lambda args: table1_area_power(mesa_config(args.config)),
    "2": lambda args: table2_config_latency(iterations=args.iterations),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MESA (ISCA 2023) reproduction: run kernels and "
                    "regenerate the paper's evaluation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one or more kernels through "
                                         "MESA")
    run_cmd.add_argument("kernel", nargs="+", choices=kernel_names())
    run_cmd.add_argument("--config", default="M-128",
                         help="backend: M-64 / M-128 / M-512")
    run_cmd.add_argument("--iterations", type=int, default=256)
    run_cmd.add_argument("--serial", action="store_true",
                         help="ignore the kernel's parallel annotation")
    run_cmd.add_argument("--repeat", type=int, default=1,
                         help="execute the kernel N times on one controller "
                              "(re-encounters hit the configuration cache)")
    run_cmd.add_argument("--profile", action="store_true",
                         help="profile the simulator itself: print host wall "
                              "time and the cProfile hot spots of each "
                              "pipeline phase (translate / map / execute)")
    run_cmd.add_argument("--profile-top", type=int, default=10,
                         metavar="N",
                         help="rows of cProfile output per phase (default 10)")
    _add_shard_flags(run_cmd)

    fig_cmd = sub.add_parser("fig", help="regenerate one figure")
    fig_cmd.add_argument("number", choices=sorted(_FIG_DRIVERS))
    fig_cmd.add_argument("--iterations", type=int)
    _add_shard_flags(fig_cmd)

    table_cmd = sub.add_parser("table", help="regenerate one table")
    table_cmd.add_argument("number", choices=sorted(_TABLE_DRIVERS))
    table_cmd.add_argument("--config", default="M-128")
    table_cmd.add_argument("--iterations", type=int)

    serve_cmd = sub.add_parser(
        "serve", help="run the long-lived offload service (shared "
                      "configuration cache across requests)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8537)
    serve_cmd.add_argument("--queue", type=int, default=64, metavar="N",
                           help="admission control: max requests waiting "
                                "in the job queue (default 64)")
    serve_cmd.add_argument("--per-client", type=int, default=8, metavar="N",
                           help="admission control: max in-flight requests "
                                "per client id (default 8)")
    serve_cmd.add_argument("--workers", type=int, default=2, metavar="N",
                           help="supervised worker processes running "
                                "the simulations; 0 runs them in the "
                                "server's own process (default 2)")
    serve_cmd.add_argument("--request-timeout", type=float, default=None,
                           metavar="S",
                           help="default end-to-end deadline per request "
                                "in seconds (queue wait + execute; "
                                "default: none)")
    serve_cmd.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="persist the configuration cache to this "
                                "snapshot file (warm-restored at boot, "
                                "flushed at shutdown)")
    serve_cmd.add_argument("--checkpoint-interval", type=float, default=0.0,
                           metavar="S",
                           help="also flush the snapshot every S seconds "
                                "(0: only at shutdown)")
    serve_cmd.add_argument("--cache-capacity", type=int, default=64,
                           metavar="N",
                           help="shared configuration-cache entries per "
                                "chip (default 64)")
    serve_cmd.add_argument("--cache-policy", choices=["fifo", "lru"],
                           default="lru",
                           help="shared-cache eviction policy (default lru)")
    serve_cmd.add_argument("--metrics-interval", type=float, default=0.0,
                           metavar="S",
                           help="print interval service stats every S "
                                "seconds (0: only on shutdown)")
    serve_cmd.add_argument("--self-test", action="store_true",
                           help="start an in-process service, replay a "
                                "small Zipfian request mix, assert the "
                                "shared cache amortized, and exit")
    serve_cmd.add_argument("--chaos", action="store_true",
                           help="with --self-test: inject deterministic "
                                "worker crashes and hangs (multi-process "
                                "backend) and assert every request still "
                                "reaches a terminal status")
    serve_cmd.add_argument("--seed", type=int, default=7,
                           help="request-mix / fault-plan seed for "
                                "--self-test (default 7)")
    serve_cmd.add_argument("--requests", type=int, default=48,
                           help="request count for --self-test (default 48)")
    serve_cmd.add_argument("--iterations", type=int, default=64,
                           help="loop iterations per --self-test request")

    sub.add_parser("list", help="list the available kernels")
    return parser


def _add_shard_flags(cmd) -> None:
    cmd.add_argument("--workers", type=int, default=1, metavar="N",
                     help="run shards on N persistent worker processes "
                          "(default 1: serial in-process; any N > 1 pools, "
                          "even for a single kernel — byte-identical "
                          "output either way)")
    cmd.add_argument("--shard-timeout", type=float, default=None,
                     metavar="S",
                     help="wall-clock seconds per shard, measured from the "
                          "moment it starts executing on a worker; on "
                          "expiry only that worker is killed and the shard "
                          "degrades to a failed row (workers > 1 only)")


def _run_kernel_worker(payload: tuple) -> dict:
    """One kernel's summary row for multi-kernel runs (picklable)."""
    name, config_name, iterations, serial = payload
    kernel = build_kernel(name, iterations=iterations)
    controller = MesaController(mesa_config(config_name))
    parallel = False if serial else kernel.parallelizable
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=parallel)
    verified = ""
    if result.accelerated and kernel.verify is not None:
        verified = ("ok" if kernel.verify(result.final_state)
                    else "WRONG RESULT")
    return {
        "kernel": name,
        "accelerated": result.accelerated,
        "cycles": result.total_cycles,
        "speedup": result.speedup_vs_single_core,
        "reason": result.reason,
        "verified": verified,
    }


def _cmd_run_many(args) -> str:
    """Run several kernels as shards (``repro run nn kmeans --workers 2``)."""
    from .harness.report import degraded_footer, render_table

    shards = [Shard(key=(name,),
                    payload=(name, args.config, args.iterations, args.serial))
              for name in args.kernel]
    runner = ShardRunner(workers=args.workers,
                         shard_timeout=args.shard_timeout)
    rows = []
    degraded = []
    for outcome in runner.map(_run_kernel_worker, shards):
        if outcome.failed:
            degraded.append(f"{outcome.key[0]}: {outcome.error}")
            rows.append([outcome.key[0], "—", "—", "—", "shard failed"])
            continue
        row = outcome.value
        rows.append([row["kernel"],
                     "yes" if row["accelerated"] else "no",
                     f"{row['cycles']:.0f}",
                     f"{row['speedup']:.2f}x",
                     row["verified"] or row["reason"]])
    text = render_table(
        ["kernel", "accelerated", "cycles", "speedup", "notes"], rows,
        title=f"repro run: {args.config}, {args.iterations} iterations, "
              f"workers={args.workers}")
    return text + degraded_footer(degraded)


def _cmd_run(args) -> str:
    kernel = build_kernel(args.kernel[0], iterations=args.iterations)
    controller = MesaController(mesa_config(args.config))
    controller.profile_phases = args.profile
    parallel = False if args.serial else kernel.parallelizable
    repeats = max(1, args.repeat)
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=parallel)
    controller.profile_phases = False  # profile the first execute only
    reruns = [controller.execute(kernel.program, kernel.state_factory,
                                 parallelizable=parallel)
              for _ in range(repeats - 1)]
    lines = [
        f"kernel:      {kernel.name} ({kernel.description})",
        f"backend:     {args.config}, {args.iterations} iterations",
        f"accelerated: {result.accelerated} ({result.reason})",
        f"cycles:      {result.total_cycles:.0f} "
        f"(single-core baseline {result.cpu_only.cycles})",
        f"speedup:     {result.speedup_vs_single_core:.2f}x",
    ]
    if result.accelerated:
        lines += [
            f"plan:        {result.loop_plan.reason}",
            f"config:      {result.config_cost.total} cycles, "
            f"{result.bitstream_words} bitstream words",
            f"offloads:    {result.offload_count} "
            f"({result.accel_iterations} fabric iterations)",
            f"drive:       {result.drive_path}"
            + (f" ({result.drive_reason})" if result.drive_reason else ""),
        ]
        if kernel.verify is not None:
            correct = kernel.verify(result.final_state)
            lines.append(f"verified:    {'ok' if correct else 'WRONG RESULT'}")
    for index, rerun in enumerate(reruns, start=2):
        if rerun.config_cache_hit:
            tag = "cache hit"
        elif rerun.cache_stats.lookups:
            tag = "cache miss"
        else:
            tag = "no cacheable region"
        config_cycles = (rerun.config_cost.total
                         if rerun.config_cost is not None else 0)
        lines.append(
            f"run {index}:       {tag}, config {config_cycles} cycles, "
            f"{rerun.total_cycles:.0f} total cycles")
    cache_stats = sum((run.cache_stats for run in reruns),
                      result.cache_stats)
    lines.append(f"cache:       {format_cache_stats(cache_stats)}")
    if args.profile:
        lines.append("")
        lines.append(_render_profile(controller, result, args.profile_top))
    return "\n".join(lines)


def _render_profile(controller: MesaController, result,
                    top: int) -> str:
    """Host-side profile of the first execute: wall seconds per phase,
    then the cProfile hot spots of each phase."""
    import io
    import pstats

    lines = ["simulator profile (host time, not modeled cycles):"]
    total = sum(result.phase_seconds.values()) or 1.0
    for phase, seconds in sorted(result.phase_seconds.items(),
                                 key=lambda item: -item[1]):
        lines.append(f"  {phase:<10} {seconds * 1e3:9.2f} ms "
                     f"({100.0 * seconds / total:5.1f}%)")
    for phase, profiler in controller.phase_profiles.items():
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
        body = [line for line in stream.getvalue().splitlines()
                if line.strip()][1:]  # drop the "N function calls" banner
        lines.append("")
        lines.append(f"-- {phase}: top {top} by cumulative time " + "-" * 20)
        lines.extend(body)
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    """``repro serve``: the offload service (or its CI self-tests)."""
    if args.self_test:
        if args.chaos:
            from .service import run_chaos_test

            ok, report = run_chaos_test(requests=args.requests,
                                        iterations=args.iterations,
                                        workers=args.workers,
                                        seed=args.seed)
        else:
            from .service import run_self_test

            ok, report = run_self_test(requests=args.requests,
                                       iterations=args.iterations,
                                       workers=args.workers,
                                       seed=args.seed)
        print(report)
        return 0 if ok else 1
    return _serve_forever(args)


def _serve_forever(args) -> int:
    import asyncio
    import signal

    from .harness import format_service_stats
    from .service import ControllerPool, MesaService, serve

    async def main_loop() -> None:
        pool = ControllerPool(cache_capacity=args.cache_capacity,
                              cache_policy=args.cache_policy)
        service = MesaService(pool=pool, max_queue=args.queue,
                              max_per_client=args.per_client,
                              workers=args.workers,
                              request_timeout_s=args.request_timeout,
                              checkpoint_path=args.checkpoint,
                              checkpoint_interval_s=args.checkpoint_interval)
        await service.start()
        server = await serve(service, args.host, args.port)
        address = server.sockets[0].getsockname()
        print(f"repro serve: listening on {address[0]}:{address[1]} "
              f"(queue={args.queue}, per-client={args.per_client}, "
              f"workers={args.workers}, "
              f"cache={args.cache_capacity} {args.cache_policy}"
              + (f", checkpoint={args.checkpoint}" if args.checkpoint
                 else "") + ")")

        # Graceful shutdown: SIGTERM/SIGINT stop admission, drain the
        # queue, flush the final checkpoint, then report final stats.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        registered = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                registered.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal support
        previous = service.stats()
        try:
            while not stop.is_set():
                interval = args.metrics_interval or 3600.0
                try:
                    await asyncio.wait_for(stop.wait(), timeout=interval)
                except asyncio.TimeoutError:
                    pass
                if args.metrics_interval and not stop.is_set():
                    current = service.stats()
                    print(f"-- interval ({args.metrics_interval:.0f}s) --")
                    print(format_service_stats(current - previous))
                    previous = current
            print("repro serve: shutdown requested; draining queue")
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)
            # Stop accepting connections first so no new work arrives
            # while in-flight jobs finish; close() rejects new submits,
            # drains admitted jobs, and flushes the final checkpoint.
            server.close()
            await server.wait_closed()
            await service.close()
            print("-- final --")
            print(format_service_stats(service.stats()))

    try:
        asyncio.run(main_loop())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_list() -> str:
    rows = []
    for name in kernel_names():
        kernel = build_kernel(name, iterations=8)
        tag = "parallel" if kernel.parallelizable else "serial"
        rows.append(f"  {name:<14} [{kernel.category}/{tag}] "
                    f"{kernel.description}")
    return "available Rodinia kernels:\n" + "\n".join(rows)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        # workers > 1 always takes the pooled path — even for one kernel —
        # so --shard-timeout enforcement and process isolation never
        # silently disappear.
        pooled = len(args.kernel) > 1 or args.workers > 1
        if pooled and (args.profile or args.repeat > 1):
            parser.error("--profile/--repeat apply to a single kernel "
                         "run in-process (--workers 1)")
        if pooled:
            print(_cmd_run_many(args))
        else:
            print(_cmd_run(args))
    elif args.command in ("fig", "table"):
        if args.command == "fig" and args.number not in _SHARDED_FIGS and (
                args.workers > 1 or args.shard_timeout is not None):
            parser.error("--workers/--shard-timeout apply to the sharded "
                         f"figures ({', '.join(_SHARDED_FIGS)})")
        iterated = _ITERATED[args.command]
        if args.iterations is None:
            args.iterations = 256
        elif args.number not in iterated:
            parser.error(f"--iterations applies to {args.command} "
                         f"{', '.join(iterated)}")
        drivers = _FIG_DRIVERS if args.command == "fig" else _TABLE_DRIVERS
        print(drivers[args.number](args).render())
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "list":
        print(_cmd_list())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
