"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "nn"])
        assert args.kernel == ["nn"]
        assert args.config == "M-128"
        assert args.iterations == 256
        assert args.workers == 1
        assert args.shard_timeout is None

    def test_run_accepts_multiple_kernels(self):
        args = build_parser().parse_args(
            ["run", "nn", "kmeans", "--workers", "2", "--shard-timeout", "60"])
        assert args.kernel == ["nn", "kmeans"]
        assert args.workers == 2
        assert args.shard_timeout == 60.0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quicksort"])

    def test_fig_choices(self):
        args = build_parser().parse_args(["fig", "16"])
        assert args.number == "16"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8537
        assert args.queue == 64
        assert args.per_client == 8
        assert args.workers == 2
        assert args.cache_capacity == 64
        assert args.cache_policy == "lru"
        assert args.metrics_interval == 0.0
        assert not args.self_test

    def test_serve_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--cache-policy", "mru"])


class TestCommands:
    def test_run_kernel(self, capsys):
        assert main(["run", "nn", "--iterations", "96"]) == 0
        out = capsys.readouterr().out
        assert "accelerated: True" in out
        assert "speedup" in out
        assert "verified:    ok" in out

    def test_run_reports_cache_counters(self, capsys):
        assert main(["run", "nn", "--iterations", "96"]) == 0
        out = capsys.readouterr().out
        assert "cache:       hits=0 misses=1" in out

    def test_run_repeat_hits_cache(self, capsys):
        assert main(["run", "nn", "--iterations", "96", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "run 2:       cache hit" in out
        assert "hits=1 misses=1" in out
        assert "50.0% hit rate" in out

    def test_run_profile_reports_every_phase(self, capsys):
        # 64 iterations: the smallest power of two at which nn clears C3
        # and offloads, so every cold-path phase runs.
        assert main(["run", "nn", "--iterations", "64", "--profile",
                     "--profile-top", "3"]) == 0
        out = capsys.readouterr().out
        table, _, sections = out.partition(
            "simulator profile (host time, not modeled cycles):\n")
        assert "accelerated: True" in table
        phases = ("trace", "cpu-model", "detect", "translate", "map",
                  "configure", "execute")
        rows = [line.split()[0] for line in sections.splitlines()
                if line.startswith("  ") and line.rstrip().endswith("%)")]
        assert sorted(rows) == sorted(phases)
        for phase in phases:
            assert sections.count(f"-- {phase}: top 3 by cumulative") == 1

    def test_run_profile_covers_first_execute_only(self, capsys):
        # With --repeat, the phase table and the cProfile sections both
        # describe the first execute: the trace runs once in it.
        assert main(["run", "nn", "--iterations", "64", "--repeat", "3",
                     "--profile", "--profile-top", "40"]) == 0
        out = capsys.readouterr().out
        trace = out.split("-- trace: top 40 by cumulative")[1]
        trace = trace.split("\n-- ")[0]
        calls = [line.split()[0] for line in trace.splitlines()
                 if line.rstrip().endswith("(collect_trace)")]
        assert calls == ["1"]

    def test_run_disqualifying_kernel(self, capsys):
        assert main(["run", "srad", "--iterations", "96"]) == 0
        out = capsys.readouterr().out
        assert "accelerated: False" in out

    def test_run_many_kernels_renders_table(self, capsys):
        assert main(["run", "nn", "srad", "--iterations", "96"]) == 0
        out = capsys.readouterr().out
        assert "workers=1" in out
        assert "nn" in out and "srad" in out
        assert "yes" in out and "no" in out

    def test_run_many_rejects_profile_and_repeat(self):
        with pytest.raises(SystemExit):
            main(["run", "nn", "srad", "--profile"])
        with pytest.raises(SystemExit):
            main(["run", "nn", "srad", "--repeat", "2"])

    def test_run_single_kernel_with_workers_uses_pool(self, capsys):
        # Regression: one kernel with workers > 1 must take the pooled
        # path so --shard-timeout enforcement and process isolation hold.
        assert main(["run", "nn", "--workers", "2", "--shard-timeout",
                     "300", "--iterations", "96"]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "nn" in out and "yes" in out

    def test_run_single_kernel_workers_rejects_profile_and_repeat(self):
        with pytest.raises(SystemExit):
            main(["run", "nn", "--workers", "2", "--profile"])
        with pytest.raises(SystemExit):
            main(["run", "nn", "--workers", "2", "--repeat", "2"])

    def test_run_many_reports_degraded_shards(self, capsys, monkeypatch):
        def worker(payload):
            name = payload[0]
            if name == "srad":
                raise RuntimeError("injected failure")
            return {"kernel": name, "accelerated": True, "cycles": 1.0,
                    "speedup": 1.0, "reason": "", "verified": "ok"}

        monkeypatch.setattr(cli, "_run_kernel_worker", worker)
        assert main(["run", "nn", "srad", "--iterations", "96"]) == 0
        out = capsys.readouterr().out
        assert "degraded shards (1):" in out
        assert "  srad: RuntimeError: injected failure" in out

    @pytest.mark.parametrize("number", ["12", "13", "14", "16"])
    @pytest.mark.parametrize("flags", [["--workers", "2"],
                                       ["--shard-timeout", "60"]])
    def test_unsharded_fig_rejects_shard_flags(self, number, flags, capsys):
        with pytest.raises(SystemExit):
            main(["fig", number, *flags])
        assert "--workers/--shard-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fig", "15"], ["fig", "16"],
                                         ["table", "1"]])
    def test_driver_without_iterations_rejects_the_flag(self, command,
                                                         capsys):
        with pytest.raises(SystemExit):
            main([*command, "--iterations", "7"])
        assert "--iterations applies to" in capsys.readouterr().err

    @pytest.mark.parametrize("command, driver", [
        (["fig", "12"], "fig12_opencgra"),
        (["table", "2"], "table2_config_latency")])
    @pytest.mark.parametrize("flags, iterations", [([], 256),
                                                   (["--iterations", "7"], 7)])
    def test_iterated_driver_gets_the_flag_or_256(self, command, driver,
                                                  flags, iterations,
                                                  monkeypatch):
        seen = []

        class Rendered:
            def render(self):
                return ""

        def fake(**kwargs):
            seen.append(kwargs["iterations"])
            return Rendered()

        monkeypatch.setattr(cli, driver, fake)
        assert main([*command, *flags]) == 0
        assert seen == [iterations]

    def test_run_serial_flag(self, capsys):
        assert main(["run", "nn", "--iterations", "96", "--serial"]) == 0
        out = capsys.readouterr().out
        assert "tile" not in out.split("plan:")[1].split("\n")[0] \
            or "no tiling" in out

    def test_table_1(self, capsys):
        assert main(["table", "1", "--config", "M-64"]) == 0
        out = capsys.readouterr().out
        assert "MESA Top" in out
        assert "M-64" in out

    def test_fig_16(self, capsys):
        assert main(["fig", "16"]) == 0
        out = capsys.readouterr().out
        assert "break-even" in out

    def test_serve_self_test(self, capsys):
        assert main(["serve", "--self-test", "--requests", "10",
                     "--iterations", "64"]) == 0
        out = capsys.readouterr().out
        assert "service self-test:" in out
        assert "[ok]" in out and "FAIL" not in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("nn", "srad", "hotspot"):
            assert name in out
