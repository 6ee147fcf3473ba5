"""Tests for chip-level accelerator sharing (MesaSystem)."""

import pytest

from repro.accel import M_128
from repro.core import CacheStats, MesaSystem, SchedulingPolicy, ThreadSpec
from repro.workloads import build_kernel


def thread(name: str, iterations: int = 160) -> ThreadSpec:
    kernel = build_kernel(name, iterations=iterations)
    return ThreadSpec(name=name, program=kernel.program,
                      state_factory=kernel.state_factory,
                      parallelizable=kernel.parallelizable)


class TestSingleThread:
    def test_matches_standalone_controller(self):
        run = MesaSystem(M_128).run([thread("nn")])
        outcome = run.outcomes[0]
        assert outcome.accelerated
        assert outcome.wait_cycles == 0
        assert outcome.finish == pytest.approx(
            outcome.result.total_cycles)

    def test_cpu_only_thread(self):
        run = MesaSystem(M_128).run([thread("srad", iterations=96)])
        outcome = run.outcomes[0]
        assert not outcome.accelerated
        assert outcome.accel_start is None
        assert run.speedup == pytest.approx(1.0)


class TestContention:
    def test_second_thread_waits_for_fabric(self):
        run = MesaSystem(M_128).run([thread("nn"), thread("kmeans")])
        waits = [o.wait_cycles for o in run.outcomes]
        assert sum(1 for w in waits if w > 0) >= 1, (
            "with one fabric, someone must queue")

    def test_fabric_never_double_booked(self):
        run = MesaSystem(M_128).run(
            [thread("nn"), thread("kmeans"), thread("gaussian")])
        intervals = sorted(
            (o.accel_start, o.finish) for o in run.outcomes
            if o.accel_start is not None)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-9, "overlapping fabric reservations"

    def test_makespan_still_beats_cpu_only(self):
        run = MesaSystem(M_128).run(
            [thread("nn"), thread("kmeans"), thread("hotspot")])
        assert run.speedup > 1.0
        assert all(o.accelerated for o in run.outcomes)

    def test_cpu_only_threads_unaffected_by_contention(self):
        run = MesaSystem(M_128).run(
            [thread("nn"), thread("srad", iterations=96)])
        srad = run.outcome("srad")
        assert srad.finish == pytest.approx(float(srad.result.cpu_only.cycles))


class TestPolicies:
    def test_best_speedup_first_ordering(self):
        threads = [thread("bfs"), thread("nn")]
        fifo = MesaSystem(M_128, policy=SchedulingPolicy.FIFO).run(threads)
        best = MesaSystem(
            M_128, policy=SchedulingPolicy.BEST_SPEEDUP_FIRST).run(threads)
        # Under best-first, the higher-speedup thread grabs the fabric
        # first; under FIFO the submission order wins.  Both schedules must
        # be conflict-free and complete all threads.
        assert fifo.makespan > 0 and best.makespan > 0
        assert {o.name for o in best.outcomes} == {"bfs", "nn"}

    def test_outcome_lookup(self):
        run = MesaSystem(M_128).run([thread("nn")])
        assert run.outcome("nn").name == "nn"
        with pytest.raises(KeyError):
            run.outcome("missing")

    def test_empty_thread_set(self):
        run = MesaSystem(M_128).run([])
        assert run.makespan == 0.0
        assert run.speedup == 0.0


class TestSharedControllerCache:
    """One controller per chip: threads share the configuration cache."""

    def test_cross_thread_cache_hit(self):
        run = MesaSystem(M_128).run([thread("nn"), thread("nn")])
        assert run.cache_stats.hits >= 1
        assert run.cache_stats.insertions == 1, (
            "the same binary must be configured exactly once")
        hits = [o.config_cache_hit for o in run.outcomes]
        assert sorted(hits) == [False, True]
        assert all(o.accelerated for o in run.outcomes)

    def test_shared_cache_shortens_warm_thread(self):
        """Against per-thread chips (one fresh system per thread, so every
        thread configures cold), the shared cache shortens the thread that
        hits it and leaves the cold one unchanged.  The makespan is not
        compared: per-thread chips also own a fabric each, so nothing
        queues there."""
        threads = [thread("nn"), thread("nn")]
        shared = MesaSystem(M_128).run(threads)
        alone = [MesaSystem(M_128).run([spec]).outcomes[0]
                 for spec in threads]
        assert not any(o.config_cache_hit for o in alone)
        cold, warm = (o.result for o in shared.outcomes)
        assert cold.total_cycles == alone[0].result.total_cycles
        assert warm.config_cache_hit
        assert warm.total_cycles < alone[1].result.total_cycles, (
            "reusing the configuration must shorten the warm thread")
        assert (sum(o.finish for o in shared.outcomes)
                < sum(o.finish for o in alone))

    def test_cache_stats_sum_the_threads_tallies(self):
        """A run's count is its threads' per-execute tallies summed, a
        thread that hits included."""
        system = MesaSystem(M_128)
        system.run([thread("nn")])
        run = system.run([thread("nn"), thread("kmeans"), thread("nn")])
        tallies = [o.result.cache_stats for o in run.outcomes]
        assert run.cache_stats == sum(tallies, CacheStats())
        assert [tally.hits for tally in tallies] == [1, 0, 1]
        assert run.cache_stats == CacheStats(hits=2, misses=1,
                                             insertions=1)

    def test_controller_persists_across_runs(self):
        system = MesaSystem(M_128)
        first = system.run([thread("nn")])
        assert first.cache_stats.hits == 0
        second = system.run([thread("nn")])
        assert second.cache_stats.hits == 1, (
            "the chip's cache must survive between run() calls")
        assert second.outcomes[0].config_cache_hit

    def test_concurrent_evaluation_deterministic(self):
        threads = [thread("nn"), thread("kmeans"), thread("nn")]
        first = MesaSystem(M_128).run(threads)
        second = MesaSystem(M_128).run(threads)
        assert first.makespan == second.makespan
        assert ([o.finish for o in first.outcomes]
                == [o.finish for o in second.outcomes])
        assert ([o.config_cache_hit for o in first.outcomes]
                == [o.config_cache_hit for o in second.outcomes])

    def test_fifo_is_arrival_order(self):
        """The thread that reaches its offload point first claims the
        fabric first, regardless of submission order."""
        run = MesaSystem(M_128).run([thread("nn"), thread("nn")])
        warm = next(o for o in run.outcomes if o.config_cache_hit)
        cold = next(o for o in run.outcomes if not o.config_cache_hit)
        # The warm thread's shorter warm-up makes it ready earlier.
        assert (warm.result.breakdown.cpu_cycles
                < cold.result.breakdown.cpu_cycles)
        assert warm.accel_start < cold.accel_start
