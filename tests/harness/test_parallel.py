"""Tests for the process-parallel shard runner."""

import os
import tempfile
import time
from functools import partial

import pytest

from repro.harness import Shard, ShardOutcome, ShardRunner
from repro.harness.parallel import RETRIES, PoolBroken, WorkerPool


# -- worker functions (module-level: picklable into pool processes) -----------

def _square(payload):
    return payload * payload

def _slow_square(payload):
    value, delay = payload
    time.sleep(delay)
    return value * value

def _crash_once(payload):
    """Hard-kill the worker process on the first attempt, succeed after.

    The marker file records that the first attempt happened; the retry (a
    fresh or surviving worker, same filesystem) sees it and completes.
    """
    value, marker = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        os._exit(1)  # bypasses exception handling: a dead worker process
    return value * value

def _fail_once(payload):
    """Raise (cleanly) on the first attempt, succeed on the retry."""
    value, marker = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("failed")
        raise RuntimeError("transient failure")
    return value * value

def _always_raises(payload):
    raise ValueError(f"bad shard {payload}")

def _always_crashes(payload):
    os._exit(1)

def _behave(payload):
    """Scriptable worker: payload[0] selects the behaviour."""
    mode = payload[0]
    if mode == "square":
        return payload[1] ** 2
    if mode == "sleep":
        _, value, delay = payload
        time.sleep(delay)
        return value * value
    if mode == "crash":
        os._exit(1)
    if mode == "pid":
        return os.getpid()
    if mode == "pid-crash-once":
        _, marker = payload
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("crashed")
            os._exit(1)
        return os.getpid()
    if mode == "count-sleep":
        # Record this invocation as a file, then sleep: lets the test
        # assert exactly how many times a shard actually executed.
        _, value, delay, directory = payload
        handle, _path = tempfile.mkstemp(prefix=f"ran-{value}-",
                                         dir=directory)
        os.close(handle)
        time.sleep(delay)
        return value * value
    raise AssertionError(f"unknown mode {mode!r}")


_BOOT_TOKEN = None

def _set_boot_token(value):
    """Warm-boot initializer: plant per-process state for _read_boot_token."""
    global _BOOT_TOKEN
    _BOOT_TOKEN = value

def _read_boot_token(payload):
    return _BOOT_TOKEN

def _boot_crash():
    raise RuntimeError("initializer is broken")


def _shards(payloads):
    return [Shard(key=(i,), payload=p) for i, p in enumerate(payloads)]


def _executions(directory, value):
    """How many times the count-sleep shard for ``value`` actually ran."""
    return len([name for name in os.listdir(directory)
                if name.startswith(f"ran-{value}-")])


class TestShardRunnerSerial:
    def test_inline_map_preserves_order(self):
        outcomes = ShardRunner(workers=1).map(_square, _shards([3, 1, 2]))
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert all(not o.failed and o.attempts == 1 for o in outcomes)

    def test_inline_exception_degrades_after_retries(self):
        outcomes = ShardRunner(workers=1).map(
            _always_raises, _shards(["x"]))
        assert outcomes[0].failed
        assert outcomes[0].attempts == 1 + RETRIES == 2, "one retry consumed"
        assert "ValueError" in outcomes[0].error
        assert "bad shard x" in outcomes[0].error

    def test_inline_retry_recovers(self, tmp_path):
        marker = str(tmp_path / "failed")
        outcomes = ShardRunner(workers=1).map(
            _fail_once, _shards([(5, marker)]))
        assert not outcomes[0].failed
        assert outcomes[0].value == 25
        assert outcomes[0].attempts == 2

    def test_empty_shards(self):
        assert ShardRunner(workers=1).map(_square, []) == []
        assert ShardRunner(workers=2).map(_square, []) == []

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            ShardRunner(workers=0)

    def test_outcome_failed_property(self):
        assert ShardOutcome(key=(0,), error="boom").failed
        assert not ShardOutcome(key=(0,), value=1).failed


class TestShardRunnerPooled:
    def test_parallel_matches_serial_order(self):
        shards = _shards(list(range(8)))
        serial = ShardRunner(workers=1).map(_square, shards)
        pooled = ShardRunner(workers=2).map(_square, shards)
        assert [o.key for o in pooled] == [o.key for o in serial]
        assert [o.value for o in pooled] == [o.value for o in serial]

    def test_merge_order_is_submission_not_completion(self):
        # The first shard is the slowest; completion order is reversed
        # relative to submission order, but the merge is not.
        shards = _shards([(4, 0.4), (3, 0.05), (2, 0.0)])
        outcomes = ShardRunner(workers=3).map(_slow_square, shards)
        assert [o.value for o in outcomes] == [16, 9, 4]

    def test_timeout_degrades_shard(self):
        shards = _shards([(1, 0.0), (2, 30.0), (3, 0.0)])
        outcomes = ShardRunner(workers=2, shard_timeout=0.5).map(
            _slow_square, shards)
        assert outcomes[0].value == 1
        assert outcomes[1].failed
        assert "timed out" in outcomes[1].error
        assert outcomes[1].attempts == 2, "the retry timed out too"
        assert outcomes[2].value == 9, \
            "shards after the timeout still complete"

    def test_crash_retried_once_then_succeeds(self, tmp_path):
        marker = str(tmp_path / "crashed")
        satisfied = str(tmp_path / "pre-existing")
        with open(satisfied, "w") as handle:
            handle.write("ok")
        shards = [Shard(key=(0,), payload=(6, marker)),
                  Shard(key=(1,), payload=(3, satisfied))]
        outcomes = ShardRunner(workers=2).map(_crash_once, shards)
        assert not outcomes[0].failed
        assert outcomes[0].value == 36
        assert outcomes[0].attempts == 2, "recovered on the bounded retry"
        assert outcomes[1].value == 9

    def test_crash_exhausting_retries_degrades(self):
        outcomes = ShardRunner(workers=2).map(
            _always_crashes, _shards([7, 8]))
        assert all(o.failed for o in outcomes)
        assert all("crashed" in o.error for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)

    def test_worker_exception_keeps_pool_alive(self):
        outcomes = ShardRunner(workers=2).map(
            _always_raises, _shards(["a", "b", "c"]))
        assert all(o.failed for o in outcomes)
        assert [o.key for o in outcomes] == [(0,), (1,), (2,)]


class TestSingleShardPooled:
    """Regression: ``workers > 1`` must pool even for a single shard, or a
    wedged shard silently loses timeout enforcement and hangs forever."""

    def test_single_wedged_shard_times_out(self):
        start = time.monotonic()
        outcomes = ShardRunner(workers=2, shard_timeout=0.5).map(
            _slow_square, [Shard(key=(0,), payload=(9, 60.0))])
        elapsed = time.monotonic() - start
        assert len(outcomes) == 1
        assert outcomes[0].failed
        assert "timed out after 0.5s" in outcomes[0].error
        assert elapsed < 20.0, "the wedged shard must not hang the caller"

    def test_single_healthy_shard_pools_and_succeeds(self):
        outcomes = ShardRunner(workers=2, shard_timeout=30.0).map(
            _square, [Shard(key=(0,), payload=7)])
        assert outcomes[0].value == 49
        assert outcomes[0].attempts == 1


class TestCrashBlame:
    """Regression: a crashing worker must degrade *its own* shard only —
    never an innocent shard that happens to sort earlier in harvest
    order (the old pool's ``BrokenProcessPool`` fanned out to every
    pending future)."""

    def test_late_crasher_never_blames_earlier_healthy_shard(self):
        shards = [Shard(key=(0,), payload=("sleep", 5, 0.8)),
                  Shard(key=(1,), payload=("crash",))]
        outcomes = ShardRunner(workers=2).map(_behave, shards)
        assert not outcomes[0].failed, \
            "the healthy shard must survive the sibling's crash"
        assert outcomes[0].value == 25
        assert outcomes[0].attempts == 1, \
            "the healthy shard is neither re-charged nor re-run"
        assert outcomes[1].failed
        assert "crashed" in outcomes[1].error
        assert outcomes[1].attempts == 2, "the crasher pays both attempts"

    def test_crasher_retry_leaves_siblings_untouched(self, tmp_path):
        marker = str(tmp_path / "crashed")
        shards = [Shard(key=(0,), payload=("sleep", 4, 0.5)),
                  Shard(key=(1,), payload=("pid-crash-once", marker)),
                  Shard(key=(2,), payload=("sleep", 6, 0.1))]
        outcomes = ShardRunner(workers=2).map(_behave, shards)
        assert outcomes[0].value == 16 and outcomes[0].attempts == 1
        assert not outcomes[1].failed and outcomes[1].attempts == 2
        assert outcomes[2].value == 36 and outcomes[2].attempts == 1


class TestWarmPool:
    def test_pool_survives_crash_rounds(self, tmp_path):
        """A crash replaces one worker; the rest of the pool keeps its
        processes (and their warm state) across the retry round."""
        marker = str(tmp_path / "crashed")
        shards = [Shard(key=(0,), payload=("pid",)),
                  Shard(key=(1,), payload=("pid-crash-once", marker)),
                  Shard(key=(2,), payload=("pid",)),
                  Shard(key=(3,), payload=("pid",)),
                  Shard(key=(4,), payload=("pid",)),
                  Shard(key=(5,), payload=("pid",))]
        outcomes = ShardRunner(workers=2).map(_behave, shards)
        assert all(not o.failed for o in outcomes)
        pids = {o.value for o in outcomes}
        # 2 original workers + at most 1 replacement for the crashed one;
        # the old one-pool-per-round design burned a fresh set every round.
        assert len(pids) <= 3
        assert outcomes[1].attempts == 2, "the crasher paid its attempt"
        assert all(outcomes[i].attempts == 1 for i in (0, 2, 3, 4, 5)), \
            "pool repair never charges attempts to healthy shards"

    def test_workers_reused_across_shards(self):
        outcomes = ShardRunner(workers=2).map(
            _behave, [Shard(key=(i,), payload=("pid",)) for i in range(8)])
        pids = {o.value for o in outcomes}
        assert len(pids) <= 2, "8 shards served by 2 persistent workers"

    def test_initializer_warms_every_worker(self):
        pool = WorkerPool(2, _read_boot_token,
                          initializer=partial(_set_boot_token, "pool-warm"))
        pool.start()
        try:
            values = [pool.execute(i, affinity=i) for i in range(4)]
        finally:
            pool.close()
        assert values == ["pool-warm"] * 4

    def test_crashing_initializer_raises_not_hangs(self):
        pool = WorkerPool(2, _square, initializer=_boot_crash)
        with pytest.raises(PoolBroken, match="failed to boot"):
            pool.start()


class TestDeadlineWatchdog:
    def test_queued_shard_gets_full_budget(self):
        """Deadlines anchor at shard *start*: a shard queued behind slow
        siblings must not be charged its wait in line."""
        shards = _shards([(2, 0.7), (3, 0.7), (4, 0.7)])
        outcomes = ShardRunner(workers=2, shard_timeout=1.0).map(
            _slow_square, shards)
        assert [o.value for o in outcomes] == [4, 9, 16], \
            "the third shard starts ~0.7s in and still gets its full 1.0s"
        assert all(o.attempts == 1 for o in outcomes), \
            "no shard needed its retry"

    def test_deadline_kills_only_the_wedged_worker(self, tmp_path):
        """On timeout the pool is repaired, not rebuilt: shards on other
        workers keep running and are executed exactly once."""
        directory = str(tmp_path)
        shards = [Shard(key=(0,), payload=("count-sleep", 1, 30.0,
                                           directory)),
                  Shard(key=(1,), payload=("count-sleep", 2, 0.3,
                                           directory)),
                  Shard(key=(2,), payload=("count-sleep", 3, 0.3,
                                           directory)),
                  Shard(key=(3,), payload=("count-sleep", 4, 0.3,
                                           directory))]
        start = time.monotonic()
        outcomes = ShardRunner(workers=2, shard_timeout=1.2).map(
            _behave, shards)
        elapsed = time.monotonic() - start
        assert outcomes[0].failed and "timed out" in outcomes[0].error
        assert outcomes[0].attempts == 2
        assert [o.value for o in outcomes[1:]] == [4, 9, 16]
        for value in (2, 3, 4):
            assert _executions(directory, value) == 1, \
                "healthy shards run once — never re-run after pool repair"
        assert all(o.attempts == 1 for o in outcomes[1:]), \
            "pool repair does not charge attempts"
        assert elapsed < 15.0
