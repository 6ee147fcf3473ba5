"""Tests for config-cache persistence: snapshot round trips, tolerant
restore of damaged snapshots, and warm-hit equivalence after a restart."""

import asyncio
import json
import logging
import os

import pytest

from repro.accel import mesa_config
from repro.core import MesaController, RegionKey
from repro.service import (
    SNAPSHOT_VERSION,
    ControllerPool,
    MesaService,
    OffloadRequest,
    RegionStore,
    corrupt_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.workloads import GeneratorParams, build_kernel, generate_kernel


def configured_controller(iterations=64):
    """A controller that has accelerated ``nn`` once (cache populated)."""
    kernel = build_kernel("nn", iterations=iterations)
    controller = MesaController(mesa_config("M-128"))
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=kernel.parallelizable)
    assert result.accelerated and not result.config_cache_hit
    return controller, kernel


class TestRegionStore:
    def test_deduplicates_by_key(self):
        record = {"config": "M-128", "start": 0, "end": 4, "digest": "d",
                  "cost": [1, 2, 3, 0], "bitstream": [1, 2]}
        store = RegionStore(capacity=4)
        assert store.add_many([record]) == 1
        assert store.add_many([record, dict(record)]) == 0
        assert len(store) == 1
        other = dict(record, digest="e")
        assert store.add_many([other]) == 1
        assert len(store) == 2

    def test_re_reported_key_moves_to_the_end(self):
        first, second = ({"config": "M-128", "start": 0, "end": 4,
                          "digest": digest} for digest in "ab")
        store = RegionStore(capacity=4)
        store.add_many([first, second])
        assert store.add_many([dict(first)]) == 0
        assert [r["digest"] for r in store.records()] == ["b", "a"]

    def test_touched_key_survives_the_cap(self):
        a, b, c = ({"config": "M-128", "start": 0, "end": 4,
                    "digest": digest} for digest in "abc")
        store = RegionStore(capacity=2)
        store.add_many([a, b])
        store.touch([RegionKey("M-128", 0, 4, "a"),
                     RegionKey("M-128", 0, 4, "unknown"),
                     RegionKey("M-64", 0, 4, "a")])
        store.add_many([c])
        assert [r["digest"] for r in store.records()] == ["a", "c"]

    def test_capped_per_chip_oldest_first(self):
        store = RegionStore(capacity=2)
        store.add_many([{"config": config, "start": 0, "end": 4,
                         "digest": str(index)}
                        for index in range(4)
                        for config in ("M-64", "M-128")])
        assert [(r["config"], r["digest"]) for r in store.records()] == [
            ("M-64", "2"), ("M-64", "3"), ("M-128", "2"), ("M-128", "3")]


class TestSnapshotFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.json")
        records = [{"config": "M-128", "start": 0, "end": 4, "digest": "d",
                    "cost": [1, 2, 3, 0], "bitstream": [7, 8, 9]}]
        assert save_snapshot(path, records) == 1
        loaded, reason = load_snapshot(path)
        assert reason == ""
        assert loaded == records

    def test_missing_file(self, tmp_path):
        loaded, reason = load_snapshot(str(tmp_path / "absent.json"))
        assert loaded is None and "no snapshot" in reason

    @pytest.mark.parametrize("mode", ["garbage", "truncate", "magic",
                                      "version"])
    def test_damaged_snapshots_never_raise(self, tmp_path, mode):
        path = str(tmp_path / "snap.json")
        save_snapshot(path, [{"config": "M-128", "start": 0, "end": 4,
                              "cost": [1, 2, 3, 0], "bitstream": [7]}])
        corrupt_snapshot(path, mode)
        loaded, reason = load_snapshot(path)
        assert loaded is None
        assert reason  # every failure mode is explained

    def test_junk_records_dropped_individually(self, tmp_path):
        path = str(tmp_path / "snap.json")
        good = {"config": "M-128", "start": 0, "end": 4,
                "cost": [1, 2, 3, 0], "bitstream": [7]}
        save_snapshot(path, [good])
        corrupt_snapshot(path, "records")
        loaded, reason = load_snapshot(path)
        assert loaded == [] and reason == ""

    def test_record_without_digest_dropped_and_counted(self, tmp_path,
                                                       caplog):
        """A record the codec cannot restore is dropped at load, with a
        logged count, instead of surviving until restore skips it."""
        path = str(tmp_path / "snap.json")
        good = {"config": "M-128", "start": 0, "end": 4, "digest": "d",
                "cost": [1, 2, 3, 0], "bitstream": [7]}
        undigested = {name: value for name, value in good.items()
                      if name != "digest"}
        save_snapshot(path, [good, undigested])
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            loaded, reason = load_snapshot(path)
        assert loaded == [good] and reason == ""
        assert "dropped 1 malformed record(s)" in caplog.text

    @pytest.mark.parametrize("field, value", [
        ("digest", ["x"]), ("config", 128), ("start", "0"), ("end", 4.0)])
    def test_record_with_unusable_key_dropped_and_counted(
            self, tmp_path, caplog, field, value):
        path = str(tmp_path / "snap.json")
        good = {"config": "M-128", "start": 0, "end": 4, "digest": "d",
                "cost": [1, 2, 3, 0], "bitstream": [7]}
        save_snapshot(path, [good, {**good, field: value}])
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            loaded, reason = load_snapshot(path)
        assert loaded == [good] and reason == ""
        assert "dropped 1 malformed record(s)" in caplog.text

    def test_older_version_still_reads(self, tmp_path):
        path = str(tmp_path / "snap.json")
        save_snapshot(path, [])
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["version"] == SNAPSHOT_VERSION
        # A version-0 snapshot (hypothetical past schema) is not refused
        # outright — only *future* versions are.
        payload["version"] = 0
        with open(path, "w") as handle:
            json.dump(payload, handle)
        loaded, reason = load_snapshot(path)
        assert loaded == [] and reason == ""


class TestControllerRoundTrip:
    def test_restored_warm_hit_is_cycle_identical(self):
        controller, kernel = configured_controller()
        live_warm = controller.execute(kernel.program, kernel.state_factory,
                                       parallelizable=kernel.parallelizable)
        assert live_warm.config_cache_hit
        records = controller.config_cache.export_regions()
        assert records

        fresh = MesaController(mesa_config("M-128"))
        assert fresh.config_cache.restore_regions(
            records, fresh.config) == len(records)
        restored = fresh.execute(kernel.program, kernel.state_factory,
                                 parallelizable=kernel.parallelizable)
        assert restored.config_cache_hit
        assert restored.total_cycles == live_warm.total_cycles
        stats = restored.cache_stats
        assert stats.hits == 1 and stats.misses == 0

    def test_restore_skips_foreign_config_and_junk(self):
        controller, _ = configured_controller()
        records = controller.config_cache.export_regions()
        other = MesaController(mesa_config("M-64"))
        # config mismatch
        assert other.config_cache.restore_regions(records, other.config) == 0
        fresh = MesaController(mesa_config("M-128"))
        mangled = [dict(records[0], bitstream=[999999999, -3])]
        # decode fails
        assert fresh.config_cache.restore_regions(mangled, fresh.config) == 0


class TestServiceCheckpointRoundTrip:
    def test_restart_preserves_warm_hits(self, tmp_path):
        snap = str(tmp_path / "cache.snapshot.json")

        async def scenario():
            first = MesaService(workers=1, checkpoint_path=snap)
            await first.start()
            cold = await first.offload(
                OffloadRequest.for_kernel("nn", iterations=64))
            live_warm = await first.offload(
                OffloadRequest.for_kernel("nn", iterations=64))
            await first.close()
            assert cold.ok and cold.accelerated and not cold.cache_hit
            assert live_warm.ok and live_warm.cache_hit
            assert first.stats().checkpoints_saved >= 1

            second = MesaService(workers=1, checkpoint_path=snap)
            await second.start()
            warm = await second.offload(
                OffloadRequest.for_kernel("nn", iterations=64))
            stats = second.stats()
            await second.close()
            assert warm.ok and warm.cache_hit
            # A restored warm hit is cycle-identical to a live warm hit.
            assert warm.total_cycles == live_warm.total_cycles
            assert stats.regions_restored >= 1
            # The restored entry serves the request as a pure warm hit —
            # no miss, no re-translation, just like before the restart.
            assert stats.cache.hits == 1 and stats.cache.misses == 0

        asyncio.run(scenario())

    def test_snapshot_keeps_the_most_recent_regions(self, tmp_path):
        snap = str(tmp_path / "cache.snapshot.json")
        kernels = [generate_kernel(GeneratorParams(iterations=64, seed=seed))
                   for seed in range(40)]

        async def scenario():
            service = MesaService(
                pool=ControllerPool(cache_capacity=16), workers=1,
                checkpoint_path=snap)
            await service.start()
            for kernel in kernels:
                response = await service.offload(OffloadRequest(
                    program=kernel.program,
                    state_factory=kernel.state_factory))
                assert response.ok and not response.cache_hit
            await service.close()

        asyncio.run(scenario())
        direct = MesaController(mesa_config("M-128"), None,
                                ControllerPool(cache_capacity=16).options)
        for kernel in kernels:
            direct.execute(kernel.program, kernel.state_factory)
        records, reason = load_snapshot(snap)
        assert reason == "" and len(records) == 16
        assert records == direct.config_cache.export_regions()

    @pytest.mark.parametrize("workers", [0, 1])
    def test_snapshot_keeps_a_hit_region_over_older_inserts(self, tmp_path,
                                                            workers):
        snap = str(tmp_path / "cache.snapshot.json")
        a, b, c = (generate_kernel(GeneratorParams(iterations=64, seed=seed))
                   for seed in range(3))

        async def scenario():
            service = MesaService(
                pool=ControllerPool(cache_capacity=2), workers=workers,
                checkpoint_path=snap)
            await service.start()
            hits = []
            for kernel in (a, b, a, c):
                response = await service.offload(OffloadRequest(
                    program=kernel.program,
                    state_factory=kernel.state_factory))
                assert response.ok
                hits.append(response.cache_hit)
            await service.close()
            assert hits == [False, False, True, False]

        asyncio.run(scenario())
        direct = MesaController(mesa_config("M-128"), None,
                                ControllerPool(cache_capacity=2).options)
        for kernel in (a, b, a, c):
            direct.execute(kernel.program, kernel.state_factory)
        records, reason = load_snapshot(snap)
        assert reason == "" and len(records) == 2
        # A was hit after B was inserted, so C evicts B, not A.
        assert records == direct.config_cache.export_regions()

    def test_unhashable_key_record_does_not_stop_boot(self, tmp_path):
        # A record whose digest is a list would make the region store's
        # key unhashable; the service must boot with the good records.
        snap = str(tmp_path / "cache.snapshot.json")
        controller, _ = configured_controller()
        good = controller.config_cache.export_regions()
        save_snapshot(snap, [*good, {**good[0], "digest": ["x"]}])

        async def scenario():
            service = MesaService(workers=0, checkpoint_path=snap)
            await service.start()
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(scenario())
        assert good and stats.regions_restored == len(good)
        loaded, reason = load_snapshot(snap)
        assert loaded == good and reason == ""

    def test_corrupt_snapshot_boots_cold(self, tmp_path):
        snap = str(tmp_path / "cache.snapshot.json")
        save_snapshot(snap, [])
        corrupt_snapshot(snap, "garbage")

        async def scenario():
            service = MesaService(workers=1, checkpoint_path=snap)
            await service.start()  # must not raise
            stats = service.stats()
            await service.close()
            assert stats.regions_restored == 0

        asyncio.run(scenario())
        # The shutdown flush replaced the corrupt file with a valid one.
        loaded, reason = load_snapshot(snap)
        assert loaded == [] and reason == ""

    def test_corrupt_snapshot_warns_once(self, tmp_path, caplog):
        snap = str(tmp_path / "cache.snapshot.json")
        save_snapshot(snap, [])
        corrupt_snapshot(snap, "garbage")

        async def scenario():
            service = MesaService(workers=0, checkpoint_path=snap)
            await service.start()
            await service.close()

        with caplog.at_level(logging.WARNING):
            asyncio.run(scenario())
        warnings = [record for record in caplog.records
                    if record.levelno == logging.WARNING]
        assert len(warnings) == 1, [r.getMessage() for r in warnings]
        assert "unreadable snapshot" in warnings[0].getMessage()

    def test_interval_checkpoints_flush(self, tmp_path):
        snap = str(tmp_path / "cache.snapshot.json")

        async def scenario():
            service = MesaService(workers=1, checkpoint_path=snap,
                                  checkpoint_interval_s=0.05)
            await service.start()
            await asyncio.sleep(0.2)
            saved = service.stats().checkpoints_saved
            await service.close()
            assert saved >= 1
            assert os.path.exists(snap)

        asyncio.run(scenario())
