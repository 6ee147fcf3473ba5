"""Tests for the accelerator's latency and activity counters."""

import pytest

from repro.accel import ActivityCounters, LatencyCounters


class TestLatencyCounters:
    def test_node_average(self):
        counters = LatencyCounters()
        counters.record_node(3, 10.0)
        counters.record_node(3, 20.0)
        assert counters.node_latency(3) == pytest.approx(15.0)

    def test_unseen_node_zero(self):
        assert LatencyCounters().node_latency(9) == 0.0

    def test_edge_average(self):
        counters = LatencyCounters()
        counters.record_edge(0, 1, 2.0)
        counters.record_edge(0, 1, 4.0)
        assert counters.edge_latency(0, 1) == pytest.approx(3.0)
        assert counters.edge_latency(1, 0) == 0.0, "edges are directed"


class TestActivityCounters:
    def test_totals(self):
        counters = ActivityCounters(int_ops=3, fp_ops=2, loads=4, stores=1)
        assert counters.memory_accesses == 5

    def test_merged_sums_everything(self):
        a = ActivityCounters(int_ops=1, fp_ops=2, forwards=3, loads=4,
                             stores=5, lsq_forwards=6, load_replays=7,
                             local_hops=8, noc_hops=9, pe_busy_cycles=10.0,
                             control_events=11)
        b = ActivityCounters(int_ops=1, fp_ops=1, forwards=1, loads=1,
                             stores=1, lsq_forwards=1, load_replays=1,
                             local_hops=1, noc_hops=1, pe_busy_cycles=1.0,
                             control_events=1)
        merged = a.merged(b)
        assert merged.int_ops == 2
        assert merged.fp_ops == 3
        assert merged.forwards == 4
        assert merged.loads == 5
        assert merged.stores == 6
        assert merged.lsq_forwards == 7
        assert merged.load_replays == 8
        assert merged.local_hops == 9
        assert merged.noc_hops == 10
        assert merged.pe_busy_cycles == pytest.approx(11.0)
        assert merged.control_events == 12

    def test_default_zero(self):
        counters = ActivityCounters()
        assert counters.memory_accesses == 0
