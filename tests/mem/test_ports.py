"""Tests for memory-port arbitration."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.mem import MemoryPorts


class TestArbitration:
    def test_single_port_serializes(self):
        ports = MemoryPorts(num_ports=1)
        assert ports.request(0) == 0
        assert ports.request(0) == 1
        assert ports.request(0) == 2

    def test_two_ports_pair_up(self):
        ports = MemoryPorts(num_ports=2)
        grants = [ports.request(0) for _ in range(4)]
        assert grants == [0, 0, 1, 1]

    def test_no_contention_when_spread_out(self):
        ports = MemoryPorts(num_ports=1)
        assert ports.request(0) == 0
        assert ports.request(5) == 5

    def test_ideal_never_waits(self):
        ports = MemoryPorts(math.inf)
        grants = [ports.request(7) for _ in range(100)]
        assert all(g == 7 for g in grants)

    def test_average_wait_accounts_queueing(self):
        ports = MemoryPorts(num_ports=1)
        grants = [ports.request(0) for _ in range(3)]  # waits 0, 1, 2
        assert sum(grants) == 3

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            MemoryPorts(num_ports=0)


class TestProperties:
    @given(cycles=st.lists(st.integers(0, 100), min_size=1, max_size=50).map(sorted),
           num_ports=st.integers(1, 4))
    def test_grant_never_before_request(self, cycles, num_ports):
        ports = MemoryPorts(num_ports=num_ports)
        for cycle in cycles:
            assert ports.request(cycle) >= cycle

    @given(n=st.integers(1, 60), num_ports=st.integers(1, 8))
    def test_throughput_bound(self, n, num_ports):
        """n same-cycle requests on p ports finish by ceil(n/p) - 1."""
        ports = MemoryPorts(num_ports=num_ports)
        last_grant = max(ports.request(0) for _ in range(n))
        assert last_grant == (n - 1) // num_ports

    @given(cycles=st.lists(st.integers(0, 50), min_size=2, max_size=40).map(sorted))
    def test_more_ports_never_slower(self, cycles):
        few = MemoryPorts(num_ports=1)
        many = MemoryPorts(num_ports=4)
        for cycle in cycles:
            assert many.request(cycle) <= few.request(cycle)
