"""Tests for the OpenCGRA-style modulo scheduler baseline."""

import pytest

from repro.accel import AcceleratorConfig
from repro.baselines import OpenCgraScheduler, ScheduleError
from repro.baselines.opencgra import MAX_II
from repro.core import build_ldfg
from repro.isa import assemble

#: A small CGRA: 4x4 PEs sharing two memory ports.
CGRA = AcceleratorConfig(rows=4, cols=4, memory_ports=2)


def ldfg_of(text: str):
    return build_ldfg(list(assemble(text).instructions))


SMALL_LOOP = """
loop:
    lw t1, 0(a0)
    addi t1, t1, 1
    sw t1, 0(a0)
    addi a0, a0, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


class TestScheduling:
    def test_small_loop_schedules(self):
        schedule = OpenCgraScheduler(CGRA).schedule(ldfg_of(SMALL_LOOP))
        assert schedule.ii >= 1
        assert schedule.nodes == 6
        assert len(schedule.slots) == 6

    def test_dependences_respected(self):
        ldfg = ldfg_of(SMALL_LOOP)
        scheduler = OpenCgraScheduler(CGRA)
        schedule = scheduler.schedule(ldfg)
        # addi t1 (node 1) depends on lw (node 0).
        _, t_load = schedule.slots[0]
        _, t_add = schedule.slots[1]
        assert t_add > t_load

    def test_modulo_resource_constraint(self):
        """No resource is used twice in the same modulo slot."""
        schedule = OpenCgraScheduler(CGRA).schedule(ldfg_of(SMALL_LOOP))
        seen = set()
        for resource, time in schedule.slots.values():
            key = (resource, time % schedule.ii)
            assert key not in seen
            seen.add(key)

    def test_res_mii_bound(self):
        """II can never beat the resource bound."""
        config = AcceleratorConfig(rows=1, cols=2, memory_ports=1)
        ldfg = ldfg_of(SMALL_LOOP)
        schedule = OpenCgraScheduler(config).schedule(ldfg)
        # 2 memory ops on 1 port -> II >= 2; 4 compute on 2 PEs -> II >= 2.
        assert schedule.ii >= 2

    def test_rec_mii_bound(self):
        """An accumulation chain bounds II by its cycle latency."""
        ldfg = ldfg_of(
            """
            loop:
                fadd.s ft0, ft0, ft1
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        schedule = OpenCgraScheduler(CGRA).schedule(ldfg)
        assert schedule.ii >= 3, "fp add latency is 3 cycles"

    def test_ipc_definition(self):
        schedule = OpenCgraScheduler(CGRA).schedule(ldfg_of(SMALL_LOOP))
        assert schedule.ipc == pytest.approx(6 / schedule.ii)

    def test_tiny_cgra_gives_large_ii(self):
        small = OpenCgraScheduler(AcceleratorConfig(rows=1, cols=1)).schedule(
            ldfg_of(SMALL_LOOP))
        large = OpenCgraScheduler(AcceleratorConfig(rows=8, cols=8)).schedule(
            ldfg_of(SMALL_LOOP))
        assert small.ii >= large.ii

    def test_unschedulable_raises(self):
        # More compute operations than one PE has slots below MAX_II.
        config = AcceleratorConfig(rows=1, cols=1, memory_ports=1)
        big = "\n".join(["loop:"]
                        + [f"addi t{1 + i % 5}, t{i % 5}, 1"
                           for i in range(MAX_II)]
                        + ["bne t1, zero, loop"])
        with pytest.raises(ScheduleError):
            OpenCgraScheduler(config).schedule(ldfg_of(big))

    def test_empty_kernel_raises(self):
        from repro.core import Ldfg

        empty = Ldfg(entries=[], loop_branch_id=None,
                     rename_table={}, live_in=set())
        with pytest.raises(ScheduleError, match="empty"):
            OpenCgraScheduler(CGRA).schedule(empty)
