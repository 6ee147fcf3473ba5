"""Tests for the imap state machine (paper Fig. 8)."""

from hypothesis import given, strategies as st

from repro.core import ImapFsm, ImapState


class TestReduceStage:
    def test_reduce_depth_log2(self):
        fsm = ImapFsm()
        assert fsm.reduce_cycles(32) == 5
        assert fsm.reduce_cycles(8) == 3
        assert fsm.reduce_cycles(2) == 1

    def test_degenerate_candidates(self):
        fsm = ImapFsm()
        assert fsm.reduce_cycles(1) == 1
        assert fsm.reduce_cycles(0) == 1


class TestSimulation:
    def test_states_sequential_per_instruction(self):
        run = ImapFsm().simulate([8])
        states = [state for _, state, _, _ in run.schedule]
        assert states == [ImapState.FETCH, ImapState.CANDGEN,
                          ImapState.FILTER, ImapState.LATENCY,
                          ImapState.REDUCE, ImapState.WRITEBACK]

    def test_constant_states_one_cycle(self):
        run = ImapFsm().simulate([8])
        for _, state, _, cycles in run.schedule:
            if state is not ImapState.REDUCE:
                assert cycles == 1
            else:
                assert cycles == 3  # log2(8)

    def test_paper_claim_only_reduce_varies(self):
        """Fig. 8: 'the number of cycles for the reduction stage depends on
        the dimensions of the candidate matrix, all other states are
        constant'."""
        small = ImapFsm().simulate([4])
        large = ImapFsm().simulate([32])
        assert (large.total_cycles - small.total_cycles
                == ImapFsm().reduce_cycles(32) - ImapFsm().reduce_cycles(4))

    def test_fsm_loops_until_all_mapped(self):
        run = ImapFsm().simulate([32, 32, 32])
        assert run.instructions == 3
        assert run.total_cycles == 3 * ImapFsm().simulate([32]).total_cycles

    def test_schedule_contiguous(self):
        run = ImapFsm().simulate([8, 16])
        cycle = 0
        for _, _, start, cycles in run.schedule:
            assert start == cycle
            cycle += cycles
        assert cycle == run.total_cycles

    def test_empty(self):
        run = ImapFsm().simulate([])
        assert run.total_cycles == 0

    @given(counts=st.lists(st.integers(0, 64), min_size=1, max_size=30))
    def test_total_is_sum_of_per_instruction(self, counts):
        run = ImapFsm().simulate(counts)
        assert run.total_cycles == sum(ImapFsm().simulate([c]).total_cycles
                                       for c in counts)


class TestTimingDiagram:
    def test_diagram_renders(self):
        run = ImapFsm().simulate([32, 16])
        diagram = run.timing_diagram()
        assert "imap i0" in diagram and "imap i1" in diagram
        assert "R" in diagram and "W" in diagram
        assert "reduce" in diagram

    def test_diagram_truncates(self):
        run = ImapFsm().simulate([8] * 10)
        diagram = run.timing_diagram(max_instructions=2)
        assert "imap i2" not in diagram

    def test_empty_diagram(self):
        assert "empty" in ImapFsm().simulate([]).timing_diagram()


class TestIntegrationWithConfigCost:
    def test_controller_uses_fsm_timing(self):
        """The configuration cost's mapping component must equal the FSM's
        schedule for the actually observed candidate counts."""
        from repro.accel import M_128
        from repro.core import MesaController
        from repro.workloads import build_kernel

        kernel = build_kernel("hotspot", iterations=128)
        controller = MesaController(M_128)
        result = controller.execute(kernel.program, kernel.state_factory)
        assert result.accelerated
        assert result.config_cost.mapping_cycles > 0
        # Per instruction: >= the 5 constant states + 1 reduce cycle.
        body = result.sdfg.ldfg
        assert result.config_cost.mapping_cycles >= 6 * len(
            [e for e in body.entries
             if not e.instruction.is_memory and not e.eliminated])
