"""Tests for the SDFG structure (placement metadata + performance model)."""

import pytest

from repro.accel import AcceleratorConfig, InterconnectKind, build_interconnect
from repro.core import InstructionMapper, build_ldfg, build_program
from repro.isa import assemble


CONFIG = AcceleratorConfig(rows=8, cols=8,
                           interconnect=InterconnectKind.MESH)


def mapped(text: str):
    ldfg = build_ldfg(list(assemble(text).instructions))
    return InstructionMapper(CONFIG).map(ldfg)


LOOP = """
loop:
    lw t1, 0(a0)
    addi t1, t1, 1
    sw t1, 0(a0)
    addi a0, a0, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


class TestCounts:
    def test_pe_and_lsu_counts(self):
        sdfg = mapped(LOOP)
        program = build_program(sdfg)
        assert program.pe_count == 4
        assert program.lsu_count == 2
        assert program.pe_count + program.lsu_count == len(sdfg.positions)

    def test_utilization(self):
        # The sweep's utilization: the program's PEs over the array's.
        program = build_program(mapped(LOOP))
        assert program.pe_count / CONFIG.num_pes == pytest.approx(4 / 64)

    def test_predicted_latency_is_max_completion(self):
        sdfg = mapped(LOOP)
        assert sdfg.predicted_latency == max(
            sdfg.predicted_completion.values())

    def test_position_lookup(self):
        sdfg = mapped(LOOP)
        assert sdfg.positions[0][1] == -1
        assert sdfg.positions[1][1] >= 0


class TestPerformanceModel:
    def test_critical_path_through_memory_chain(self):
        sdfg = mapped(LOOP)
        interconnect = build_interconnect(CONFIG)
        path = sdfg.critical_path(interconnect)
        # lw -> addi -> sw is the heavy chain.
        assert path[-1] == 2
        assert 0 in path and 1 in path

    def test_model_matches_mapper_prediction(self):
        sdfg = mapped(LOOP)
        interconnect = build_interconnect(CONFIG)
        model = sdfg.to_dataflow_graph(interconnect)
        times = model.completion_times()
        for node_id, predicted in sdfg.predicted_completion.items():
            assert times[node_id] == pytest.approx(predicted)


class TestRenderPlacement:
    def test_contains_all_nodes(self):
        sdfg = mapped(LOOP)
        text = sdfg.render_placement()
        for node_id, (row, col) in sdfg.positions.items():
            assert str(node_id) in text

    def test_lsu_entries_bracketed(self):
        text = mapped(LOOP).render_placement()
        assert "[" in text and "]" in text

    def test_row_count(self):
        text = mapped(LOOP).render_placement()
        assert len(text.splitlines()) == CONFIG.rows
