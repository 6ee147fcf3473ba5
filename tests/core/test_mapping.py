"""Tests for the spatial mapping algorithm (paper Algorithm 1, Fig. 4)."""

import pytest

from repro.accel import AcceleratorConfig, InterconnectKind, build_interconnect
from repro.core import (
    CandidateStrategy,
    InstructionMapper,
    MappingError,
    MappingOptions,
    build_ldfg,
)
from repro.isa import OpClass, assemble


def ldfg_of(text: str, **kwargs):
    return build_ldfg(list(assemble(text).instructions), **kwargs)


def mesh_config(rows=8, cols=8, **kwargs) -> AcceleratorConfig:
    kwargs.setdefault("interconnect", InterconnectKind.MESH)
    return AcceleratorConfig(rows=rows, cols=cols, **kwargs)


class TestPlacementInvariants:
    def chain(self, n=6):
        lines = ["addi t0, zero, 1"]
        lines += [f"addi t0, t0, {i}" for i in range(n - 1)]
        return ldfg_of("\n".join(lines))

    def test_all_nodes_placed(self):
        ldfg = self.chain()
        sdfg = InstructionMapper(mesh_config()).map(ldfg)
        assert set(sdfg.positions) == {e.node_id for e in ldfg.entries}

    def test_no_pe_shared(self):
        sdfg = InstructionMapper(mesh_config()).map(self.chain(12))
        pe_coords = [c for c in sdfg.positions.values() if c[1] >= 0]
        assert len(pe_coords) == len(set(pe_coords))

    def test_memory_nodes_in_lsu(self):
        ldfg = ldfg_of(
            """
            lw t0, 0(a0)
            addi t0, t0, 1
            sw t0, 4(a0)
            """
        )
        sdfg = InstructionMapper(mesh_config()).map(ldfg)
        assert sdfg.positions[0][1] == -1
        assert sdfg.positions[2][1] == -1
        assert sdfg.positions[1][1] >= 0
        assert len(sdfg.positions) == 3

    def test_fp_ops_on_fp_pes_only(self):
        config = mesh_config()
        ldfg = ldfg_of(
            """
            fadd.s ft0, fa0, fa1
            fmul.s ft1, ft0, fa0
            addi t0, t0, 1
            """
        )
        sdfg = InstructionMapper(config).map(ldfg)
        for node_id in (0, 1):
            assert config.supports(OpClass.FP_ADD, sdfg.positions[node_id])

    def test_deterministic(self):
        config = mesh_config()
        a = InstructionMapper(config).map(self.chain(10))
        b = InstructionMapper(config).map(self.chain(10))
        assert a.positions == b.positions

    def test_dependent_placed_adjacent_on_mesh(self):
        """With an empty mesh, a single-dependency consumer lands one hop
        from its producer (the latency-minimizing spot)."""
        ldfg = ldfg_of("addi t0, zero, 1\naddi t1, t0, 1")
        sdfg = InstructionMapper(mesh_config()).map(ldfg)
        (r0, c0), (r1, c1) = sdfg.positions[0], sdfg.positions[1]
        assert abs(r0 - r1) + abs(c0 - c1) == 1

    def test_predicted_completion_matches_dfg_model(self):
        config = mesh_config()
        ldfg = self.chain(8)
        mapper = InstructionMapper(config)
        sdfg = mapper.map(ldfg)
        model = sdfg.to_dataflow_graph(build_interconnect(config))
        times = model.completion_times()
        for node_id, predicted in sdfg.predicted_completion.items():
            assert predicted == pytest.approx(times[node_id])


class TestFigure4Examples:
    """Placing i3 (FP multiply, depends only on i1) under the two example
    interconnects, with occupied and integer-only PEs filtered out."""

    def ldfg(self):
        # i1 (int add) -> i2 (int add, dep) ; i3 (fp mul via fcvt chain).
        return ldfg_of(
            """
            add t0, a0, a1
            add t1, t0, a0
            fcvt.s.w ft0, t0
            """
        )

    def test_example1_row_slice_prefers_same_row(self):
        config = AcceleratorConfig(rows=4, cols=8,
                                   interconnect=InterconnectKind.ROW_SLICE)
        sdfg = InstructionMapper(config).map(self.ldfg())
        assert sdfg.positions[2][0] == sdfg.positions[0][0], (
            "in-row transfer is 1 cycle vs 3 across rows; i3 must share "
            "i1's row"
        )

    def test_example2_mesh_minimizes_manhattan(self):
        config = AcceleratorConfig(rows=4, cols=8,
                                   interconnect=InterconnectKind.MESH)
        sdfg = InstructionMapper(config).map(self.ldfg())
        (r1, c1), (r3, c3) = sdfg.positions[0], sdfg.positions[2]
        assert abs(r1 - r3) + abs(c1 - c3) == 1

    def test_f_op_filtering(self):
        """With FP logic only in some slices, i3 must land on one of them
        even when closer integer PEs are free."""
        config = AcceleratorConfig(rows=4, cols=8,
                                   interconnect=InterconnectKind.MESH)
        sdfg = InstructionMapper(config).map(self.ldfg())
        assert config.supports_fp(sdfg.positions[2])

    def test_f_free_filtering(self):
        """Occupied PEs are excluded: i2 cannot stack onto i1."""
        config = AcceleratorConfig(rows=4, cols=8,
                                   interconnect=InterconnectKind.MESH)
        sdfg = InstructionMapper(config).map(self.ldfg())
        assert sdfg.positions[0] != sdfg.positions[1]


class TestCandidateStrategies:
    def big_ldfg(self, n=24):
        lines = ["addi t0, zero, 1"]
        lines += [f"addi t{1 + i % 5}, t{i % 5}, 1" for i in range(n - 1)]
        return ldfg_of("\n".join(lines))

    @pytest.mark.parametrize("strategy", list(CandidateStrategy))
    def test_all_strategies_produce_valid_mappings(self, strategy):
        options = MappingOptions(strategy=strategy)
        sdfg = InstructionMapper(mesh_config(), options=options).map(
            self.big_ldfg())
        coords = [c for c in sdfg.positions.values()]
        assert len(coords) == len(set(coords))

    def test_window_size_matters(self):
        tiny = MappingOptions(window=(1, 1))
        sdfg = InstructionMapper(mesh_config(), options=tiny).map(
            self.big_ldfg(16))
        # A 1x1 window forces constant fallbacks but must still map.
        assert len(sdfg.positions) == 16

    def test_stats_collected(self):
        mapper = InstructionMapper(mesh_config())
        mapper.map(self.big_ldfg(16))
        stats = mapper.stats
        assert len(stats.per_instruction_candidates) + stats.memory_placed \
            == 16
        assert mapper.stats.candidates_evaluated > 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            MappingOptions(window=(0, 4))


class TestStructuralHazards:
    def test_out_of_pes_raises(self):
        config = mesh_config(rows=2, cols=2)
        ldfg = TestCandidateStrategies().big_ldfg(10)
        with pytest.raises(MappingError, match="no free PE"):
            InstructionMapper(config).map(ldfg)

    def test_out_of_lsu_entries_raises(self):
        config = mesh_config(rows=4, cols=4, lsu_entries=2)
        ldfg = ldfg_of("\n".join(f"lw t0, {4 * i}(a0)" for i in range(4)))
        with pytest.raises(MappingError, match="load/store entries"):
            InstructionMapper(config).map(ldfg)

    def test_no_fp_support_raises(self):
        # A 2x8 grid has FP logic in 12 PEs; the 13th FP op finds no free
        # FP PE although integer-only PEs are free.
        config = mesh_config(rows=2, cols=8)
        ldfg = ldfg_of("\n".join(f"fadd.s f{12 + i}, fa0, fa1"
                                  for i in range(13)))
        with pytest.raises(MappingError, match="no free PE supports"):
            InstructionMapper(config).map(ldfg)

    def test_fallbacks_counted(self):
        config = mesh_config(rows=4, cols=4)
        options = MappingOptions(window=(1, 1))
        mapper = InstructionMapper(config, options=options)
        sdfg = mapper.map(TestCandidateStrategies().big_ldfg(12))
        assert mapper.stats.fallbacks > 0
        assert len(sdfg.fallback_nodes) == mapper.stats.fallbacks
