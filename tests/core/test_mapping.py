"""Tests for the spatial mapping algorithm (paper Algorithm 1, Fig. 4)."""

import dataclasses
import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import (
    M_64,
    M_128,
    M_512,
    AcceleratorConfig,
    InterconnectKind,
    OperandKind,
    build_interconnect,
)
from repro.core import (
    CandidateStrategy,
    InstructionMapper,
    LdfgError,
    MappingError,
    MappingOptions,
    apply_memory_optimizations,
    build_ldfg,
)
from repro.isa import OpClass, assemble
from repro.workloads import (
    GeneratorParams,
    build_kernel,
    generate_kernel,
    kernel_names,
)

from ..accel.test_grid import summed_area_counts

FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))


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


# -- the full-grid mapper, kept as the reference of the window-local one -------

def clip(value, low, high):
    return max(low, min(high, value))


def reference_candidate_mask(strategy, grid, op_class, anchor, other,
                             window) -> np.ndarray:
    """``C_i ⊙ C_free ⊙ C_op`` as a full-grid mask."""
    available = grid.free & grid.op_mask(op_class)
    rows, cols = grid.shape
    if strategy is CandidateStrategy.FULL_GRID:
        return available.copy()
    region = np.zeros((rows, cols), dtype=bool)
    if strategy is CandidateStrategy.FIXED_WINDOW:
        win_rows, win_cols = window
        anchor_row, anchor_col = anchor if anchor is not None else (0, 0)
        r0 = clip(anchor_row - win_rows // 2, 0, max(0, rows - win_rows))
        c0 = clip(anchor_col - win_cols // 2, 0, max(0, cols - win_cols))
        region[r0:r0 + win_rows, c0:c0 + win_cols] = True
    else:
        first = anchor if anchor is not None else (0, 0)
        second = other if other is not None else first
        r0, r1 = sorted((clip(first[0], 0, rows - 1),
                         clip(second[0], 0, rows - 1)))
        c0, c1 = sorted((clip(first[1], 0, cols - 1),
                         clip(second[1], 0, cols - 1)))
        region[r0:r1 + 1, c0:c1 + 1] = True
    return region & available


def reference_best_position(mapper, entry, mask, grid, positions,
                            completion):
    """arg min of l(C) over a full-grid mask, the free neighbourhood of
    every PE recounted with a summed-area table."""
    cand_r, cand_c = np.nonzero(mask)
    if cand_r.size == 0:
        return None
    mapper.stats.candidates_evaluated += int(cand_r.size)
    arrival = np.zeros(cand_r.size, dtype=np.float64)
    for ref in (entry.s1, entry.s2):
        if ref.kind is OperandKind.NODE and ref.node_id in positions:
            transfer = mapper.interconnect.latency_matrix(
                positions[ref.node_id])[cand_r, cand_c]
            np.maximum(arrival, completion.get(ref.node_id, 0.0) + transfer,
                       out=arrival)
    latency = entry.op_latency + arrival
    free = summed_area_counts(grid.free)[cand_r, cand_c]
    best = np.lexsort((cand_c, cand_r, -free, latency))[0]
    return (int(cand_r[best]), int(cand_c[best]))


class ReferenceMapper(InstructionMapper):
    """Algorithm 1 evaluated over full-grid masks."""

    def _place_compute(self, entry, grid, positions, completion,
                       last_placed):
        anchor, other = self._anchors(entry, positions, completion,
                                      last_placed)
        mask = reference_candidate_mask(self.options.strategy, grid,
                                        entry.op_class, anchor, other,
                                        self.options.window)
        self.stats.per_instruction_candidates.append(int(mask.sum()))
        coord = reference_best_position(self, entry, mask, grid, positions,
                                        completion)
        fell_back = False
        if coord is None:
            full = grid.free & grid.op_mask(entry.op_class)
            coord = reference_best_position(self, entry, full, grid,
                                            positions, completion)
            fell_back = coord is not None
            if fell_back:
                self.stats.fallbacks += 1
        if coord is None:
            raise MappingError(f"no free PE supports {entry.op_class.value} "
                               f"for node {entry.node_id}")
        grid.occupy(coord, entry.node_id)
        return coord, fell_back


def loop_bodies(program) -> list[list]:
    """Every static loop of a program, back-edge target to back edge."""
    instructions = program.instructions
    return [list(instructions[(instr.address + instr.imm
                               - program.base_address) >> 2:index + 1])
            for index, instr in enumerate(instructions)
            if instr.is_branch and instr.imm < 0]


@functools.cache
def kernel_bodies() -> list[list]:
    return [body for name in kernel_names()
            for body in loop_bodies(build_kernel(name).program)]


def assert_maps_like_reference(body, config, options) -> None:
    """Both mappers, on the body's LDFG with and without memopt, place every
    node at the same PE with the same statistics (or fail alike)."""
    for memopt in (False, True):
        outcomes = []
        for cls in (InstructionMapper, ReferenceMapper):
            try:
                ldfg = build_ldfg(body)
            except LdfgError:
                return
            if memopt:
                apply_memory_optimizations(ldfg)
            mapper = cls(config, options=options)
            try:
                sdfg = mapper.map(ldfg)
            except MappingError:
                outcomes.append(("failed", mapper.stats))
                continue
            outcomes.append((sdfg.positions, sdfg.fallback_nodes,
                             sdfg.predicted_completion, mapper.stats))
        assert outcomes[0] == outcomes[1], (
            f"{config.name} {options} memopt={memopt}: {body}")


def windows(config) -> list[tuple[int, int]]:
    """The paper's 4x8, a 1x1 that forces fallbacks, and one larger than
    the grid."""
    return [(4, 8), (1, 1), (config.rows + 3, config.cols + 5)]


class TestWindowLocalMatchesReference:
    """The window-local mapper picks what the full-grid mapper picked."""

    @pytest.mark.parametrize("kind", list(InterconnectKind),
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("strategy", list(CandidateStrategy),
                             ids=lambda s: s.value)
    def test_every_kernel_loop(self, strategy, kind):
        for base in (M_64, M_128, M_512):
            config = dataclasses.replace(base, interconnect=kind)
            for window in windows(config):
                options = MappingOptions(strategy=strategy, window=window)
                for body in kernel_bodies():
                    assert_maps_like_reference(body, config, options)

    @settings(max_examples=12 * FUZZ_SCALE, deadline=None)
    @given(seed=st.integers(0, 10_000), loads=st.integers(1, 8),
           ops=st.integers(1, 24), stores=st.integers(1, 4),
           fp_fraction=st.sampled_from((0.0, 0.5, 1.0)),
           strategy=st.sampled_from(list(CandidateStrategy)),
           kind=st.sampled_from(list(InterconnectKind)),
           base=st.sampled_from((M_64, M_128, M_512)),
           window_index=st.integers(0, 2))
    def test_generated_loops(self, seed, loads, ops, stores, fp_fraction,
                             strategy, kind, base, window_index):
        kernel = generate_kernel(GeneratorParams(
            loads=loads, compute_ops=ops, stores=stores,
            fp_fraction=fp_fraction, iterations=16, seed=seed))
        config = dataclasses.replace(base, interconnect=kind)
        options = MappingOptions(strategy=strategy,
                                 window=windows(config)[window_index])
        for body in loop_bodies(kernel.program):
            assert_maps_like_reference(body, config, options)

    def test_exhausted_grid_fails_alike(self):
        config = mesh_config(rows=2, cols=2)
        body = list(assemble("\n".join(
            ["addi t0, zero, 1"]
            + [f"addi t{1 + i % 5}, t{i % 5}, 1" for i in range(9)]
        )).instructions)
        for strategy in CandidateStrategy:
            assert_maps_like_reference(body, config,
                                       MappingOptions(strategy=strategy))
