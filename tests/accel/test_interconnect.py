"""Tests for the interconnect latency models."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.accel import (
    AcceleratorConfig,
    InterconnectKind,
    MeshInterconnect,
    MeshNocInterconnect,
    RowSliceInterconnect,
    build_interconnect,
)

CFG = AcceleratorConfig(rows=16, cols=8)

_coord = st.tuples(st.integers(0, 15), st.integers(0, 7))


class TestMesh:
    def setup_method(self):
        self.net = MeshInterconnect(CFG)

    def test_neighbor_is_one_cycle(self):
        assert self.net.latency((0, 0), (0, 1)) == 1
        assert self.net.latency((0, 0), (1, 0)) == 1

    def test_diagonal_is_two_cycles(self):
        """Fig. 2: 'two cycles along the diagonal'."""
        assert self.net.latency((0, 0), (1, 1)) == 2

    def test_same_pe_is_zero(self):
        assert self.net.latency((3, 3), (3, 3)) == 0

    def test_manhattan(self):
        assert self.net.latency((2, 1), (5, 7)) == 3 + 6

    @given(a=_coord, b=_coord)
    def test_symmetry(self, a, b):
        assert self.net.latency(a, b) == self.net.latency(b, a)

    @given(a=_coord, b=_coord, c=_coord)
    def test_triangle_inequality(self, a, b, c):
        assert (self.net.latency(a, c)
                <= self.net.latency(a, b) + self.net.latency(b, c))


class TestRowSlice:
    def setup_method(self):
        self.net = RowSliceInterconnect(CFG)

    def test_same_row_single_cycle(self):
        """Fig. 4 example 1: 1 cycle within a row regardless of distance."""
        assert self.net.latency((2, 0), (2, 7)) == 1
        assert self.net.latency((2, 3), (2, 4)) == 1

    def test_cross_row_fixed_cost(self):
        assert self.net.latency((0, 0), (1, 0)) == 3
        assert self.net.latency((0, 0), (15, 7)) == 3

    def test_same_pe_zero(self):
        assert self.net.latency((5, 5), (5, 5)) == 0


class TestMeshNoc:
    def setup_method(self):
        self.net = MeshNocInterconnect(CFG)

    def test_short_distance_uses_local_links(self):
        assert self.net.latency((0, 0), (0, 1)) == 1
        assert self.net.latency((0, 0), (1, 1)) == 2

    def test_long_distance_uses_noc(self):
        far = self.net.latency((0, 0), (15, 7))
        manhattan = 15 + 7
        assert far < manhattan, "the NoC must beat neighbor-hopping far away"

    def test_never_worse_than_mesh(self):
        mesh = MeshInterconnect(CFG)
        for a in [(0, 0), (3, 2), (8, 5)]:
            for b in [(15, 7), (0, 7), (12, 0)]:
                assert self.net.latency(a, b) <= mesh.latency(a, b)

    def test_lsu_column_reachable(self):
        assert self.net.latency((0, -1), (0, 0)) == 1
        assert self.net.latency((10, -1), (0, 7)) > 1

    @given(a=_coord, b=_coord)
    def test_symmetry(self, a, b):
        assert self.net.latency(a, b) == self.net.latency(b, a)

    @given(a=_coord, b=_coord)
    def test_positive_between_distinct(self, a, b):
        if a != b:
            assert self.net.latency(a, b) >= 1


class TestBuildInterconnect:
    @pytest.mark.parametrize("kind,cls", [
        (InterconnectKind.MESH, MeshInterconnect),
        (InterconnectKind.ROW_SLICE, RowSliceInterconnect),
        (InterconnectKind.MESH_NOC, MeshNocInterconnect),
    ])
    def test_factory(self, kind, cls):
        net = build_interconnect(replace(CFG, interconnect=kind))
        assert isinstance(net, cls)


class TestSharedLatencyMatrices:
    """Latency matrices are cached once per (topology, config)."""

    @pytest.mark.parametrize("kind", list(InterconnectKind))
    def test_equal_configs_share_one_array(self, kind):
        config = replace(CFG, interconnect=kind)
        first = build_interconnect(config)
        second = build_interconnect(replace(CFG, interconnect=kind))
        assert first is not second
        for src in ((0, 0), (7, 3), (5, -1)):
            assert (second.latency_matrix(src)
                    is first.latency_matrix(src))

    def test_different_config_does_not_share(self):
        first = build_interconnect(CFG)
        other = build_interconnect(replace(CFG, rows=8))
        assert other.latency_matrix((2, 3)) is not first.latency_matrix((2, 3))
        assert other.latency_matrix((2, 3)).shape == (8, 8)

    def test_different_topology_does_not_share(self):
        """Two topologies built on one config keep their own matrices."""
        mesh = MeshInterconnect(CFG)
        noc = MeshNocInterconnect(CFG)
        row = RowSliceInterconnect(CFG)
        matrices = [net.latency_matrix((3, 6)) for net in (mesh, noc, row)]
        assert len({id(m) for m in matrices}) == 3
        assert matrices[0][15, 0] == mesh.latency((3, 6), (15, 0))
        assert matrices[1][15, 0] == noc.latency((3, 6), (15, 0))
        assert matrices[2][15, 0] == row.latency((3, 6), (15, 0))

    @pytest.mark.parametrize("kind", list(InterconnectKind))
    def test_cached_arrays_raise_on_write(self, kind):
        config = replace(CFG, interconnect=kind)
        build_interconnect(config).latency_matrix((1, 1))
        shared = build_interconnect(config).latency_matrix((1, 1))
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 7
