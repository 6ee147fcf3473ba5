"""Tests for the weighted DFG performance model (paper §3.1, Fig. 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DataflowGraph


class TestFigure2Example:
    """The paper's worked example: five instructions, add/sub = 3 cycles,
    mul = 5 cycles, transfer latency = Manhattan distance between the nodes'
    positions.  The snippet completes in 15 cycles with critical path
    {i1, i4, i5}."""

    def build(self) -> DataflowGraph:
        # Figure 2 numbering is 1-based; node weights per the text
        # (add/sub 3 cycles, mul 5 cycles), transfer latencies are Manhattan
        # distances on the figure's placement.
        graph = DataflowGraph()
        graph.add_node(1, 3, (), label="add")          # i1: inputs ready
        graph.add_node(2, 5, (1,), label="mul")        # i2 <- i1, 1 hop
        graph.add_node(3, 5, (1,), label="mul")        # i3 <- i1, diagonal
        graph.add_node(4, 3, (1,), label="sub")        # i4 <- i1, 3 hops
        graph.add_node(5, 5, (4, 2), label="mul")      # i5 <- i4, i2
        graph.set_edge_weight(1, 2, 1)
        graph.set_edge_weight(1, 3, 2)
        graph.set_edge_weight(1, 4, 3)
        graph.set_edge_weight(4, 5, 1)
        graph.set_edge_weight(2, 5, 1)
        return graph

    def test_latency_table(self):
        """L_i1 = 3, L_i2 = 9 (the text's worked value: arrival 4 + 5 cycles
        of multiply), and the snippet completes in 15 cycles."""
        graph = self.build()
        times = graph.completion_times()
        assert times[1] == 3
        assert times[2] == 9, "i2: arrival 3+1=4, plus 5 cycles of multiply"
        assert times[4] == 3 + 3 + 3
        assert graph.total_latency() == 15

    def test_critical_path(self):
        assert self.build().critical_path() == [1, 4, 5]

    def test_latency_table_rendering(self):
        table = self.build().latency_table()
        assert "i1" in table and "15.0" in table and "*" in table


class TestConstruction:
    def test_duplicate_node_rejected(self):
        graph = DataflowGraph()
        graph.add_node(0, 1)
        with pytest.raises(ValueError):
            graph.add_node(0, 1)

    def test_forward_reference_rejected(self):
        graph = DataflowGraph()
        with pytest.raises(ValueError):
            graph.add_node(0, 1, sources=(1,))

    def test_more_than_two_sources_rejected(self):
        graph = DataflowGraph()
        for i in range(3):
            graph.add_node(i, 1)
        with pytest.raises(ValueError):
            graph.add_node(3, 1, sources=(0, 1, 2))

    def test_negative_weights_rejected(self):
        graph = DataflowGraph()
        graph.add_node(0, 1)
        graph.add_node(1, 1, (0,))
        with pytest.raises(ValueError):
            graph.add_node(2, -1)
        with pytest.raises(ValueError):
            graph.set_edge_weight(0, 1, -2)

    def test_unknown_edge_rejected(self):
        graph = DataflowGraph()
        graph.add_node(0, 1)
        graph.add_node(1, 1)
        with pytest.raises(KeyError):
            graph.set_edge_weight(0, 1, 3)

    def test_consumers(self):
        graph = DataflowGraph()
        graph.add_node(0, 1)
        graph.add_node(1, 1, (0,))
        graph.add_node(2, 1, (0,))
        assert graph.consumers(0) == [1, 2]


class TestModel:
    def test_empty_graph(self):
        graph = DataflowGraph()
        assert graph.total_latency() == 0.0
        assert graph.critical_path() == []

    def test_independent_nodes_run_in_parallel(self):
        graph = DataflowGraph()
        graph.add_node(0, 3)
        graph.add_node(1, 7)
        assert graph.total_latency() == 7
        assert graph.critical_path() == [1]

    def test_updating_node_weight_changes_model(self):
        graph = DataflowGraph()
        graph.add_node(0, 2)
        graph.add_node(1, 2, (0,))
        before = graph.total_latency()
        graph.node(0).op_latency = 10  # e.g. measured AMAT replaces estimate
        assert graph.total_latency() == before + 8

    @given(weights=st.lists(st.floats(0, 100), min_size=1, max_size=20))
    def test_chain_latency_is_sum(self, weights):
        graph = DataflowGraph()
        for i, w in enumerate(weights):
            graph.add_node(i, w, (i - 1,) if i else ())
        assert graph.total_latency() == pytest.approx(sum(weights))

    @settings(deadline=None)  # first example pays the networkx import
    @given(n=st.integers(2, 15), seed=st.integers(0, 500))
    def test_total_latency_matches_networkx_longest_path(self, n, seed):
        """Independent cross-check: Eq. 1/2's sequence latency equals the
        longest node+edge-weighted path computed by networkx."""
        import random

        import networkx as nx

        rng = random.Random(seed)
        graph = DataflowGraph()
        nxg = nx.DiGraph()
        graph.add_node(0, rng.randint(1, 9))
        nxg.add_node(0, w=graph.node(0).op_latency)
        for i in range(1, n):
            sources = tuple(rng.sample(range(i), rng.randint(0, min(2, i))))
            graph.add_node(i, rng.randint(1, 9), sources)
            nxg.add_node(i, w=graph.node(i).op_latency)
            for src in sources:
                weight = rng.randint(0, 5)
                graph.set_edge_weight(src, i, weight)
                nxg.add_edge(src, i, w=weight)
        # Longest path over node weights + edge weights: splice each node
        # into (in, out) with an internal edge carrying its op latency.
        split = nx.DiGraph()
        for node, data in nxg.nodes(data=True):
            split.add_edge((node, "in"), (node, "out"), weight=data["w"])
        for u, v, data in nxg.edges(data=True):
            split.add_edge((u, "out"), (v, "in"), weight=data["w"])
        longest = nx.dag_longest_path_length(split, weight="weight")
        assert graph.total_latency() == pytest.approx(longest)

    @given(n=st.integers(2, 15), seed=st.integers(0, 1000))
    def test_completion_monotone_in_sources(self, n, seed):
        """Every node completes no earlier than any of its sources."""
        import random

        rng = random.Random(seed)
        graph = DataflowGraph()
        graph.add_node(0, rng.randint(1, 9))
        for i in range(1, n):
            k = rng.randint(0, min(2, i))
            sources = tuple(rng.sample(range(i), k))
            graph.add_node(i, rng.randint(1, 9), sources)
            for src in sources:
                graph.set_edge_weight(src, i, rng.randint(0, 5))
        times = graph.completion_times()
        for node in graph.nodes:
            for src in node.sources:
                assert times[node.node_id] >= times[src]
