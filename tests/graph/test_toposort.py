"""Topological sort and DAG utilities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.toposort import (
    dag_violations,
    is_dag,
    ragged_offsets,
    topological_levels,
    topological_sort,
)


def dag_edges_strategy(max_nodes=12, max_edges=40):
    """Random DAG edges: always i < j, so acyclic by construction."""
    pair = st.tuples(st.integers(0, max_nodes - 1),
                     st.integers(0, max_nodes - 1)).map(
        lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1])
    return st.lists(pair, min_size=0, max_size=max_edges)


class TestTopologicalSort:
    def test_diamond(self, diamond_graph):
        graph = diamond_graph
        order = topological_sort(graph)
        position = {node: i for i, node in enumerate(order)}
        for u, v, _ in graph.edges():
            assert position[u] < position[v]

    def test_cycle_returns_none(self, cyclic_graph):
        assert topological_sort(cyclic_graph) is None

    def test_deterministic_tie_break(self):
        graph = CSRGraph.from_edges([], nodes=[0, 1, 2, 3])
        assert topological_sort(graph) == [0, 1, 2, 3]

    def test_empty(self):
        graph = CSRGraph.from_edges([], nodes=[])
        assert topological_sort(graph) == []

    @settings(max_examples=40, deadline=None)
    @given(dag_edges_strategy())
    def test_random_dags_sortable_and_valid(self, edges):
        graph = CSRGraph.from_edges(edges, nodes=range(12))
        order = topological_sort(graph)
        assert order is not None
        assert sorted(order) == list(range(12))
        position = {node: i for i, node in enumerate(order)}
        for u, v in edges:
            assert position[u] < position[v]


class TestIsDag:
    def test_dag(self, diamond_graph):
        assert is_dag(diamond_graph)

    def test_cyclic(self, cyclic_graph):
        assert not is_dag(cyclic_graph)

    def test_self_loop_is_cyclic(self):
        graph = CSRGraph.from_edges([(0, 0)])
        assert not is_dag(graph)


class TestRaggedOffsets:
    def test_basic(self):
        assert ragged_offsets(np.array([3, 1, 2])).tolist() == \
            [0, 1, 2, 0, 0, 1]

    def test_zero_length_groups(self):
        assert ragged_offsets(np.array([2, 0, 0, 3])).tolist() == \
            [0, 1, 0, 1, 2]

    def test_empty(self):
        assert ragged_offsets(np.zeros(0, dtype=np.int64)).size == 0
        assert ragged_offsets(np.array([0, 0])).size == 0


class TestTopologicalLevels:
    def test_diamond(self, diamond_graph):
        graph = diamond_graph
        decomposition = topological_levels(graph)
        assert decomposition.acyclic
        assert decomposition.num_levels == 3
        assert not decomposition.cyclic_mask.any()
        # 1 -> {2, 3} -> 4 maps to indices 0 -> {1, 2} -> 3.
        assert decomposition.levels.tolist() == [0, 1, 1, 2]

    def test_every_edge_increases_level_on_dags(self):
        rng = np.random.default_rng(11)
        raw = rng.integers(0, 30, size=(120, 2))
        edges = [(int(min(a, b)), int(max(a, b)))
                 for a, b in raw if a != b]
        graph = CSRGraph.from_edges(edges, nodes=range(30))
        decomposition = topological_levels(graph)
        assert decomposition.acyclic
        levels = decomposition.levels
        for u, v in edges:
            assert levels[u] < levels[v]
        assert decomposition.num_levels == int(levels.max()) + 1

    def test_cyclic_graph_condenses(self, cyclic_graph):
        graph = cyclic_graph
        decomposition = topological_levels(graph)
        assert not decomposition.acyclic
        levels = decomposition.levels
        cyclic = decomposition.cyclic_mask
        # nodes 1,2,3 form the SCC; 5 feeds it; 4 hangs off it.
        scc = [graph.index_of(node) for node in (1, 2, 3)]
        assert cyclic[scc].all()
        assert not cyclic[graph.index_of(4)]
        assert not cyclic[graph.index_of(5)]
        assert len(set(levels[scc].tolist())) == 1
        assert levels[graph.index_of(5)] < levels[graph.index_of(1)]
        assert levels[graph.index_of(3)] < levels[graph.index_of(4)]
        # Intra-level edges exist only between cyclic-flagged nodes.
        for u, v, _ in graph.edges():
            if levels[u] == levels[v]:
                assert cyclic[u] and cyclic[v]
            else:
                assert levels[u] < levels[v]

    def test_matches_longest_path_semantics(self):
        # level(v) = longest path reaching v
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3)], nodes=range(4))
        assert topological_levels(graph).levels.tolist() == [0, 1, 2, 3]

    def test_empty(self):
        decomposition = topological_levels(
            CSRGraph.from_edges([], nodes=[]))
        assert decomposition.num_levels == 0
        assert decomposition.acyclic

    @settings(max_examples=40, deadline=None)
    @given(dag_edges_strategy())
    def test_consistent_with_topological_sort(self, edges):
        graph = CSRGraph.from_edges(edges, nodes=range(12))
        decomposition = topological_levels(graph)
        assert decomposition.acyclic
        order = topological_sort(graph)
        position = {node: i for i, node in enumerate(order)}
        for u, v in set(edges):
            assert decomposition.levels[u] < decomposition.levels[v]
            assert position[u] < position[v]


class TestDagViolations:
    def test_counts_forward_in_time_edges(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        years = np.array([2000, 1999, 1998])
        # 0->1 backward ok, 1->2 backward ok, 2->0 forward (1998 cites 2000)
        assert dag_violations(graph, years) == 1

    def test_zero_on_proper_citations(self, small_dataset):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        assert dag_violations(graph, years) == 0
