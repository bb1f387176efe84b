"""SCC and condensation tests, with networkx as the oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.scc import condensation, strongly_connected_components
from repro.graph.toposort import topological_sort


def as_id_sets(components, graph):
    return {frozenset(int(graph.node_ids[n]) for n in comp)
            for comp in components}


class TestKnownGraphs:
    def test_single_cycle(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        components = strongly_connected_components(graph)
        assert len(components) == 1
        assert sorted(components[0]) == [0, 1, 2]

    def test_dag_gives_singletons(self, diamond_graph):
        graph = diamond_graph
        components = strongly_connected_components(graph)
        assert len(components) == 4
        assert all(len(c) == 1 for c in components)

    def test_two_cycles_bridge(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        graph = CSRGraph.from_edges(edges)
        sets = as_id_sets(strongly_connected_components(graph), graph)
        assert sets == {frozenset({0, 1}), frozenset({2, 3})}

    def test_emission_order_sinks_first(self):
        # 0 -> 1 -> 2: Tarjan must emit 2 before 1 before 0.
        graph = CSRGraph.from_edges([(0, 1), (1, 2)])
        order = [c[0] for c in strongly_connected_components(graph)]
        assert order == [2, 1, 0]

    def test_empty_graph(self):
        graph = CSRGraph.from_edges([], nodes=[])
        assert strongly_connected_components(graph) == []

    def test_isolated_nodes(self):
        graph = CSRGraph.from_edges([], nodes=[1, 2, 3])
        assert len(strongly_connected_components(graph)) == 3


class TestCondensation:
    def test_condensation_is_dag(self, cyclic_graph):
        graph = cyclic_graph
        dag, membership = condensation(graph)
        assert topological_sort(dag) is not None
        assert len(membership) == graph.num_nodes
        assert dag.num_nodes == membership.max() + 1

    def test_membership_consistent(self, cyclic_graph):
        graph = cyclic_graph
        components = strongly_connected_components(graph)
        _, membership = condensation(graph)
        for comp_id, members in enumerate(components):
            assert {membership[m] for m in members} == {comp_id}

    def test_edge_weights_aggregate(self):
        # Two parallel-at-component-level edges collapse with summed weight.
        edges = [(0, 1), (1, 0), (0, 2), (1, 2)]
        graph = CSRGraph.from_edges(edges)
        dag, membership = condensation(graph)
        assert dag.num_edges == 1
        assert dag.weights[0] == pytest.approx(2.0)

    def test_deep_graph_no_recursion_error(self):
        # A 5000-long path would blow Python's default recursion limit if
        # Tarjan were recursive.
        n = 5000
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(n - 1)])
        components = strongly_connected_components(graph)
        assert len(components) == n


class TestAgainstNetworkx:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    min_size=0, max_size=60))
    def test_matches_networkx(self, edges):
        graph = CSRGraph.from_edges(edges, nodes=range(15))
        ours = as_id_sets(strongly_connected_components(graph), graph)
        oracle = nx.DiGraph()
        oracle.add_nodes_from(range(15))
        oracle.add_edges_from(edges)
        theirs = {frozenset(c)
                  for c in nx.strongly_connected_components(oracle)}
        assert ours == theirs
