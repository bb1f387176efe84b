"""Unit and property tests for the CSR snapshot."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.csr import CSRGraph


def edges_strategy(max_nodes=12, max_edges=40):
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    return st.lists(st.tuples(node, node), min_size=0, max_size=max_edges)


def per_edge_from_edges(edges, nodes=None, weights=None):
    """``from_edges`` as it was: a dict lookup per edge endpoint."""
    edge_list = list(edges)
    weight_list = [1.0] * len(edge_list) if weights is None \
        else [float(w) for w in weights]
    if nodes is not None:
        node_ids = np.asarray(list(nodes), dtype=np.int64)
    else:
        seen = {u for u, _ in edge_list} | {v for _, v in edge_list}
        node_ids = np.asarray(sorted(seen), dtype=np.int64)
    id_to_index = {int(node): i for i, node in enumerate(node_ids)}
    src_idx = np.empty(len(edge_list), dtype=np.int64)
    dst_idx = np.empty(len(edge_list), dtype=np.int64)
    for k, (u, v) in enumerate(edge_list):
        try:
            src_idx[k] = id_to_index[u]
            dst_idx[k] = id_to_index[v]
        except KeyError as exc:
            raise NodeNotFoundError(int(exc.args[0])) from None
    return CSRGraph._from_indexed(len(node_ids), src_idx, dst_idx,
                                  np.asarray(weight_list), node_ids)


def assert_same_graph(built, expected):
    for name in ("indptr", "indices", "weights", "node_ids"):
        assert getattr(built, name).dtype == getattr(expected, name).dtype
        assert np.array_equal(getattr(built, name),
                              getattr(expected, name)), name


class TestFromEdgesParity:
    """The searchsorted resolution against the per-edge reference."""

    EDGES = [(40, 7), (7, 7), (40, 7), (3, 40), (19, 3), (40, 19),
             (7, 3), (40, 7)]
    WEIGHTS = [0.5, 2.0, 0.25, 1.0, 3.0, 0.125, 4.0, 8.0]
    UNSORTED = [19, 3, 88, 40, 7]  # index order = given order

    @pytest.mark.parametrize("nodes", [None, UNSORTED, sorted(UNSORTED)],
                             ids=["implicit", "unsorted", "sorted"])
    @pytest.mark.parametrize("weights", [None, WEIGHTS],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("form", [list, iter, np.asarray],
                             ids=["list", "generator", "ndarray"])
    def test_arrays_equal(self, nodes, weights, form):
        built = CSRGraph.from_edges(form(self.EDGES), nodes=nodes,
                                    weights=weights)
        assert_same_graph(built, per_edge_from_edges(
            self.EDGES, nodes=nodes, weights=weights))
        if nodes is not None:
            assert built.node_ids.tolist() == list(nodes)

    @given(edges_strategy(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_edges_and_node_orders(self, edges, rng):
        nodes = list(range(12))
        rng.shuffle(nodes)
        weights = [rng.random() for _ in edges]
        for given_nodes in (None, nodes):
            assert_same_graph(
                CSRGraph.from_edges(edges, nodes=given_nodes,
                                    weights=weights),
                per_edge_from_edges(edges, nodes=given_nodes,
                                    weights=weights))

    @pytest.mark.parametrize("edges, missing", [
        ([(1, 2), (2, 9), (8, 1)], 9),   # first unknown in edge order
        ([(1, 2), (8, 9)], 8),           # source before destination
    ])
    def test_unknown_endpoint_names_the_same_id(self, edges, missing):
        for build in (CSRGraph.from_edges, per_edge_from_edges):
            with pytest.raises(NodeNotFoundError) as caught:
                build(edges, nodes=[2, 1])
            assert caught.value.args == NodeNotFoundError(missing).args

    def test_duplicate_nodes_and_malformed_edges_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            CSRGraph.from_edges([], nodes=[4, 1, 4])
        with pytest.raises(GraphError):
            CSRGraph.from_edges([(1, 2, 3), (2, 1, 3)])


class TestConstruction:
    def test_from_edges_basic(self):
        graph = CSRGraph.from_edges([(10, 20), (10, 30), (20, 30)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert graph.node_ids.tolist() == [10, 20, 30]

    def test_from_edges_explicit_nodes_keeps_isolated(self):
        graph = CSRGraph.from_edges([(1, 2)], nodes=[1, 2, 3])
        assert graph.num_nodes == 3
        assert graph.out_degrees().tolist() == [1, 0, 0]

    def test_from_edges_duplicate_node_list_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([(1, 2)], nodes=[1, 2, 2])

    def test_from_edges_unknown_endpoint_rejected(self):
        with pytest.raises(NodeNotFoundError):
            CSRGraph.from_edges([(1, 9)], nodes=[1, 2])

    def test_from_edges_weights_align(self):
        graph = CSRGraph.from_edges([(1, 2), (2, 1)], weights=[0.5, 2.0])
        i = graph.index_of(1)
        assert graph.neighbor_weights(i).tolist() == [0.5]

    def test_from_edges_weight_length_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([(1, 2)], weights=[1.0, 2.0])

    def test_invalid_arrays_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0, 1]),
                     np.array([1.0]), np.array([5]))
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([0]),
                     np.array([1.0]), np.array([5]))

    def test_empty_graph(self):
        graph = CSRGraph.from_edges([], nodes=[])
        assert graph.num_nodes == 0
        assert graph.num_edges == 0


class TestQueries:
    def test_index_of_unknown_raises(self):
        graph = CSRGraph.from_edges([(1, 2)])
        with pytest.raises(NodeNotFoundError):
            graph.index_of(99)

    def test_neighbors_bounds(self):
        graph = CSRGraph.from_edges([(1, 2)])
        with pytest.raises(NodeNotFoundError):
            graph.neighbors(5)
        with pytest.raises(NodeNotFoundError):
            graph.neighbor_weights(-1)

    def test_degrees(self, diamond_graph):
        csr = diamond_graph
        assert csr.out_degrees().sum() == csr.num_edges
        assert csr.in_degrees().sum() == csr.num_edges
        assert csr.in_degrees()[csr.index_of(4)] == 2

    def test_out_strengths(self):
        graph = CSRGraph.from_edges([(1, 2), (1, 3)], weights=[0.5, 1.5])
        strengths = graph.out_strengths()
        assert strengths[graph.index_of(1)] == pytest.approx(2.0)
        assert strengths[graph.index_of(2)] == 0.0

    def test_edge_array_roundtrip(self, diamond_graph):
        csr = diamond_graph
        src, dst, weights = csr.edge_array()
        rebuilt = {(int(csr.node_ids[s]), int(csr.node_ids[d]))
                   for s, d in zip(src, dst)}
        assert rebuilt == {(1, 2), (1, 3), (2, 4), (3, 4)}
        assert len(weights) == csr.num_edges

    def test_to_scipy(self, diamond_graph):
        matrix = diamond_graph.to_scipy()
        assert matrix.shape == (4, 4)
        assert matrix.nnz == 4

    def test_edges_iterator(self):
        graph = CSRGraph.from_edges([(1, 2), (2, 3)])
        triples = list(graph.edges())
        assert len(triples) == 2
        assert all(w == 1.0 for _, _, w in triples)


class TestReverse:
    def test_reverse_swaps_edges(self, diamond_graph):
        csr = diamond_graph
        rev = csr.reverse()
        assert rev.num_edges == csr.num_edges
        assert rev.in_degrees().tolist() == csr.out_degrees().tolist()

    def test_reverse_is_cached_and_involutive(self, diamond_graph):
        csr = diamond_graph
        assert csr.reverse().reverse() is csr

    @settings(max_examples=30, deadline=None)
    @given(edges_strategy())
    def test_reverse_preserves_edge_multiset(self, edges):
        graph = CSRGraph.from_edges(edges, nodes=range(12))
        src, dst, _ = graph.edge_array()
        rsrc, rdst, _ = graph.reverse().edge_array()
        forward = sorted(zip(src.tolist(), dst.tolist()))
        backward = sorted(zip(rdst.tolist(), rsrc.tolist()))
        assert forward == backward

    @settings(max_examples=30, deadline=None)
    @given(edges_strategy())
    def test_degree_sums_match(self, edges):
        graph = CSRGraph.from_edges(edges, nodes=range(12))
        assert graph.out_degrees().sum() == len(edges)
        assert graph.in_degrees().sum() == len(edges)
