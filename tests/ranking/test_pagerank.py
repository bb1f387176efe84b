"""PageRank engine tests, with networkx as the oracle."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ConvergenceError
from repro.graph.csr import CSRGraph
from repro.ranking.pagerank import (
    build_transition,
    pagerank,
    validate_jump,
)


def nx_pagerank(edges, nodes, damping=0.85, personalization=None):
    oracle = nx.DiGraph()
    oracle.add_nodes_from(nodes)
    oracle.add_edges_from(edges)
    return nx.pagerank(oracle, alpha=damping, tol=1e-12, max_iter=500,
                       personalization=personalization)


class TestBasics:
    def test_scores_are_distribution(self, cyclic_graph):
        result = pagerank(cyclic_graph)
        assert result.converged
        assert result.scores.sum() == pytest.approx(1.0)
        assert (result.scores >= 0).all()

    def test_cycle_is_uniform(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        result = pagerank(graph)
        assert np.allclose(result.scores, 1 / 3, atol=1e-9)

    def test_empty_graph(self):
        result = pagerank(CSRGraph.from_edges([], nodes=[]))
        assert result.converged
        assert len(result.scores) == 0

    def test_all_dangling(self):
        graph = CSRGraph.from_edges([], nodes=[0, 1, 2, 3])
        result = pagerank(graph)
        assert np.allclose(result.scores, 0.25)

    def test_matches_networkx(self):
        edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (4, 3), (4, 2)]
        graph = CSRGraph.from_edges(edges, nodes=range(5))
        result = pagerank(graph, tol=1e-12, max_iter=500)
        oracle = nx_pagerank(edges, range(5))
        for node, value in oracle.items():
            assert result.scores[graph.index_of(node)] == \
                pytest.approx(value, abs=1e-8)

    def test_matches_networkx_on_generated(self, small_dataset):
        graph = small_dataset.citation_csr()
        result = pagerank(graph, tol=1e-12, max_iter=500)
        edges = [(int(small_dataset.articles[u].id), v)
                 for u in small_dataset.articles
                 for v in small_dataset.articles[u].references
                 if v in small_dataset.articles]
        oracle = nx_pagerank(edges, sorted(small_dataset.articles))
        ours = {int(node): float(score)
                for node, score in zip(graph.node_ids, result.scores)}
        worst = max(abs(ours[k] - oracle[k]) for k in oracle)
        assert worst < 1e-8


class TestPersonalization:
    def test_jump_biases_scores(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 0)], nodes=[0, 1, 2])
        jump = np.array([0.0, 0.0, 1.0])
        result = pagerank(graph, jump=jump)
        assert result.scores[2] > 1 / 3

    def test_jump_matches_networkx(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 1)]
        graph = CSRGraph.from_edges(edges, nodes=range(3))
        jump = np.array([0.7, 0.2, 0.1])
        result = pagerank(graph, jump=jump, tol=1e-12, max_iter=500)
        oracle = nx_pagerank(edges, range(3),
                             personalization={0: 0.7, 1: 0.2, 2: 0.1})
        for node, value in oracle.items():
            assert result.scores[node] == pytest.approx(value, abs=1e-8)

    def test_validate_jump_normalizes(self):
        jump = validate_jump(np.array([2.0, 2.0]), 2)
        assert jump.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("bad", [
        np.array([1.0]),            # wrong shape
        np.array([-1.0, 2.0]),      # negative
        np.array([0.0, 0.0]),       # zero mass
        np.array([np.inf, 1.0]),    # non-finite
    ])
    def test_validate_jump_rejects(self, bad):
        with pytest.raises(ConfigError):
            validate_jump(bad, 2)


class TestEdgeWeights:
    def test_weights_shift_mass(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2)])
        heavy_to_1 = pagerank(graph,
                              edge_weights=np.array([9.0, 1.0])).scores
        assert heavy_to_1[1] > heavy_to_1[2]

    def test_zero_out_weights_make_dangling(self):
        graph = CSRGraph.from_edges([(0, 1)], nodes=[0, 1])
        _, dangling = build_transition(graph,
                                       np.array([0.0]))
        assert dangling.tolist() == [True, True]

    def test_weight_shape_mismatch(self):
        graph = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(ConfigError):
            pagerank(graph, edge_weights=np.array([1.0, 2.0]))

    def test_negative_weight_rejected(self):
        graph = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(ConfigError):
            pagerank(graph, edge_weights=np.array([-1.0]))


class TestWarmStart:
    def test_warm_start_converges_faster(self, medium_dataset):
        graph = medium_dataset.citation_csr()
        cold = pagerank(graph, tol=1e-12)
        warm = pagerank(graph, tol=1e-12, initial=cold.scores)
        assert warm.iterations < cold.iterations
        assert np.abs(warm.scores - cold.scores).sum() < 1e-9

    def test_initial_validation(self):
        graph = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(ConfigError):
            pagerank(graph, initial=np.array([1.0]))
        with pytest.raises(ConfigError):
            pagerank(graph, initial=np.array([0.0, 0.0]))


class TestConfigErrors:
    @pytest.mark.parametrize("kwargs", [
        {"damping": 1.0},
        {"damping": -0.1},
        {"tol": 0.0},
        {"max_iter": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        graph = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(ConfigError):
            pagerank(graph, **kwargs)

    def test_raise_on_divergence(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
        with pytest.raises(ConvergenceError):
            pagerank(graph, tol=1e-15, max_iter=2,
                     raise_on_divergence=True)

    def test_non_converged_flagged(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
        result = pagerank(graph, tol=1e-15, max_iter=2)
        assert not result.converged
        assert result.iterations == 2


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=0, max_size=30))
    def test_always_a_distribution(self, edges):
        graph = CSRGraph.from_edges(edges, nodes=range(10))
        result = pagerank(graph, max_iter=500)
        assert result.scores.sum() == pytest.approx(1.0)
        assert (result.scores >= 0).all()
        # Uniform jump guarantees every node at least (1-d)/n.
        assert result.scores.min() >= 0.15 / 10 - 1e-9
