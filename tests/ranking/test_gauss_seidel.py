"""Gauss–Seidel PageRank: fixed-point agreement and sweep ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.ranking.gauss_seidel import gauss_seidel_pagerank, influence_order
from repro.ranking.pagerank import pagerank


class TestInfluenceOrder:
    def test_dag_sources_first(self, diamond_graph):
        graph = diamond_graph
        order = influence_order(graph)
        position = {node: i for i, node in enumerate(order)}
        for u, v, _ in graph.edges():
            assert position[u] < position[v]

    def test_cyclic_graph_uses_condensation(self, cyclic_graph):
        graph = cyclic_graph
        order = influence_order(graph)
        assert sorted(order.tolist()) == list(range(graph.num_nodes))
        # Node 5 feeds the cycle, node 4 drains it: 5 first, 4 last.
        position = {node: i for i, node in enumerate(order)}
        assert position[graph.index_of(5)] < position[graph.index_of(1)]
        assert position[graph.index_of(4)] > position[graph.index_of(3)]


class TestFixedPoint:
    def test_matches_power_iteration_dag(self, diamond_graph):
        graph = diamond_graph
        power = pagerank(graph, tol=1e-13, max_iter=500)
        sweep = gauss_seidel_pagerank(graph, tol=1e-13)
        assert np.abs(power.scores - sweep.scores).sum() < 1e-9

    def test_matches_power_iteration_cyclic(self, cyclic_graph):
        graph = cyclic_graph
        power = pagerank(graph, tol=1e-13, max_iter=500)
        sweep = gauss_seidel_pagerank(graph, tol=1e-13)
        assert np.abs(power.scores - sweep.scores).sum() < 1e-9

    def test_matches_on_generated(self, small_dataset):
        graph = small_dataset.citation_csr()
        power = pagerank(graph, tol=1e-12, max_iter=500)
        sweep = gauss_seidel_pagerank(graph, tol=1e-12)
        assert np.abs(power.scores - sweep.scores).sum() < 1e-8

    def test_dag_converges_in_few_sweeps(self, small_dataset):
        graph = small_dataset.citation_csr()
        power = pagerank(graph, tol=1e-10, max_iter=500)
        sweep = gauss_seidel_pagerank(graph, tol=1e-10)
        assert sweep.iterations < power.iterations / 3

    def test_weighted_edges(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        weights = np.array([3.0, 1.0, 1.0])
        power = pagerank(graph, edge_weights=weights, tol=1e-13,
                         max_iter=500)
        sweep = gauss_seidel_pagerank(graph, edge_weights=weights,
                                      tol=1e-13)
        assert np.abs(power.scores - sweep.scores).sum() < 1e-9

    def test_personalized(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        jump = np.array([0.6, 0.3, 0.1])
        power = pagerank(graph, jump=jump, tol=1e-13, max_iter=500)
        sweep = gauss_seidel_pagerank(graph, jump=jump, tol=1e-13)
        assert np.abs(power.scores - sweep.scores).sum() < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=25))
    def test_agreement_on_random_graphs(self, edges):
        graph = CSRGraph.from_edges(edges, nodes=range(8))
        power = pagerank(graph, tol=1e-13, max_iter=1000)
        sweep = gauss_seidel_pagerank(graph, tol=1e-13, max_sweeps=1000)
        assert np.abs(power.scores - sweep.scores).sum() < 1e-8


def _random_graph(n, m, *, cyclic, weighted=False, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    keep = a != b
    a, b = a[keep], b[keep]
    if not cyclic:
        a, b = np.minimum(a, b), np.maximum(a, b)
    weights = (rng.random(len(a)) + 0.05).tolist() if weighted else None
    return CSRGraph.from_edges(zip(a.tolist(), b.tolist()),
                               nodes=range(n), weights=weights)


class TestLevelKernel:
    """The batched ``levels`` kernel vs the per-node reference sweep."""

    def _parity(self, graph, **kwargs):
        reference = gauss_seidel_pagerank(graph, kernel="pernode",
                                          **kwargs)
        batched = gauss_seidel_pagerank(graph, kernel="levels", **kwargs)
        assert batched.iterations == reference.iterations
        assert batched.converged == reference.converged
        # Same sweep semantics; only float summation order differs.
        assert np.abs(batched.scores - reference.scores).max() < 1e-12
        return reference, batched

    def test_parity_dag(self):
        self._parity(_random_graph(300, 2500, cyclic=False, seed=1))

    def test_parity_cyclic_scc_condensation(self):
        reference, batched = self._parity(
            _random_graph(120, 700, cyclic=True, seed=2))
        # SCC members run through the identical per-node path, so a
        # cyclic-dominated graph agrees bitwise.
        assert np.array_equal(reference.scores, batched.scores)

    def test_parity_weighted(self):
        self._parity(_random_graph(300, 2500, cyclic=False,
                                   weighted=True, seed=3))

    def test_parity_dangling_heavy(self):
        # A long chain into a node plus many isolated (dangling) nodes.
        edges = [(i, i + 1) for i in range(20)]
        graph = CSRGraph.from_edges(edges, nodes=range(200))
        self._parity(graph)

    def test_parity_small_dataset(self, small_dataset):
        self._parity(small_dataset.citation_csr())

    def test_parity_personalized_jump_and_initial(self):
        graph = _random_graph(60, 300, cyclic=False, seed=4)
        rng = np.random.default_rng(5)
        jump = rng.random(60) + 0.01
        jump /= jump.sum()
        initial = rng.random(60) + 0.01
        self._parity(graph, jump=jump, initial=initial)

    def test_auto_selects_levels_by_default(self, small_dataset):
        graph = small_dataset.citation_csr()
        auto = gauss_seidel_pagerank(graph)
        levels = gauss_seidel_pagerank(graph, kernel="levels")
        assert np.array_equal(auto.scores, levels.scores)

    def test_auto_with_custom_order_uses_pernode(self, diamond_graph):
        graph = diamond_graph
        order = influence_order(graph).tolist()
        explicit = gauss_seidel_pagerank(graph, kernel="pernode",
                                         order=order)
        auto = gauss_seidel_pagerank(graph, order=order)
        assert np.array_equal(auto.scores, explicit.scores)

    def test_levels_rejects_custom_order(self, diamond_graph):
        with pytest.raises(ConfigError):
            gauss_seidel_pagerank(diamond_graph,
                                  kernel="levels", order=[3, 2, 1, 0])

    def test_unknown_kernel_rejected(self, diamond_graph):
        with pytest.raises(ConfigError):
            gauss_seidel_pagerank(diamond_graph,
                                  kernel="segmented")

    def test_levels_telemetry_counter(self, small_dataset):
        from repro.obs.telemetry import SolverTelemetry
        telemetry = SolverTelemetry()
        gauss_seidel_pagerank(small_dataset.citation_csr(),
                              telemetry=telemetry)
        assert telemetry.counters["levels"] >= 1


class TestEdgeWeightGuard:
    """All solvers share one edge-weight guard (finite, non-negative)."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_gauss_seidel_rejects(self, diamond_graph, bad):
        graph = diamond_graph
        weights = graph.weights.copy()
        weights[0] = bad
        with pytest.raises(ConfigError):
            gauss_seidel_pagerank(graph, edge_weights=weights)

    def test_shape_mismatch_rejected(self, diamond_graph):
        graph = diamond_graph
        with pytest.raises(ConfigError):
            gauss_seidel_pagerank(graph,
                                  edge_weights=np.ones(graph.num_edges
                                                       + 1))


class TestValidation:
    def test_custom_order_used(self, diamond_graph):
        graph = diamond_graph
        result = gauss_seidel_pagerank(graph, order=[3, 2, 1, 0])
        assert result.converged

    def test_bad_order_rejected(self, diamond_graph):
        graph = diamond_graph
        with pytest.raises(ConfigError):
            gauss_seidel_pagerank(graph, order=[0, 0, 1, 2])

    @pytest.mark.parametrize("kwargs", [
        {"damping": 1.0}, {"tol": 0}, {"max_sweeps": 0},
    ])
    def test_invalid_parameters(self, kwargs, diamond_graph):
        with pytest.raises(ConfigError):
            gauss_seidel_pagerank(diamond_graph, **kwargs)

    def test_empty_graph(self):
        result = gauss_seidel_pagerank(CSRGraph.from_edges([], nodes=[]))
        assert result.converged
