"""Monte-Carlo PageRank tests."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.ranking.montecarlo import monte_carlo_pagerank
from repro.ranking.pagerank import pagerank


class TestMonteCarlo:
    def test_approximates_power_iteration(self, small_dataset):
        graph = small_dataset.citation_csr()
        exact = pagerank(graph).scores
        estimate = monte_carlo_pagerank(graph, walks_per_node=100,
                                        seed=1).scores
        assert np.abs(estimate - exact).sum() < 0.05

    def test_error_shrinks_with_budget(self, small_dataset):
        graph = small_dataset.citation_csr()
        exact = pagerank(graph).scores
        coarse = monte_carlo_pagerank(graph, walks_per_node=5,
                                      seed=2).scores
        fine = monte_carlo_pagerank(graph, walks_per_node=200,
                                    seed=2).scores
        assert np.abs(fine - exact).sum() < np.abs(coarse - exact).sum()

    def test_is_distribution(self, small_dataset):
        graph = small_dataset.citation_csr()
        result = monte_carlo_pagerank(graph, walks_per_node=10, seed=0)
        assert result.scores.sum() == pytest.approx(1.0)
        assert (result.scores >= 0).all()
        assert result.walks == graph.num_nodes * 10

    def test_deterministic_given_seed(self, diamond_graph):
        graph = diamond_graph
        a = monte_carlo_pagerank(graph, walks_per_node=50, seed=7)
        b = monte_carlo_pagerank(graph, walks_per_node=50, seed=7)
        assert np.array_equal(a.scores, b.scores)

    def test_deterministic_given_seed_with_dangling(self,
                                                    small_dataset):
        # Same property on a realistic graph (dangling nodes included):
        # equal seeds must agree bit for bit, walk for walk.
        graph = small_dataset.citation_csr()
        a = monte_carlo_pagerank(graph, walks_per_node=25, seed=123)
        b = monte_carlo_pagerank(graph, walks_per_node=25, seed=123)
        assert np.array_equal(a.scores, b.scores)
        assert a.walks == b.walks
        assert a.steps == b.steps

    def test_seed_actually_matters(self, small_dataset):
        graph = small_dataset.citation_csr()
        a = monte_carlo_pagerank(graph, walks_per_node=25, seed=123)
        c = monte_carlo_pagerank(graph, walks_per_node=25, seed=124)
        assert not np.array_equal(a.scores, c.scores)

    def test_all_dangling_uniform(self):
        graph = CSRGraph.from_edges([], nodes=[0, 1, 2])
        result = monte_carlo_pagerank(graph, walks_per_node=10, seed=0)
        assert np.allclose(result.scores, 1 / 3)
        assert result.steps == 0

    def test_empty_graph(self):
        result = monte_carlo_pagerank(CSRGraph.from_edges([], nodes=[]),
                                      walks_per_node=5)
        assert len(result.scores) == 0

    @pytest.mark.parametrize("kwargs", [
        {"walks_per_node": 0}, {"damping": 1.0}, {"max_length": 0},
    ])
    def test_validation(self, diamond_graph, kwargs):
        with pytest.raises(ConfigError):
            monte_carlo_pagerank(diamond_graph, **kwargs)
