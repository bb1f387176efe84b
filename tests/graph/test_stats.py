"""Graph statistics tests."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.stats import compute_stats, powerlaw_mle


class TestComputeStats:
    def test_hand_computed(self, diamond_graph):
        stats = compute_stats(diamond_graph)
        assert stats.num_nodes == 4
        assert stats.num_edges == 4
        assert stats.density == pytest.approx(4 / 12)
        assert stats.num_dangling == 1  # node 4
        assert stats.num_isolated == 0
        assert stats.max_in_degree == 2
        assert stats.max_out_degree == 2
        assert stats.mean_in_degree == pytest.approx(1.0)
        assert stats.acyclic
        assert stats.forward_edges is None

    def test_isolated_nodes_counted(self):
        graph = CSRGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        stats = compute_stats(graph)
        assert stats.num_isolated == 1
        assert stats.num_dangling == 2  # nodes 1 and 2

    def test_forward_edges_with_years(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)])
        stats = compute_stats(graph, years=np.array([2001, 2005, 2003]))
        # 0(2001) cites 1(2005): forward; 1(2005) cites 2(2003): fine.
        assert stats.forward_edges == 1

    def test_empty_graph(self):
        stats = compute_stats(CSRGraph.from_edges([], nodes=[]))
        assert stats.num_nodes == 0
        assert stats.density == 0.0
        assert np.isnan(stats.powerlaw_alpha)

    def test_as_row_keys_stable(self, diamond_graph):
        row = compute_stats(diamond_graph).as_row()
        assert "|V|" in row and "alpha" in row and row["DAG"] == "yes"


class TestPowerlawMle:
    def test_tracks_planted_exponent(self):
        # The discrete approximation is a diagnostic, not a precision
        # estimator: check it sits in the right neighbourhood and orders
        # heavier tails below lighter ones.
        rng = np.random.default_rng(0)
        u = rng.random(200_000)

        def estimate(alpha_true):
            sample = np.floor(
                0.5 * (1 - u) ** (-1 / (alpha_true - 1)) + 0.5)
            return powerlaw_mle(sample[sample >= 1], xmin=1)

        estimates = {alpha: estimate(alpha) for alpha in (2.0, 2.5, 3.0)}
        for alpha, value in estimates.items():
            assert abs(value - alpha) < 0.8
        assert estimates[2.0] < estimates[2.5] < estimates[3.0]

    def test_no_tail_gives_nan(self):
        assert np.isnan(powerlaw_mle(np.array([0, 0, 0]), xmin=1))

    def test_citation_graph_alpha_in_plausible_range(self, medium_dataset):
        graph = medium_dataset.citation_csr()
        stats = compute_stats(graph)
        assert 1.2 < stats.powerlaw_alpha < 3.5
