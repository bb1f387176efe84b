"""Citation count and citation rate baselines."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.ranking.citation_count import citation_count
from repro.ranking.simple import citation_rate


class TestCitationCount:
    def test_counts_in_edges(self, tiny_dataset):
        graph = tiny_dataset.citation_csr()
        counts = citation_count(graph)
        assert counts[graph.index_of(0)] == 2
        assert counts[graph.index_of(1)] == 2
        assert counts[graph.index_of(4)] == 0

    def test_float_dtype(self, diamond_graph):
        assert citation_count(diamond_graph).dtype == np.float64


class TestCitationRate:
    def test_hand_computed(self):
        graph = CSRGraph.from_edges([(1, 0)], nodes=[0, 1])
        years = np.array([2000, 2010])
        rate = citation_rate(graph, years, observation_year=2010)
        assert rate[0] == pytest.approx(1 / 11)
        assert rate[1] == 0.0

    def test_alignment_checked(self):
        graph = CSRGraph.from_edges([(1, 0)])
        with pytest.raises(ConfigError):
            citation_rate(graph, np.array([2000]), 2010)

    def test_future_observation_rejected(self):
        graph = CSRGraph.from_edges([(1, 0)])
        with pytest.raises(ConfigError):
            citation_rate(graph, np.array([2000, 2010]), 2005)
