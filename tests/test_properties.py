"""Cross-module property-based tests.

Invariants that must hold across the whole stack regardless of input
shape: solver fixed-point agreement, distribution conservation,
serialization round-trips, metric bounds, index/ranking consistency.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.schema import Article, Author, ScholarlyDataset, Venue
from repro.graph.csr import CSRGraph


def graph_strategy(max_nodes=10, max_edges=30):
    """Unconstrained endpoint pairs: cycles and self-loops included."""
    node = st.integers(0, max_nodes - 1)
    return st.lists(st.tuples(node, node), min_size=0,
                    max_size=max_edges).map(
        lambda edges: CSRGraph.from_edges(edges, nodes=range(max_nodes)))


years_strategy = st.lists(st.integers(1980, 2020), min_size=10,
                          max_size=10).map(np.array)


def dataset_strategy():
    """Small random-but-consistent datasets (refs point backward)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, 15))
        num_venues = draw(st.integers(1, 3))
        num_authors = draw(st.integers(1, 5))
        dataset = ScholarlyDataset(name="prop")
        for venue_id in range(num_venues):
            dataset.add_venue(Venue(id=venue_id, name=f"v{venue_id}"))
        for author_id in range(num_authors):
            dataset.add_author(Author(id=author_id, name=f"a{author_id}"))
        for article_id in range(n):
            refs = ()
            if article_id > 0:
                refs = tuple(sorted(draw(st.sets(
                    st.integers(0, article_id - 1), max_size=3))))
            dataset.add_article(Article(
                id=article_id, title=f"t{article_id}",
                year=2000 + article_id // 2,
                venue_id=draw(st.integers(0, num_venues - 1)),
                author_ids=(draw(st.integers(0, num_authors - 1)),),
                references=refs,
                quality=draw(st.floats(0.1, 10.0))))
        return dataset

    return build()


class TestSolverAgreement:
    @settings(max_examples=20, deadline=None)
    @given(graph_strategy(), years_strategy)
    @example(CSRGraph.from_edges([(0, 1), (1, 2), (2, 0), (3, 0), (2, 4)],
                                 nodes=range(10)), np.arange(1990, 2000))
    def test_all_twpr_solvers_share_fixed_point(self, graph, years):
        from repro.core.time_weight import exponential_decay
        from repro.core.twpr import time_weight_edges, time_weighted_pagerank
        from repro.ranking.gauss_seidel import gauss_seidel_pagerank

        power, auto, levels = (
            time_weighted_pagerank(graph, years, method=method,
                                   tol=1e-12, max_iter=1000)
            for method in ("power", "auto", "levels"))
        pernode = gauss_seidel_pagerank(
            graph, kernel="pernode", tol=1e-12, max_sweeps=1000,
            edge_weights=time_weight_edges(graph, years,
                                           exponential_decay(0.1)))
        for result in (auto, levels, pernode):
            assert np.abs(result.scores - power.scores).sum() < 1e-7
        # The level kernel batches the per-node sweep, cycles included.
        assert levels.iterations == pernode.iterations

    @settings(max_examples=15, deadline=None)
    @given(graph_strategy())
    def test_block_engine_matches_pagerank(self, graph):
        from repro.engine.blocks import BlockEngine
        from repro.graph.partition import range_partition
        from repro.ranking.pagerank import pagerank

        reference = pagerank(graph, tol=1e-12, max_iter=1000)
        partition = range_partition(graph, 3)
        result = BlockEngine(graph, partition).run(tol=1e-12,
                                                   max_supersteps=1000)
        assert np.abs(result.scores - reference.scores).sum() < 1e-7

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(), st.data())
    def test_block_engine_equals_the_never_skipping_loop(self, graph,
                                                         data):
        """Whatever the partition, order and starting point, skipping
        blocks is a bit-exact no-op, and every block-superstep is either
        solved or counted as skipped."""
        from repro.engine.blocks import BlockEngine
        from repro.graph.partition import Partition
        from repro.obs import SolverTelemetry
        from tests.engine.test_superstep_oracle import (
            assert_equals_oracle, oracle_for)

        n = graph.num_nodes
        num_blocks = data.draw(st.integers(1, 5))
        partition = Partition(np.array(data.draw(st.lists(
            st.integers(0, num_blocks - 1), min_size=n, max_size=n))),
            num_blocks)
        order = data.draw(st.permutations(range(num_blocks)))
        initial = data.draw(st.none() | st.lists(
            st.floats(0.01, 1.0), min_size=n, max_size=n).map(np.array))
        engine = BlockEngine(graph, partition)
        telemetry = SolverTelemetry("blocks")
        result = engine.run(block_order=order, initial=initial,
                            telemetry=telemetry)
        assert_equals_oracle(result, oracle_for(engine, [order],
                                                initial=initial))
        solved = sum(1 for record in telemetry.supersteps
                     for inner in record.block_iterations.values()
                     if inner > 0)
        assert result.blocks_skipped + solved \
            == num_blocks * result.supersteps


class TestDistributionInvariants:
    @settings(max_examples=20, deadline=None)
    @given(graph_strategy(), years_strategy)
    def test_popularity_mass_equals_decayed_edges(self, graph, years):
        from repro.core.popularity import popularity_scores
        from repro.core.time_weight import exponential_decay

        decay = exponential_decay(0.3)
        scores = popularity_scores(graph, years, 2020, decay=decay)
        src_idx, _, _ = graph.edge_array()
        expected_total = decay(2020.0 - years[src_idx]).sum()
        assert scores.sum() == pytest.approx(expected_total)

    @settings(max_examples=20, deadline=None)
    @given(graph_strategy())
    def test_monte_carlo_is_distribution(self, graph):
        from repro.ranking.montecarlo import monte_carlo_pagerank

        result = monte_carlo_pagerank(graph, walks_per_node=3, seed=1)
        assert result.scores.sum() == pytest.approx(1.0)
        assert (result.scores >= 0).all()


class TestSerializationRoundTrips:
    @settings(max_examples=15, deadline=None)
    @given(dataset=dataset_strategy())
    def test_jsonl_roundtrip(self, dataset, tmp_path_factory):
        from repro.data.io import load_dataset_jsonl, save_dataset_jsonl

        path = tmp_path_factory.mktemp("prop") / "ds.jsonl"
        save_dataset_jsonl(dataset, path)
        loaded = load_dataset_jsonl(path)
        assert loaded.articles == dataset.articles
        assert loaded.venues == dataset.venues
        assert loaded.authors == dataset.authors


class TestRankingConsistency:
    @settings(max_examples=10, deadline=None)
    @given(dataset_strategy())
    def test_index_agrees_with_result_top(self, dataset):
        from repro.core.model import ArticleRanker
        from repro.query import RankIndex

        result = ArticleRanker().rank(dataset)
        index = RankIndex(dataset, result.by_id())
        k = min(5, dataset.num_articles)
        assert [entry.article_id for entry in index.top(k)] == \
            [article_id for article_id, _ in result.top(k)]

    @settings(max_examples=10, deadline=None)
    @given(dataset_strategy())
    def test_model_scores_bounded(self, dataset):
        from repro.core.model import ArticleRanker

        result = ArticleRanker().rank(dataset)
        # Rank normalization bounds the blend into [0, 1].
        assert (result.scores >= -1e-12).all()
        assert (result.scores <= 1.0 + 1e-12).all()


class TestMetricBounds:
    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 30),
                           st.floats(0, 1, allow_nan=False),
                           min_size=4, max_size=30),
           st.integers(1, 10))
    def test_ndcg_and_recall_bounded(self, scores, k):
        from repro.eval.metrics import ndcg_at_k, recall_at_k

        ids = sorted(scores)
        relevance = {i: float(abs(hash(i)) % 5) for i in ids}
        value = ndcg_at_k(scores, relevance, k)
        assert 0.0 <= value <= 1.0 + 1e-12
        recall = recall_at_k(scores, set(ids[:2]), k)
        assert 0.0 <= recall <= 1.0
