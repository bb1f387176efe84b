"""Cross-module integration tests: the full pipelines a user would run."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro import (
    ArticleRanker,
    IncrementalEngine,
    RankerConfig,
)
from repro.data.aminer import parse_aminer, write_aminer
from repro.data.io import load_dataset_jsonl, save_dataset_jsonl
from repro.data.ground_truth import build_ground_truth
from repro.engine.updates import yearly_updates
from repro.eval.protocol import evaluate_ranking
from repro.ranking.citation_count import citation_count
from repro.ranking.pagerank import pagerank


class TestBatchPipeline:
    def test_generate_rank_evaluate(self, medium_dataset):
        truth = build_ground_truth(medium_dataset, num_pairs=500, seed=2)
        result = ArticleRanker().rank(medium_dataset)
        report = evaluate_ranking(result.by_id(), truth)
        # The assembled model must clearly beat chance.
        assert report.pairwise > 0.6
        assert report.quality_spearman > 0.3

    def test_model_beats_static_baselines(self, medium_dataset):
        truth = build_ground_truth(medium_dataset, num_pairs=800, seed=4)
        graph = medium_dataset.citation_csr()
        ids = [int(i) for i in graph.node_ids]
        full = evaluate_ranking(
            ArticleRanker().rank(medium_dataset).by_id(), truth)
        pr = evaluate_ranking(
            dict(zip(ids, pagerank(graph).scores)), truth)
        cc = evaluate_ranking(
            dict(zip(ids, citation_count(graph))), truth)
        assert full.pairwise > pr.pairwise
        assert full.pairwise > cc.pairwise

    def test_rank_store_reload_rank(self, medium_dataset, tmp_path):
        result = ArticleRanker().rank(medium_dataset)
        save_dataset_jsonl(medium_dataset, tmp_path / "s.jsonl")
        reloaded = load_dataset_jsonl(tmp_path / "s.jsonl")
        again = ArticleRanker().rank(reloaded)
        assert [i for i, _ in again.top(10)] == \
            [i for i, _ in result.top(10)]

    def test_format_roundtrip_preserves_ranking(self, small_dataset,
                                                tmp_path):
        write_aminer(small_dataset, tmp_path / "a.txt")
        reparsed = parse_aminer(tmp_path / "a.txt")
        original = ArticleRanker().rank(small_dataset)
        roundtripped = ArticleRanker().rank(reparsed)
        rho = spearmanr(
            [original.by_id()[i] for i in sorted(small_dataset.articles)],
            [roundtripped.by_id()[i]
             for i in sorted(reparsed.articles)]).statistic
        assert rho > 0.9999


class TestDynamicPipeline:
    def test_incremental_tracks_batch(self, medium_dataset):
        _, max_year = medium_dataset.year_range()
        base, batches = yearly_updates(medium_dataset, max_year - 1)
        engine = IncrementalEngine(base, delta_threshold=1e-4)
        for batch in batches:
            engine.apply(batch)
        # Maintained prestige must match a cold batch solve closely where
        # it matters: small total error and an identical head of the
        # ranking. (Full-vector rank correlation is meaningless here —
        # the never-cited tail ties at (1-d)/n up to 1e-9 noise.)
        exact = engine.exact_scores()
        assert np.abs(engine.scores - exact).sum() < 5e-3
        top_maintained = set(np.argsort(-engine.scores)[:100].tolist())
        top_exact = set(np.argsort(-exact)[:100].tolist())
        assert len(top_maintained & top_exact) >= 95
        strong = exact > np.median(exact)
        rho = spearmanr(engine.scores[strong], exact[strong]).statistic
        assert rho > 0.99

    def test_snapshot_plus_updates_equals_direct(self, small_dataset):
        _, max_year = small_dataset.year_range()
        base, batches = yearly_updates(small_dataset, max_year - 1)
        engine = IncrementalEngine(base)
        for batch in batches:
            engine.apply(batch)
        assert engine.dataset.num_articles == small_dataset.num_articles
        assert engine.dataset.num_citations == \
            small_dataset.num_citations


class TestSolverConsistencyAcrossStack:
    @pytest.mark.parametrize("solver", ["power", "levels"])
    def test_model_invariant_to_solver(self, small_dataset, solver):
        reference = ArticleRanker(
            RankerConfig(solver="power")).rank(small_dataset)
        result = ArticleRanker(
            RankerConfig(solver=solver)).rank(small_dataset)
        assert np.abs(reference.scores - result.scores).max() < 1e-6
