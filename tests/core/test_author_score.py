"""Author-importance aggregation tests."""

import numpy as np
import pytest

from repro.errors import ConfigError, DatasetError
from repro.core.author_score import author_importance, team_feature
from repro.core.columns import ArticleColumns
from repro.data.schema import Article, Author, ScholarlyDataset


@pytest.fixture()
def importance_map(tiny_dataset):
    return {0: 1.0, 1: 0.8, 2: 0.2, 3: 0.4, 4: 0.6}


class TestAuthorImportance:
    def test_mean(self, tiny_dataset, importance_map):
        scores = author_importance(tiny_dataset, importance_map, "mean")
        # Ada (0): articles 0, 1 -> (1.0 + 0.8) / 2
        assert scores[0] == pytest.approx(0.9)
        # Bob (1): articles 1, 2, 4 -> (0.8 + 0.2 + 0.6) / 3
        assert scores[1] == pytest.approx(1.6 / 3)
        # Cy (2): articles 3, 4 -> (0.4 + 0.6) / 2
        assert scores[2] == pytest.approx(0.5)

    def test_sum(self, tiny_dataset, importance_map):
        scores = author_importance(tiny_dataset, importance_map, "sum")
        assert scores[0] == pytest.approx(1.8)
        assert scores[1] == pytest.approx(1.6)

    def test_max(self, tiny_dataset, importance_map):
        scores = author_importance(tiny_dataset, importance_map, "max")
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.8)

    def test_author_without_articles_scores_zero(self, tiny_dataset,
                                                 importance_map):
        tiny_dataset.add_author(Author(id=9, name="Idle"))
        scores = author_importance(tiny_dataset, importance_map, "mean")
        assert scores[9] == 0.0

    def test_unknown_mode(self, tiny_dataset, importance_map):
        with pytest.raises(ConfigError):
            author_importance(tiny_dataset, importance_map, "median")

    def test_missing_importance_raises(self, tiny_dataset):
        with pytest.raises(DatasetError, match="missing from importance"):
            author_importance(tiny_dataset, {0: 1.0}, "mean")

    def test_unknown_author_raises(self, importance_map):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=0, title="x", year=2000,
                                    author_ids=(42,)))
        with pytest.raises(DatasetError, match="unknown author"):
            author_importance(dataset, {0: 1.0}, "mean")


class TestArticleAuthorFeature:
    """:func:`team_feature` over :class:`ArticleColumns` (the kernel
    behind the model's author feature)."""

    def test_mean_over_team(self, tiny_dataset, importance_map):
        author_scores = author_importance(tiny_dataset, importance_map,
                                          "mean")
        columns = ArticleColumns.from_dataset(tiny_dataset)
        feature = team_feature(columns, np.array(
            [author_scores[a] for a in columns.author_ids.tolist()]))
        # Article 1 authored by Ada and Bob.
        expected = (author_scores[0] + author_scores[1]) / 2
        assert feature[1] == pytest.approx(expected)

    def test_authorless_articles_get_mean_fill(self, importance_map):
        dataset = ScholarlyDataset()
        dataset.add_author(Author(id=0, name="Solo"))
        dataset.add_article(Article(id=0, title="a", year=2000,
                                    author_ids=(0,)))
        dataset.add_article(Article(id=1, title="b", year=2001))
        feature = team_feature(ArticleColumns.from_dataset(dataset),
                               np.array([0.7]))
        assert feature[0] == pytest.approx(0.7)
        assert feature[1] == pytest.approx(0.7)  # filled with mean

    def test_all_authorless(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=0, title="a", year=2000))
        feature = team_feature(ArticleColumns.from_dataset(dataset),
                               np.zeros(0))
        assert feature[0] == 0.0
