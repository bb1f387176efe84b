"""Schema and dataset-container tests."""

import random

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.data.schema import Article, Author, ScholarlyDataset, Venue
from repro.graph.csr import CSRGraph


class TestEntities:
    def test_article_tuples_coerced(self):
        article = Article(id=1, title="t", year=2000,
                          author_ids=[1, 2], references=[3])
        assert article.author_ids == (1, 2)
        assert article.references == (3,)

    def test_duplicate_article_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.add_article(Article(id=0, title="dup", year=2001))

    def test_duplicate_venue_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.add_venue(Venue(id=0, name="dup"))

    def test_duplicate_author_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.add_author(Author(id=0, name="dup"))


class TestCounts:
    def test_sizes(self, tiny_dataset):
        assert tiny_dataset.num_articles == 5
        assert tiny_dataset.num_venues == 2
        assert tiny_dataset.num_authors == 3
        assert tiny_dataset.num_citations == 5

    def test_year_range(self, tiny_dataset):
        assert tiny_dataset.year_range() == (2000, 2010)

    def test_year_range_empty_raises(self):
        with pytest.raises(DatasetError):
            ScholarlyDataset().year_range()

    def test_citations_ignore_dangling(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="a", year=2000,
                                    references=(99,)))
        assert dataset.num_citations == 0


class TestValidation:
    def test_valid_dataset(self, tiny_dataset):
        assert tiny_dataset.validate(strict=True) == []
        tiny_dataset.check(strict=True)

    def test_unknown_venue_reported(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="a", year=2000,
                                    venue_id=42))
        problems = dataset.validate()
        assert any("unknown venue" in p for p in problems)

    def test_unknown_author_reported(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="a", year=2000,
                                    author_ids=(9,)))
        assert any("unknown author" in p for p in dataset.validate())

    def test_self_citation_reported(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="a", year=2000,
                                    references=(1,)))
        assert any("self-citation" in p for p in dataset.validate())

    def test_dangling_only_strict(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="a", year=2000,
                                    references=(5,)))
        assert dataset.validate(strict=False) == []
        assert any("dangling" in p for p in dataset.validate(strict=True))

    def test_check_raises_with_summary(self):
        dataset = ScholarlyDataset(name="broken")
        dataset.add_article(Article(id=1, title="a", year=2000,
                                    venue_id=42))
        with pytest.raises(DatasetError, match="broken"):
            dataset.check()


def assert_same_csr(dataset):
    built = dataset.citation_csr()
    expected = CSRGraph.from_edges(dataset.citation_edges(),
                                   nodes=sorted(dataset.articles))
    for name in ("indptr", "indices", "weights", "node_ids"):
        assert getattr(built, name).dtype == getattr(expected, name).dtype
        assert np.array_equal(getattr(built, name),
                              getattr(expected, name)), name


class TestGraphViews:
    def test_citation_edges_direction(self, tiny_dataset):
        edges = set(tiny_dataset.citation_edges())
        assert (1, 0) in edges  # article 1 cites article 0
        assert (0, 1) not in edges

    def test_citation_graph(self, tiny_dataset):
        graph = tiny_dataset.citation_csr()
        assert graph.num_nodes == 5
        assert graph.num_edges == 5
        cited = graph.node_ids[graph.neighbors(graph.index_of(4))]
        assert 1 in cited.tolist()

    def test_citation_csr_id_order(self, tiny_dataset):
        csr = tiny_dataset.citation_csr()
        assert csr.node_ids.tolist() == [0, 1, 2, 3, 4]

    def test_dangling_and_self_refs_dropped(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="a", year=2000,
                                    references=(1, 99)))
        dataset.add_article(Article(id=2, title="b", year=2001,
                                    references=(1,)))
        graph = dataset.citation_csr()
        assert graph.num_edges == 1
        assert graph.neighbors(graph.index_of(1)).size == 0
        assert graph.node_ids[graph.neighbors(graph.index_of(2))].tolist() \
            == [1]

    @pytest.mark.parametrize("seed", range(4))
    def test_citation_csr_equals_the_edge_list_build(self, seed):
        """``citation_csr`` builds the arrays directly; the per-edge
        route through ``citation_edges`` is the reference."""
        rng = random.Random(seed)
        ids = rng.sample(range(1000), 60)  # insertion order is shuffled
        dataset = ScholarlyDataset()
        for position, article_id in enumerate(ids):
            references = rng.choices(ids + [5000, 5001, article_id],
                                     k=rng.choice([0, 0, 1, 4, 9]))
            if position % 7 == 0:  # duplicate references survive
                references += references[:2]
            dataset.add_article(Article(id=article_id, title="t",
                                        year=2000, references=references))
        assert_same_csr(dataset)
        built = dataset.citation_csr()
        assert built.num_edges == dataset.num_citations - sum(
            a.references.count(a.id) for a in dataset.articles.values())
        assert 0 < built.num_edges < sum(
            len(a.references) for a in dataset.articles.values())

    def test_citation_csr_without_edges_or_articles(self, tiny_dataset):
        assert_same_csr(ScholarlyDataset())
        assert_same_csr(tiny_dataset)
        lonely = ScholarlyDataset()
        lonely.add_article(Article(id=3, title="t", year=2000))
        lonely.add_article(Article(id=1, title="t", year=2000,
                                   references=(1, 77)))
        assert_same_csr(lonely)
        assert lonely.citation_csr().num_edges == 0

    def test_article_years_alignment(self, tiny_dataset):
        csr = tiny_dataset.citation_csr()
        years = tiny_dataset.article_years(csr)
        assert years.tolist() == [2000, 2003, 2005, 2008, 2010]

    def test_article_qualities(self, tiny_dataset):
        csr = tiny_dataset.citation_csr()
        qualities = tiny_dataset.article_qualities(csr)
        assert qualities.tolist() == [3.0, 2.0, 0.5, 1.0, 1.5]

    def test_missing_quality_raises(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="a", year=2000))
        dataset.add_article(Article(id=0, title="b", year=2001,
                                    quality=1.0))
        with pytest.raises(DatasetError, match="article 1 has no"):
            dataset.article_qualities()


class TestTemporalSlicing:
    def test_snapshot_until_trims_references(self, tiny_dataset):
        snap = tiny_dataset.snapshot_until(2005)
        assert set(snap.articles) == {0, 1, 2}
        assert snap.validate(strict=True) == []
        assert snap.num_citations == 2

    def test_snapshot_restricts_entities(self, tiny_dataset):
        snap = tiny_dataset.snapshot_until(2003)
        assert set(snap.venues) == {0}
        assert set(snap.authors) == {0, 1}

    def test_snapshot_name(self, tiny_dataset):
        assert tiny_dataset.snapshot_until(2005).name == "tiny@2005"
        assert tiny_dataset.snapshot_until(2005, name="x").name == "x"

    def test_articles_in_year(self, tiny_dataset):
        assert [a.id for a in tiny_dataset.articles_in_year(2005)] == [2]
        assert tiny_dataset.articles_in_year(1999) == []

    def test_snapshot_consistent_with_generator(self, small_dataset):
        min_year, max_year = small_dataset.year_range()
        mid = (min_year + max_year) // 2
        snap = small_dataset.snapshot_until(mid)
        assert snap.validate(strict=True) == []
        assert all(a.year <= mid for a in snap.articles.values())
        assert snap.num_articles < small_dataset.num_articles
