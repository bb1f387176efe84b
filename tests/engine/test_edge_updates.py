"""Citation-insertion (edge) update tests."""

import pytest

from repro.errors import DatasetError
from repro.engine.incremental import IncrementalEngine
from repro.engine.updates import UpdateBatch, apply_update, \
    fraction_update
from repro.data.schema import Article


class TestApplyCitationUpdate:
    def test_adds_reference(self, tiny_dataset):
        batch = UpdateBatch(articles=(), citations=((3, 0),))
        updated = apply_update(tiny_dataset, batch)
        assert 0 in updated.articles[3].references
        assert 0 not in tiny_dataset.articles[3].references  # untouched

    def test_duplicate_citation_noop(self, tiny_dataset):
        batch = UpdateBatch(articles=(), citations=((1, 0),))
        updated = apply_update(tiny_dataset, batch)
        assert updated.articles[1].references == \
            tiny_dataset.articles[1].references

    def test_unknown_endpoints_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError, match="unknown article"):
            apply_update(tiny_dataset,
                         UpdateBatch(articles=(), citations=((99, 0),)))
        with pytest.raises(DatasetError, match="unknown article"):
            apply_update(tiny_dataset,
                         UpdateBatch(articles=(), citations=((0, 99),)))

    def test_self_citation_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError, match="self-citation"):
            apply_update(tiny_dataset,
                         UpdateBatch(articles=(), citations=((1, 1),)))

    def test_citation_to_new_article_in_same_batch(self, tiny_dataset):
        batch = UpdateBatch(
            articles=(Article(id=10, title="n", year=2012),),
            citations=((10, 0),))
        updated = apply_update(tiny_dataset, batch)
        assert updated.articles[10].references == (0,)

    def test_counts_include_citations(self):
        batch = UpdateBatch(articles=(), citations=((1, 2), (3, 4)))
        assert batch.num_citations == 2


class TestIncrementalEdgeUpdates:
    @pytest.fixture()
    def engine(self, medium_dataset):
        base, _ = fraction_update(medium_dataset, 0.02)
        return IncrementalEngine(base, delta_threshold=1e-4), base

    def test_edge_only_update_tracked(self, engine):
        eng, base = engine
        ids = sorted(base.articles)
        pairs = tuple((ids[-(k + 1)], ids[k]) for k in range(20)
                      if ids[k] not in
                      base.articles[ids[-(k + 1)]].references)
        report = eng.apply(UpdateBatch(articles=(), citations=pairs))
        assert report.converged
        assert report.affected.fraction > 0
        assert eng.error_vs_exact() < 1e-3

    def test_graph_gains_edges(self, engine):
        eng, base = engine
        before = eng.graph.num_edges
        ids = sorted(base.articles)
        citing, cited = ids[-1], ids[0]
        assert cited not in base.articles[citing].references
        eng.apply(UpdateBatch(articles=(), citations=((citing, cited),)))
        assert eng.graph.num_edges == before + 1

    def test_mixed_update(self, engine):
        eng, base = engine
        ids = sorted(base.articles)
        new_id = ids[-1] + 1
        _, max_year = base.year_range()
        batch = UpdateBatch(
            articles=(Article(id=new_id, title="mix", year=max_year + 1,
                              references=(ids[0],)),),
            citations=((ids[-1], ids[1]),))
        report = eng.apply(batch)
        assert report.converged
        assert eng.dataset.num_articles == base.num_articles + 1
        assert eng.error_vs_exact() < 1e-3

    def test_changed_source_in_seeds(self, engine):
        eng, base = engine
        ids = sorted(base.articles)
        citing, cited = ids[-1], ids[0]
        report = eng.apply(
            UpdateBatch(articles=(), citations=((citing, cited),)))
        citing_index = eng.graph.index_of(citing)
        assert citing_index in report.affected.seeds.tolist()

    def test_cite_repeating_an_arriving_reference_adds_no_edge(
            self, tiny_dataset):
        # The dataset treats a citation its citing article already
        # holds as a no-op; the appended graph must too, also when the
        # citing article arrives in the same batch and when the batch
        # repeats the pair. (It used to gain a parallel edge.)
        import numpy as np

        eng = IncrementalEngine(tiny_dataset)
        eng.apply(UpdateBatch(
            articles=(Article(id=10, title="n", year=2012,
                              references=(0,)),),
            citations=((10, 0), (10, 1), (10, 1))))
        assert eng.dataset.articles[10].references == (0, 1)
        rebuilt = eng.dataset.citation_csr()
        assert np.array_equal(eng.graph.indptr, rebuilt.indptr)
        assert np.array_equal(eng.graph.indices, rebuilt.indices)
