"""Exactness of the columnar feature builders.

The model's venue and author features, rank normalisation and the live
engine's maintained :class:`ArticleColumns` replaced per-article Python
walks. The walks live on *here*, as short references: every array
kernel must reproduce them — bit for bit where the arithmetic is
unchanged (normalisation, popularity, venue aggregation: same additions
in the same order), to ``1e-12`` with an identical ranking where only
the accumulation order moved (author means now sum in node order, the
walk summed in ``dataset.articles`` order).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.columns import ArticleColumns, positions_in
from repro.core.importance import combine_importance, normalize_scores
from repro.core.model import ArticleRanker, RankerConfig
from repro.core.time_weight import exponential_decay
from repro.data.schema import Article, Author, ScholarlyDataset, Venue
from repro.engine.live import LiveRanker
from repro.engine.updates import UpdateBatch
from repro.graph.csr import CSRGraph
from repro.ranking.pagerank import pagerank
from repro.resilience import FaultPlan
from repro.serve import RankingService

FIELDS = ("article_ids", "years", "venue_of", "author_indptr",
          "author_of", "venue_ids", "author_ids")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_same_columns(left: ArticleColumns, right: ArticleColumns):
    for name in FIELDS:
        assert np.array_equal(getattr(left, name), getattr(right, name)), \
            name


# ----------------------------------------------------------------------
# the dict-walking references

def walk_rank_normalisation(scores):
    values = np.asarray(scores, dtype=np.float64)
    peak = np.abs(values).max()
    if peak > 0:
        values = np.round(values / peak, 9)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(len(values), dtype=np.float64)
    sorted_values = values[order]
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or sorted_values[stop] != sorted_values[start]:
            ranks[order[start:stop]] = 0.5 * (start + stop - 1)
            start = stop
    return np.ones(1) if len(values) == 1 else ranks / (len(values) - 1)


def _decayed(kernel, value):
    return float(kernel(np.asarray([float(value)]))[0])


def walk_popularity(dataset, graph, observation, config):
    kernel = exponential_decay(config.popularity_decay)
    articles = [dataset.articles[int(node)] for node in graph.node_ids]
    scores = [0.0] * graph.num_nodes
    for citing, cited, _ in graph.edges():
        scores[cited] += _decayed(kernel,
                                  observation - articles[citing].year)
    return np.asarray(scores)


def walk_venue_feature(dataset, graph, observation, config):
    """Edge by edge into dicts, then article by article."""
    venue_ids = sorted(dataset.venues)
    index = {venue: i for i, venue in enumerate(venue_ids)}
    articles = [dataset.articles[int(node)] for node in graph.node_ids]
    prestige_kernel = exponential_decay(config.prestige_decay)
    popularity_kernel = exponential_decay(config.popularity_decay)
    weights, popularity = {}, [0.0] * len(venue_ids)
    for u, v, _ in graph.edges():
        citing, cited = articles[u], articles[v]
        src, dst = index.get(citing.venue_id), index.get(cited.venue_id)
        if dst is not None:
            popularity[dst] += _decayed(popularity_kernel,
                                        observation - citing.year)
        if src is None or dst is None or src == dst:
            continue
        weights[src, dst] = weights.get((src, dst), 0.0) + _decayed(
            prestige_kernel, max(citing.year - cited.year, 0))
    pairs = sorted(weights)
    venue_graph = CSRGraph.from_edges(
        [(venue_ids[src], venue_ids[dst]) for src, dst in pairs],
        nodes=venue_ids, weights=[weights[pair] for pair in pairs])
    prestige = pagerank(venue_graph, damping=config.damping,
                        tol=config.tol, max_iter=config.max_iter).scores
    importance = combine_importance(
        prestige, np.asarray(popularity), theta=config.theta,
        normalization=config.normalization)
    present = [importance[index[article.venue_id]] for article in articles
               if article.venue_id is not None]
    fill = float(np.asarray(present).mean()) if present else 0.0
    return np.asarray([fill if article.venue_id is None
                       else importance[index[article.venue_id]]
                       for article in articles])


def walk_author_feature(dataset, graph, importance, mode):
    """Per-author lists in ``dataset.articles`` order, then teams."""
    by_id = dict(zip(graph.node_ids.tolist(), importance.tolist()))
    written = {author: [] for author in dataset.authors}
    for article in dataset.articles.values():
        for author in article.author_ids:
            written[author].append(by_id[article.id])
    aggregate = {"mean": lambda v: sum(v) / len(v), "sum": sum,
                 "max": max}[mode]
    score = {author: aggregate(values) if values else 0.0
             for author, values in written.items()}
    teams = [dataset.articles[int(node)].author_ids
             for node in graph.node_ids]
    feature = np.asarray([sum(score[a] for a in team) / len(team)
                          if team else np.nan for team in teams])
    if np.isnan(feature).any() and not np.isnan(feature).all():
        feature[np.isnan(feature)] = float(
            feature[~np.isnan(feature)].mean())
    return np.nan_to_num(feature)


# ----------------------------------------------------------------------
# generated corpora: a base and a stream of batches

VENUE_IDS = (3, 8, 21, 40, 55)
AUTHOR_IDS = (1, 4, 9, 16, 25, 36, 49)


@st.composite
def streams(draw):
    """``(base, batches)``: venue-less and author-less articles, tied
    years, entities registered by the batch that first mentions them
    (so a venue or author may arrive mid-stream with an id *below*
    registered ones), and late cites between present articles."""
    n = draw(st.integers(4, 22))
    gaps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ids = np.cumsum(gaps).tolist()
    year = 2000
    articles = []
    for position, article_id in enumerate(ids):
        year += draw(st.integers(0, 2))
        articles.append(Article(
            id=article_id, title=f"t{article_id}", year=year,
            venue_id=draw(st.one_of(st.none(),
                                    st.sampled_from(VENUE_IDS))),
            author_ids=tuple(draw(st.lists(
                st.sampled_from(AUTHOR_IDS), max_size=3, unique=True))),
            references=tuple(draw(st.lists(
                st.sampled_from(ids[:position]), max_size=4,
                unique=True))) if position else ()))
    cuts = sorted(draw(st.sets(st.integers(2, n - 1), max_size=3)))
    chunks = [articles[start:stop] for start, stop
              in zip([0] + cuts, cuts + [n])]
    base = ScholarlyDataset(name="base")
    known_venues, known_authors = set(), set()

    def register(chunk):
        venues = {a.venue_id for a in chunk} - known_venues - {None}
        authors = {x for a in chunk for x in a.author_ids} - known_authors
        known_venues.update(venues)
        known_authors.update(authors)
        return (tuple(Venue(id=v, name=f"v{v}") for v in sorted(venues)),
                tuple(Author(id=a, name=f"a{a}")
                      for a in sorted(authors)))

    venues, authors = register(chunks[0])
    for venue in venues:
        base.add_venue(venue)
    for author in authors:
        base.add_author(author)
    for article in chunks[0]:
        base.add_article(article)
    batches, present = [], [a.id for a in chunks[0]]
    for chunk in chunks[1:]:
        cites = draw(st.lists(st.tuples(
            st.sampled_from(present), st.sampled_from(present)).filter(
                lambda pair: pair[0] > pair[1]), max_size=3)) \
            if len(present) > 1 else []
        venues, authors = register(chunk)
        batches.append(UpdateBatch(
            articles=tuple(chunk), venues=venues, authors=authors,
            citations=tuple(cites)))
        present += [a.id for a in chunk]
    return base, batches


def final_dataset(stream):
    """The streamed corpus, its articles re-inserted newest first: the
    walks follow ``dataset.articles`` order, the kernels node order."""
    base, batches = stream
    live = LiveRanker(base)
    for batch in batches:
        live.apply(batch)
    dataset = ScholarlyDataset(name="final")
    dataset.venues.update(live.dataset.venues)
    dataset.authors.update(live.dataset.authors)
    for article_id in sorted(live.dataset.articles, reverse=True):
        dataset.add_article(live.dataset.articles[article_id])
    return dataset


# ----------------------------------------------------------------------

class TestKernelsAgainstTheWalks:
    @SETTINGS
    @given(st.lists(st.sampled_from([0.0, 1e-12, 0.25, 0.25 + 1e-13,
                                     0.5, 3.0, 7.5]),
                    min_size=1, max_size=40))
    def test_rank_normalisation_is_bit_identical(self, scores):
        assert np.array_equal(normalize_scores(np.asarray(scores), "rank"),
                              walk_rank_normalisation(scores))

    @SETTINGS
    @given(streams(), st.sampled_from(["mean", "sum", "max"]))
    def test_features_match_the_dict_walks(self, stream, mode):
        dataset = final_dataset(stream)
        config = RankerConfig(author_mode=mode)
        result = ArticleRanker(config).rank(dataset)
        graph = dataset.citation_csr()
        observation = max(a.year for a in dataset.articles.values())
        assert np.array_equal(
            result.components["article_popularity"],
            walk_popularity(dataset, graph, observation, config))
        if dataset.num_venues:
            assert np.array_equal(
                result.components["venue_feature"],
                walk_venue_feature(dataset, graph, observation, config))
        if dataset.num_authors:
            walked = walk_author_feature(
                dataset, graph, result.components["article_importance"],
                mode)
            feature = result.components["author_feature"]
            np.testing.assert_allclose(feature, walked, rtol=0,
                                       atol=1e-12)
            assert np.array_equal(
                np.lexsort((graph.node_ids, -normalize_scores(
                    feature, "rank"))),
                np.lexsort((graph.node_ids, -normalize_scores(
                    walked, "rank"))))

    def test_positions_in(self):
        table = np.asarray([2, 5, 9])
        assert positions_in(table, [9, 2, 3, 11, 5, 1]).tolist() \
            == [2, 0, -1, -1, 1, -1]
        assert positions_in(np.zeros(0, dtype=np.int64),
                            [4]).tolist() == [-1]


class TestMaintainedColumns:
    @SETTINGS
    @given(streams())
    def test_live_columns_equal_a_cold_rebuild(self, stream):
        base, batches = stream
        live = LiveRanker(base)
        cold = ArticleRanker(live.config)
        for batch in batches:
            result, _ = live.apply(batch)
            engine = live._engine
            assert_same_columns(engine.columns,
                                ArticleColumns.from_dataset(live.dataset))
            assert engine.years is engine.columns.years
            # Cold = "everything is new": same builders, same scores.
            rebuilt = cold.rank_with_prestige(live.dataset, engine.scores)
            assert np.array_equal(result.scores, rebuilt.scores)
            for name, component in result.components.items():
                assert np.array_equal(component,
                                      rebuilt.components[name]), name

    def test_out_of_order_article_ids_rebuild(self, tiny_dataset):
        tiny_dataset.add_article(Article(id=9, title="late", year=2011,
                                         venue_id=1, author_ids=(2,)))
        live = LiveRanker(tiny_dataset)
        assert live._engine.columns.appended(
            [Article(id=7, title="gap", year=2011)]) is None
        live.apply(UpdateBatch(articles=(
            Article(id=7, title="gap", year=2011, venue_id=0,
                    author_ids=(0,), references=(4,)),)))
        assert_same_columns(live._engine.columns,
                            ArticleColumns.from_dataset(live.dataset))

    def test_vetoed_batch_rolls_the_columns_back(self, small_dataset):
        from repro.engine.updates import yearly_updates
        base, batches = yearly_updates(small_dataset, from_year=2012)
        live = LiveRanker(base)
        service = RankingService(live,
                                 fault_plan=FaultPlan.of("batch:nan:0"))
        before = live._engine.columns
        assert service.ingest(batches[0]).status == "quarantined"
        assert live._engine.columns is before
        assert live._engine.years is before.years
        assert service.ingest(batches[1]).status == "published"
        assert_same_columns(live._engine.columns,
                            ArticleColumns.from_dataset(live.dataset))

    def test_resume_rebuilds_columns_and_ranks_identically(
            self, small_dataset, tmp_path):
        from repro.engine.updates import yearly_updates
        base, batches = yearly_updates(small_dataset, from_year=2011)
        live = LiveRanker(base, checkpoint_dir=tmp_path)
        for batch in batches[:2]:
            live.apply(batch)
        live.checkpoint()
        resumed = LiveRanker.resume(tmp_path)
        assert_same_columns(resumed._engine.columns,
                            live._engine.columns)
        assert np.array_equal(resumed.result.scores, live.result.scores)
        expected, _ = live.apply(batches[2])
        result, _ = resumed.apply(batches[2])
        assert np.array_equal(result.scores, expected.scores)


class TestVenueDiagnosticsOnTheEarlyReturn:
    """``venue_converged`` used to be missing whenever the venue stage
    had nothing to solve; the cold benchmark indexes it."""

    def test_venue_less_corpus(self):
        dataset = ScholarlyDataset()
        dataset.add_author(Author(id=0, name="a"))
        for article_id in range(3):
            dataset.add_article(Article(
                id=article_id, title="t", year=2000 + article_id,
                author_ids=(0,), references=tuple(range(article_id))))
        diagnostics = ArticleRanker().rank(dataset).diagnostics
        assert diagnostics["venue_converged"] is True
        assert diagnostics["venue_iterations"] == 0

    def test_no_venue_ablation(self, tiny_dataset):
        ranker = ArticleRanker(RankerConfig(weight_venue=0.0))
        result = ranker.rank(tiny_dataset)
        assert result.diagnostics["venue_converged"] is True
        assert not result.components["venue_feature"].any()


@pytest.mark.parametrize("shuffled", [False, True])
def test_index_build_is_order_independent(small_dataset, shuffled):
    """The array path of ``RankIndex`` against its mapping path."""
    from repro.query import RankIndex
    result = ArticleRanker().rank(small_dataset)
    order = np.random.default_rng(5).permutation(len(result.node_ids)) \
        if shuffled else np.arange(len(result.node_ids))
    arrays = RankIndex(small_dataset, result.scores[order],
                       ids=result.node_ids[order],
                       columns=ArticleColumns.from_dataset(small_dataset))
    mapping = RankIndex(small_dataset, result.by_id())
    assert arrays.top(50) == mapping.top(50)
    for venue in list(small_dataset.venues)[:4]:
        assert arrays.top(20, venue_id=venue) \
            == mapping.top(20, venue_id=venue)
    author = next(iter(small_dataset.authors))
    assert arrays.top(20, author_id=author, year_range=(1995, 2014)) \
        == mapping.top(20, author_id=author, year_range=(1995, 2014))
    assert arrays.page(100, 30) == mapping.page(100, 30)
