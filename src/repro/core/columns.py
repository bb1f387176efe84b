"""The article table as node-aligned numpy columns.

Venue and author features and the serving index's posting lists need,
per article, its year, venue and author team. :class:`ArticleColumns`
reads them off the articles in one walk (``from_articles``) and then
grows by the arriving articles only (``appended``), so a publish costs
O(batch) Python plus numpy kernels over the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from repro.data.schema import Article, ScholarlyDataset
from repro.graph.csr import positions_in, unique_ids

_NO_VENUE = np.iinfo(np.int64).min


def _ints(values: Iterable[int], count: int = -1) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64, count=count)


def _grown(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table`` with the ``ids`` it lacks (itself when it lacks none)."""
    fresh = np.unique(ids[positions_in(table, ids) < 0])
    return np.insert(table, np.searchsorted(table, fresh), fresh) \
        if fresh.size else table


def _rebased(index: np.ndarray, old: np.ndarray,
             new: np.ndarray) -> np.ndarray:
    """``index`` into table ``old`` re-pointed into table ``new``;
    ``-1`` stays, and so does an entry ``new`` does not hold."""
    if new is old:
        return index
    return np.append(positions_in(new, old), -1)[index]


@dataclass(frozen=True, eq=False)
class ArticleColumns:
    """Per-article attributes aligned with ascending article id (the
    node order of :meth:`ScholarlyDataset.citation_csr`). Frozen, and
    :meth:`appended` copies: a holder of an older value (the serving
    tier's rollback guard) keeps a consistent table.

    Attributes:
        article_ids / years: ``int64[n]``.
        venue_of: ``int64[n]`` index into ``venue_ids`` (``-1``: none,
            or a venue the table does not hold).
        author_indptr / author_of: article -> author CSR; ``author_of``
            indexes ``author_ids`` (``-1``: not in the table).
        venue_ids / author_ids: the ascending entity id tables.
    """

    article_ids: np.ndarray
    years: np.ndarray
    venue_of: np.ndarray
    author_indptr: np.ndarray
    author_of: np.ndarray
    venue_ids: np.ndarray
    author_ids: np.ndarray

    @classmethod
    def from_articles(cls, articles: Iterable[Article],
                      venue_ids: Optional[Iterable[int]] = None,
                      author_ids: Optional[Iterable[int]] = None
                      ) -> "ArticleColumns":
        """Columns of ``articles`` over the given entity id tables
        (default: the ids the articles mention)."""
        ordered = sorted(articles, key=attrgetter("id"))
        n = len(ordered)
        teams = [article.author_ids for article in ordered]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(_ints(map(len, teams), n), out=indptr[1:])
        authors = _ints(chain.from_iterable(teams), int(indptr[-1]))
        venues = _ints((_NO_VENUE if article.venue_id is None
                        else article.venue_id for article in ordered), n)
        venue_table = unique_ids(venues[venues != _NO_VENUE]
                                 if venue_ids is None else _ints(venue_ids))
        author_table = unique_ids(
            authors if author_ids is None else _ints(author_ids))
        return cls(
            article_ids=_ints((article.id for article in ordered), n),
            years=_ints((article.year for article in ordered), n),
            venue_of=positions_in(venue_table, venues),
            author_indptr=indptr,
            author_of=positions_in(author_table, authors),
            venue_ids=venue_table, author_ids=author_table)

    @classmethod
    def from_dataset(cls, dataset: ScholarlyDataset) -> "ArticleColumns":
        """Every article, over the dataset's registered venues/authors."""
        return cls.from_articles(dataset.articles.values(),
                                 dataset.venues, dataset.authors)

    def appended(self, articles: Iterable[Article],
                 venue_ids: Optional[Iterable[int]] = None,
                 author_ids: Optional[Iterable[int]] = None
                 ) -> Optional["ArticleColumns"]:
        """These columns plus ``articles``, the tables grown by the
        given entity ids (default: those the articles mention).

        Python work is O(len(articles)); the rest is array
        concatenation. ``None`` when an arriving id does not exceed
        every id present — the caller rebuilds from its dataset.
        """
        tail = ArticleColumns.from_articles(articles)
        if len(tail.article_ids) and len(self.article_ids) \
                and tail.article_ids[0] <= self.article_ids[-1]:
            return None
        venue_table = _grown(self.venue_ids, tail.venue_ids
                             if venue_ids is None else _ints(venue_ids))
        author_table = _grown(self.author_ids, tail.author_ids
                              if author_ids is None else _ints(author_ids))
        return ArticleColumns(
            article_ids=np.concatenate([self.article_ids,
                                        tail.article_ids]),
            years=np.concatenate([self.years, tail.years]),
            venue_of=np.concatenate([
                _rebased(self.venue_of, self.venue_ids, venue_table),
                _rebased(tail.venue_of, tail.venue_ids, venue_table)]),
            author_indptr=np.concatenate([
                self.author_indptr,
                self.author_indptr[-1] + tail.author_indptr[1:]]),
            author_of=np.concatenate([
                _rebased(self.author_of, self.author_ids, author_table),
                _rebased(tail.author_of, tail.author_ids, author_table)]),
            venue_ids=venue_table, author_ids=author_table)
