"""Top-k retrieval over a precomputed article ranking.

:class:`RankIndex` materializes one ranking (article id -> score) into
sorted arrays plus venue/author/year posting lists, supporting the read
operations a scholarly search backend issues against a query-independent
score: global top-k, filtered top-k (venue, author, year range),
pagination, and per-article rank/percentile lookups.

All reads are O(k + log n) against immutable numpy arrays; rebuilding
after a re-rank is one constructor call, numpy sorts over
:class:`~repro.core.columns.ArticleColumns` with no per-article Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterator, List, Mapping, Optional, Tuple,
                    Union)

import numpy as np

from repro.errors import ConfigError, NodeNotFoundError
from repro.core.columns import ArticleColumns
from repro.data.schema import ScholarlyDataset
from repro.graph.csr import positions_in, stable_order
from repro.graph.toposort import ragged_offsets


@dataclass(frozen=True)
class RankEntry:
    """One row of a ranking result list."""

    rank: int
    article_id: int
    score: float
    year: int
    title: str


def _postings(keys: np.ndarray, positions: np.ndarray,
              table: np.ndarray) -> Dict[int, np.ndarray]:
    """``table[key]`` -> the ``positions`` carrying ``key``, for every
    key in use (``-1`` is no key).

    ``positions`` ascend and the sort is stable, so every list ascends
    too: filtered iteration stays best-first and filter intersection
    may assume sorted unique input. The lists are views of one array.
    """
    keyed = keys >= 0
    keys, positions = keys[keyed], positions[keyed]
    grouped = positions[stable_order(keys, len(table))]
    sizes = np.bincount(keys, minlength=len(table))
    stops = np.cumsum(sizes)
    used = np.flatnonzero(sizes)
    return dict(zip(table[used].tolist(), map(
        grouped.__getitem__,
        map(slice, (stops - sizes)[used].tolist(), stops[used].tolist()))))


class RankIndex:
    """Immutable serving index over one ranking of one dataset."""

    def __init__(self, dataset: ScholarlyDataset,
                 scores: Union[Mapping[int, float], np.ndarray],
                 ids: Optional[np.ndarray] = None,
                 columns: Optional[ArticleColumns] = None) -> None:
        """Build the index.

        ``scores`` is a mapping article id -> score, or a float array
        aligned with the id array ``ids``; it must cover exactly the
        articles of ``dataset`` (a mismatched ranking is a bug worth
        failing on). ``columns`` are the dataset's :class:`ArticleColumns`
        where the caller maintains them (a shard does), else built here.
        """
        if ids is None:
            ids = np.fromiter(scores.keys(), dtype=np.int64,
                              count=len(scores))
            scores = np.fromiter(scores.values(), dtype=np.float64,
                                 count=len(ids))
        if columns is None:
            columns = ArticleColumns.from_articles(
                dataset.articles.values())
        order = np.lexsort((ids, -scores))
        rows = positions_in(columns.article_ids, ids)[order]
        self._dataset = dataset
        self._ids = ids[order]
        self._scores = scores[order]
        self._rank_of: Dict[int, int] = dict(zip(self._ids.tolist(),
                                                 range(len(ids))))
        if not len(ids) == len(self._rank_of) == len(columns.article_ids) \
                or (rows < 0).any():
            raise ConfigError(
                "scores must cover exactly the dataset's articles")
        self._years = columns.years[rows]
        # Sort keys for binary search in global order (-score, id):
        # used by the sharded gateway to turn a shard-local hit into a
        # global rank without shipping whole rankings.
        self._neg_scores = -self._scores

        teams = np.diff(columns.author_indptr)[rows]
        authorships = np.repeat(columns.author_indptr[:-1][rows], teams) \
            + ragged_offsets(teams)
        self._by_venue = _postings(columns.venue_of[rows],
                                   np.arange(len(rows)), columns.venue_ids)
        self._by_author = _postings(
            columns.author_of[authorships],
            np.repeat(np.arange(len(rows)), teams), columns.author_ids)

    # ------------------------------------------------------------------
    # lookups

    def __len__(self) -> int:
        return len(self._ids)

    def rank_of(self, article_id: int) -> int:
        """1-based rank of an article (1 = best)."""
        try:
            return self._rank_of[int(article_id)] + 1
        except KeyError:
            raise NodeNotFoundError(int(article_id)) from None

    def score_of(self, article_id: int) -> float:
        return float(self._scores[self.rank_of(article_id) - 1])

    def percentile(self, article_id: int) -> float:
        """Fraction of the corpus this article outranks (0..1]."""
        rank = self.rank_of(article_id)
        return 1.0 - (rank - 1) / len(self._ids)

    def count_ranked_above(self, score: float, article_id: int) -> int:
        """Articles strictly ahead of ``(score, article_id)`` globally.

        "Ahead" uses the index's total order: higher score first, ties
        broken by ascending article id. The probe article need not be
        in this index — shards use this to compute an article's global
        rank as ``1 + sum(count_ranked_above(...) per shard)``.
        O(log n) via binary search on the sorted arrays.
        """
        lo = int(np.searchsorted(self._neg_scores, -score, side="left"))
        hi = int(np.searchsorted(self._neg_scores, -score, side="right"))
        # Everything before `lo` has a strictly higher score; within the
        # tie run [lo, hi) ids ascend, so ids below the probe's are
        # ahead of it.
        return lo + int(np.searchsorted(self._ids[lo:hi], article_id,
                                        side="left"))

    # ------------------------------------------------------------------
    # retrieval

    def _entry(self, position: int, rank: int) -> RankEntry:
        article_id = int(self._ids[position])
        article = self._dataset.articles[article_id]
        return RankEntry(rank=rank, article_id=article_id,
                         score=float(self._scores[position]),
                         year=article.year, title=article.title)

    def top(self, k: int = 10, venue_id: Optional[int] = None,
            author_id: Optional[int] = None,
            year_range: Optional[Tuple[int, int]] = None
            ) -> List[RankEntry]:
        """Best ``k`` articles matching every given filter.

        Returned ``rank`` values are positions *within the filtered
        list* (1-based). Filters compose (AND semantics).
        """
        if k <= 0:
            raise ConfigError("k must be positive")
        if venue_id is None and author_id is None and year_range is None:
            return self._slice(0, k)
        results: List[RankEntry] = []
        for rank, position in enumerate(
                self._filtered_positions(venue_id, author_id, year_range),
                start=1):
            results.append(self._entry(position, rank))
            if len(results) >= k:
                break
        return results

    def page(self, offset: int, limit: int) -> List[RankEntry]:
        """Global ranking slice ``[offset, offset+limit)`` (0-based)."""
        if offset < 0 or limit <= 0:
            raise ConfigError("offset must be >= 0 and limit positive")
        return self._slice(offset, offset + limit)

    def _slice(self, start: int, stop: int) -> List[RankEntry]:
        """Unfiltered entries ``[start, stop)``, one ``tolist`` each."""
        articles = self._dataset.articles
        return [RankEntry(rank, article_id, score,
                          articles[article_id].year,
                          articles[article_id].title)
                for rank, (article_id, score) in enumerate(
                    zip(self._ids[start:stop].tolist(),
                        self._scores[start:stop].tolist()), start + 1)]

    def _filtered_positions(self, venue_id: Optional[int],
                            author_id: Optional[int],
                            year_range: Optional[Tuple[int, int]]
                            ) -> Iterator[int]:
        """Positions in score order matching the filters."""
        if year_range is not None and year_range[0] > year_range[1]:
            raise ConfigError("year_range must be (low, high)")

        empty = np.zeros(0, dtype=np.int64)
        candidates: Optional[np.ndarray] = None
        if venue_id is not None:
            candidates = self._by_venue.get(venue_id, empty)
        if author_id is not None:
            author_positions = self._by_author.get(author_id, empty)
            if candidates is None:
                candidates = author_positions
            else:
                # Both posting lists are sorted and duplicate-free;
                # intersect1d keeps the ascending (= best-score-first)
                # order.
                candidates = np.intersect1d(candidates, author_positions,
                                            assume_unique=True)

        positions = candidates if candidates is not None \
            else range(len(self._ids))
        for position in positions:
            if year_range is not None:
                year = int(self._years[position])
                if not year_range[0] <= year <= year_range[1]:
                    continue
            yield int(position)
