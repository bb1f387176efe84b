"""Entity schema and the :class:`ScholarlyDataset` container.

A dataset is a consistent snapshot of three entity kinds — articles, venues,
authors — plus the citation relation carried on each article's
``references`` tuple. All cross-references inside a validated dataset
resolve; dangling references (citations to articles outside the snapshot,
ubiquitous in real dumps) are permitted on input and dropped when building
graphs, mirroring how the paper's datasets are preprocessed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.graph.csr import CSRGraph, positions_in


@dataclass(frozen=True)
class Article:
    """One scholarly article.

    ``quality`` is the generator's planted latent quality (ground-truth
    importance); it is ``None`` for real-world data.
    """

    id: int
    title: str
    year: int
    venue_id: Optional[int] = None
    author_ids: Tuple[int, ...] = ()
    references: Tuple[int, ...] = ()
    quality: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "author_ids", tuple(self.author_ids))
        object.__setattr__(self, "references", tuple(self.references))


@dataclass(frozen=True)
class Venue:
    """A publication venue (conference or journal)."""

    id: int
    name: str
    prestige: Optional[float] = None


@dataclass(frozen=True)
class Author:
    """An author of one or more articles."""

    id: int
    name: str


class ScholarlyDataset:
    """A snapshot of articles, venues and authors.

    The container is mutable only through :meth:`add_article` /
    :meth:`add_venue` / :meth:`add_author` (used by parsers, the generator
    and the dynamic-update machinery); everything else is read-only.
    """

    def __init__(self, name: str = "dataset") -> None:
        self.name = name
        self.articles: Dict[int, Article] = {}
        self.venues: Dict[int, Venue] = {}
        self.authors: Dict[int, Author] = {}

    # ------------------------------------------------------------------
    # construction

    def add_article(self, article: Article) -> None:
        if article.id in self.articles:
            raise DatasetError(f"duplicate article id {article.id}")
        self.articles[article.id] = article

    def add_venue(self, venue: Venue) -> None:
        if venue.id in self.venues:
            raise DatasetError(f"duplicate venue id {venue.id}")
        self.venues[venue.id] = venue

    def add_author(self, author: Author) -> None:
        if author.id in self.authors:
            raise DatasetError(f"duplicate author id {author.id}")
        self.authors[author.id] = author

    # ------------------------------------------------------------------
    # sizes

    @property
    def num_articles(self) -> int:
        return len(self.articles)

    @property
    def num_venues(self) -> int:
        return len(self.venues)

    @property
    def num_authors(self) -> int:
        return len(self.authors)

    @property
    def num_citations(self) -> int:
        """Count of resolvable citation edges (both endpoints present)."""
        return sum(1 for a in self.articles.values()
                   for ref in a.references if ref in self.articles)

    def year_range(self) -> Tuple[int, int]:
        """``(min_year, max_year)`` over all articles."""
        if not self.articles:
            raise DatasetError("dataset has no articles")
        years = [a.year for a in self.articles.values()]
        return min(years), max(years)

    # ------------------------------------------------------------------
    # validation

    def validate(self, strict: bool = False) -> List[str]:
        """Check internal consistency; return a list of problems found.

        Non-strict mode tolerates dangling references (normal in real
        dumps). Strict mode reports them too. Problems that are always
        errors: unknown venue/author ids, self-citations, citations of
        strictly newer articles by more than one year (impossible edges).
        """
        problems: List[str] = []
        for article in self.articles.values():
            if article.venue_id is not None \
                    and article.venue_id not in self.venues:
                problems.append(f"article {article.id}: unknown venue "
                                f"{article.venue_id}")
            for author_id in article.author_ids:
                if author_id not in self.authors:
                    problems.append(f"article {article.id}: unknown author "
                                    f"{author_id}")
            for ref in article.references:
                if ref == article.id:
                    problems.append(f"article {article.id}: self-citation")
                elif ref not in self.articles:
                    if strict:
                        problems.append(f"article {article.id}: dangling "
                                        f"reference {ref}")
        return problems

    def check(self, strict: bool = False) -> None:
        """Like :meth:`validate` but raise :class:`DatasetError` on issues."""
        problems = self.validate(strict=strict)
        if problems:
            preview = "; ".join(problems[:5])
            raise DatasetError(
                f"dataset {self.name!r} failed validation with "
                f"{len(problems)} problem(s): {preview}")

    # ------------------------------------------------------------------
    # graph views

    def citation_edges(self) -> Iterable[Tuple[int, int]]:
        """Yield resolvable ``(citing, cited)`` article-id pairs."""
        for article in self.articles.values():
            for ref in article.references:
                if ref in self.articles and ref != article.id:
                    yield article.id, ref

    def citation_csr(self) -> CSRGraph:
        """Immutable CSR snapshot of the citation graph.

        Node index order is ascending article id, so aligned attribute
        arrays from :meth:`article_years` can be used directly.
        """
        ids = sorted(self.articles)
        node_ids = np.asarray(ids, dtype=np.int64)
        references = [self.articles[i].references for i in ids]
        counts = np.fromiter(map(len, references), dtype=np.int64,
                             count=len(ids))
        cited = np.fromiter(chain.from_iterable(references),
                            dtype=np.int64, count=int(counts.sum()))
        citing = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        # Grouped by citing article, reference-tuple order within: the
        # CSR order. Drop dangling and self references.
        indices = positions_in(node_ids, cited)
        keep = (indices >= 0) & (indices != citing)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(citing[keep], minlength=len(ids)),
                  out=indptr[1:])
        indices = indices[keep]
        return CSRGraph(indptr, indices, np.ones(len(indices)), node_ids)

    def article_years(self, graph: Optional[CSRGraph] = None) -> np.ndarray:
        """``int64[n]`` publication year aligned with CSR node indices."""
        ids = graph.node_ids.tolist() if graph is not None \
            else sorted(self.articles)
        return np.fromiter((self.articles[i].year for i in ids),
                           dtype=np.int64, count=len(ids))

    def article_qualities(self,
                          graph: Optional[CSRGraph] = None) -> np.ndarray:
        """``float64[n]`` planted quality aligned with CSR node indices.

        Raises :class:`DatasetError` when any article lacks a quality
        (real-world data has none).
        """
        ids = graph.node_ids.tolist() if graph is not None \
            else sorted(self.articles)

        def quality(article_id: int) -> float:
            value = self.articles[article_id].quality
            if value is None:
                raise DatasetError(
                    f"article {article_id} has no latent quality")
            return value

        return np.fromiter(map(quality, ids), dtype=np.float64,
                           count=len(ids))

    # ------------------------------------------------------------------
    # temporal slicing (dynamic-ranking experiments)

    def snapshot_until(self, year: int, name: Optional[str] = None
                       ) -> "ScholarlyDataset":
        """Sub-dataset of articles published in or before ``year``.

        References to articles outside the snapshot are trimmed, so the
        result validates strictly. Venues/authors are restricted to those
        actually used.
        """
        snap = ScholarlyDataset(name or f"{self.name}@{year}")
        kept = {a.id for a in self.articles.values() if a.year <= year}
        used_venues = set()
        used_authors = set()
        for article in self.articles.values():
            if article.id not in kept:
                continue
            refs = tuple(r for r in article.references if r in kept)
            snap.articles[article.id] = replace(article, references=refs)
            if article.venue_id is not None:
                used_venues.add(article.venue_id)
            used_authors.update(article.author_ids)
        for venue_id in used_venues:
            if venue_id in self.venues:
                snap.venues[venue_id] = self.venues[venue_id]
        for author_id in used_authors:
            if author_id in self.authors:
                snap.authors[author_id] = self.authors[author_id]
        return snap

    def articles_in_year(self, year: int) -> List[Article]:
        """All articles published exactly in ``year`` (id order)."""
        return sorted((a for a in self.articles.values() if a.year == year),
                      key=lambda a: a.id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScholarlyDataset(name={self.name!r}, "
                f"articles={self.num_articles}, venues={self.num_venues}, "
                f"authors={self.num_authors})")
