"""JSONL serialization of datasets.

One entity per line with a ``kind`` tag, so files stream and diff well and
large datasets never need to be held as one JSON document. ``.gz`` paths
are compressed transparently.

Update records (:func:`record_lines`, with ``cite`` for a citation
added between existing articles) may follow a dataset's: the file then
loads as the updated dataset, so a corpus file can grow by appends.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Tuple, Union

from repro.errors import ParseError
from repro.data.schema import Article, Author, ScholarlyDataset, Venue

PathLike = Union[str, Path]


def _open(path: Path, mode: str) -> IO:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _unheld(items: Iterable, held: Optional[dict]) -> Iterable:
    """``items`` whose id ``held`` lacks, each id once (first wins)."""
    fresh: dict = {}
    for item in items:
        if held is None or item.id not in held:
            fresh.setdefault(item.id, item)
    return fresh.values()


def record_lines(venues: Iterable[Venue], authors: Iterable[Author],
                 articles: Iterable[Article],
                 citations: Iterable[Tuple[int, int]] = (),
                 known: Optional[ScholarlyDataset] = None
                 ) -> Iterator[str]:
    """These entities as JSONL lines, in the order a load applies them.

    Given ``known``, the corpus an update lands on, venues and authors
    it already holds or the update repeats are skipped, exactly as
    :func:`repro.engine.updates.apply_update` tolerates them.
    """
    for venue in _unheld(venues, known and known.venues):
        yield json.dumps({
            "kind": "venue", "id": venue.id, "name": venue.name,
            "prestige": venue.prestige}) + "\n"
    for author in _unheld(authors, known and known.authors):
        yield json.dumps({
            "kind": "author", "id": author.id,
            "name": author.name}) + "\n"
    for article in articles:
        yield json.dumps({
            "kind": "article", "id": article.id,
            "title": article.title, "year": article.year,
            "venue_id": article.venue_id,
            "author_ids": list(article.author_ids),
            "references": list(article.references),
            "quality": article.quality}) + "\n"
    for citing, cited in citations:
        yield json.dumps({"kind": "cite", "citing": citing,
                          "cited": cited}) + "\n"


def save_dataset_jsonl(dataset: ScholarlyDataset, path: PathLike) -> None:
    """Write ``dataset`` to ``path`` as JSON lines (gzip if ``.gz``)."""
    path = Path(path)
    with _open(path, "w") as handle:
        header = {"kind": "dataset", "name": dataset.name,
                  "articles": dataset.num_articles,
                  "venues": dataset.num_venues,
                  "authors": dataset.num_authors}
        handle.write(json.dumps(header) + "\n")
        handle.writelines(record_lines(dataset.venues.values(),
                                       dataset.authors.values(),
                                       dataset.articles.values()))


def load_dataset_jsonl(path: PathLike) -> ScholarlyDataset:
    """Read a dataset written by :func:`save_dataset_jsonl`."""
    path = Path(path)
    with _open(path, "r") as handle:
        return read_dataset_jsonl(handle, str(path))


def read_dataset_jsonl(handle: Iterable[str],
                       source: str) -> ScholarlyDataset:
    """Build a dataset from JSONL lines; ``source`` names them in errors."""
    dataset = ScholarlyDataset()
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", source,
                             line_number) from None
        kind = record.get("kind")
        try:
            if kind == "dataset":
                dataset.name = record["name"]
            elif kind == "venue":
                dataset.add_venue(Venue(
                    id=record["id"], name=record["name"],
                    prestige=record.get("prestige")))
            elif kind == "author":
                dataset.add_author(Author(id=record["id"],
                                          name=record["name"]))
            elif kind == "article":
                dataset.add_article(Article(
                    id=record["id"], title=record["title"],
                    year=record["year"],
                    venue_id=record.get("venue_id"),
                    author_ids=tuple(record.get("author_ids", ())),
                    references=tuple(record.get("references", ())),
                    quality=record.get("quality")))
            elif kind == "cite":
                citing, cited = record["citing"], record["cited"]
                article = dataset.articles.get(citing)
                if article is None:
                    raise ParseError(
                        f"cite names unknown article {citing}", source,
                        line_number)
                if cited not in article.references:
                    dataset.articles[citing] = replace(
                        article,
                        references=article.references + (cited,))
            else:
                raise ParseError(f"unknown record kind {kind!r}",
                                 source, line_number)
        except KeyError as exc:
            raise ParseError(f"missing field {exc}", source,
                             line_number) from None
    return dataset
