"""Author importance derived from article importance.

The paper treats authors as first-class entities whose importance feeds
back into article scores. Author importance here is an aggregate of the
importance of the articles they wrote; the aggregation mode is a knob
(``mean`` resists inflation by prolific-but-average authors, ``sum``
rewards productivity, ``max`` rewards one-hit wonders).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.errors import ConfigError, DatasetError
from repro.core.columns import ArticleColumns
from repro.data.schema import ScholarlyDataset

_MODES = ("mean", "sum", "max")


def _authorships(columns: ArticleColumns) -> np.ndarray:
    """``columns.author_of``, every entry a known author."""
    authors = columns.author_of
    if authors.size and authors.min() < 0:
        row = np.searchsorted(columns.author_indptr,
                              int(np.argmin(authors)), side="right") - 1
        raise DatasetError(f"article {columns.article_ids[row]} "
                           f"references unknown author")
    return authors


def aggregate_by_author(columns: ArticleColumns, importance: np.ndarray,
                        mode: str = "mean") -> np.ndarray:
    """Article ``importance`` (aligned with ``columns.article_ids``)
    aggregated per author, aligned with ``columns.author_ids``; authors
    with no articles score 0."""
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {_MODES}")
    authors = _authorships(columns)
    num_authors = len(columns.author_ids)
    weights = np.repeat(np.asarray(importance, dtype=np.float64),
                        np.diff(columns.author_indptr))
    if mode == "max":
        totals = np.zeros(num_authors, dtype=np.float64)
        np.maximum.at(totals, authors, weights)
        return totals
    totals = np.bincount(authors, weights=weights, minlength=num_authors)
    if mode == "mean":
        counts = np.bincount(authors, minlength=num_authors)
        totals = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    return totals


def team_feature(columns: ArticleColumns, scores: np.ndarray) -> np.ndarray:
    """Mean author score (``scores`` aligned with ``columns.author_ids``)
    per article. Articles without authors get the mean feature of the
    rest, so the blend stays unbiased for them."""
    sizes = np.diff(columns.author_indptr)
    rows = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    sums = np.bincount(rows, weights=scores[_authorships(columns)],
                       minlength=len(sizes))
    values = np.where(sizes > 0, sums / np.maximum(sizes, 1), 0.0)
    missing = sizes == 0
    if np.any(missing) and np.any(~missing):
        values[missing] = float(values[~missing].mean())
    return values


def author_importance(dataset: ScholarlyDataset,
                      article_importance: Mapping[int, float],
                      mode: str = "mean") -> Dict[int, float]:
    """Aggregate article importance per author.

    Args:
        dataset: provides the authorship relation.
        article_importance: article id -> importance (every article in the
            dataset must be present).
        mode: ``mean`` (default), ``sum`` or ``max``.

    Returns:
        author id -> importance; authors with no articles score 0.
    """
    columns = ArticleColumns.from_dataset(dataset)
    try:
        importance = [article_importance[article_id]
                      for article_id in columns.article_ids.tolist()]
    except KeyError as exc:
        raise DatasetError(f"article {exc.args[0]} missing from "
                           f"importance map") from None
    return dict(zip(columns.author_ids.tolist(),
                    aggregate_by_author(columns, importance,
                                        mode).tolist()))
