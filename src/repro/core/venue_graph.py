"""Venue citation graph: aggregating article citations to venue level.

A venue's prestige is computed with the same TWPR machinery as articles',
on the graph whose nodes are venues and whose edge ``A -> B`` aggregates
every citation from an article in ``A`` to an article in ``B``. Edges are
time-weighted at the *article* level before aggregation — a venue whose
articles keep citing another venue's fresh output transfers more prestige
than one citing its decades-old archive.

Aggregation is numpy over the article CSR and the article columns — it
runs on every batch of the live ranking pipeline, so no step may walk
the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.graph.csr import CSRGraph
from repro.data.schema import ScholarlyDataset
from repro.core.columns import ArticleColumns
from repro.core.time_weight import TimeDecay


@dataclass(frozen=True)
class VenueGraph:
    """Aggregated venue-level citation graph.

    Attributes:
        graph: CSR over venue ids (ascending); edge weights are
            (optionally decayed) citation aggregates.
        citation_counts: raw (undecayed) aggregate per edge, aligned with
            ``graph`` edges — kept for diagnostics and ablations.
    """

    graph: CSRGraph
    citation_counts: np.ndarray

    def venue_index(self, venue_id: int) -> int:
        return self.graph.index_of(venue_id)


def aggregate_venues(graph: CSRGraph, columns: ArticleColumns,
                     decay: Optional[TimeDecay] = None,
                     include_self_loops: bool = False,
                     observation_year: Optional[int] = None,
                     popularity_decay: Optional[TimeDecay] = None
                     ) -> Tuple[VenueGraph, Optional[np.ndarray]]:
    """The venue graph of ``graph`` (node-aligned with ``columns``) and,
    given ``observation_year``, each venue's popularity — one pass over
    the citation edges for both.

    Citations aggregate by ``bincount`` on ``src_venue * V + dst_venue``
    (a dense ``V * V`` accumulator, added to in edge order); no edge
    array is compacted on the way.
    """
    num_venues = len(columns.venue_ids)
    if num_venues == 0:
        raise DatasetError("dataset has no venues")
    years = columns.years
    out_degree = graph.out_degrees()
    src_year = np.repeat(years, out_degree)
    src_venue = np.repeat(columns.venue_of, out_degree)
    dst_venue = columns.venue_of[graph.indices]
    popularity = None
    if observation_year is not None:
        if np.any(years > observation_year):
            raise DatasetError("observation_year precedes a publication")
        # Bin 0 collects the citations of venue-less articles (-1).
        popularity = np.bincount(
            dst_venue + 1, minlength=num_venues + 1,
            weights=np.asarray(popularity_decay(
                (observation_year - src_year).astype(np.float64)),
                dtype=np.float64))[1:]

    keep = (src_venue >= 0) & (dst_venue >= 0)
    if not include_self_loops:
        keep &= src_venue != dst_venue
    # Dropped citations land in one spare bin past the V * V pairs.
    key = np.where(keep, src_venue * num_venues + dst_venue,
                   num_venues * num_venues)
    counts = np.bincount(key, minlength=num_venues * num_venues + 1)[:-1]
    pairs = np.flatnonzero(counts)  # ascending (src, dst) = CSR order
    citation_counts = counts[pairs].astype(np.float64)
    weights = citation_counts
    if decay is not None:
        gap = np.maximum(
            (src_year - years[graph.indices]).astype(np.float64), 0.0)
        weights = np.bincount(
            key, weights=np.asarray(decay(gap), dtype=np.float64),
            minlength=len(counts) + 1)[pairs]
    indptr = np.zeros(num_venues + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // num_venues, minlength=num_venues),
              out=indptr[1:])
    venue_graph = CSRGraph(indptr, pairs % num_venues, weights,
                           columns.venue_ids)
    return VenueGraph(venue_graph, citation_counts), popularity


def build_venue_graph(dataset: ScholarlyDataset,
                      decay: Optional[TimeDecay] = None,
                      include_self_loops: bool = False,
                      graph: Optional[CSRGraph] = None) -> VenueGraph:
    """Aggregate the dataset's citations into a venue graph.

    Args:
        dataset: source dataset; articles without a venue are skipped.
        decay: optional article-level time decay applied to each citation
            before aggregation (gap = ``t(citing) - t(cited)``, clamped
            at 0).
        include_self_loops: keep within-venue citations (default: drop —
            internal citations say nothing about cross-venue prestige).
        graph: optional pre-built citation CSR of ``dataset`` (skips the
            rebuild; node order must be the canonical ascending-id one).
    """
    if graph is None:
        graph = dataset.citation_csr()
    return aggregate_venues(graph, ArticleColumns.from_dataset(dataset),
                            decay, include_self_loops)[0]


def venue_popularity(dataset: ScholarlyDataset, observation_year: int,
                     decay: TimeDecay,
                     venue_graph: Optional[VenueGraph] = None,
                     graph: Optional[CSRGraph] = None) -> np.ndarray:
    """Decayed count of citations received by each venue's articles.

    Aligned with ascending venue id (the node order of every
    :class:`VenueGraph`, so ``venue_graph`` is not consulted). Each
    citation into the venue contributes ``decay(T - t(citing))`` — same
    semantics as article popularity, aggregated per cited venue.
    """
    if graph is None:
        graph = dataset.citation_csr()
    return aggregate_venues(graph, ArticleColumns.from_dataset(dataset),
                            observation_year=observation_year,
                            popularity_decay=decay)[1]
