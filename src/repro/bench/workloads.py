"""Canonical benchmark workloads.

The two effectiveness corpora mirror the paper's AMiner and MAG datasets
at laptop scale (see DESIGN.md "Substitutions"); they are module-cached
because several benchmarks share them. ``sized_citation_graph`` builds
the graph-size sweep of the efficiency experiments.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.data.generator import (
    GeneratorConfig,
    aminer_like_config,
    generate_dataset,
    mag_like_config,
)
from repro.data.ground_truth import GroundTruth, build_ground_truth
from repro.data.schema import ScholarlyDataset
from repro.core.columns import ArticleColumns
from repro.core.model import ArticleRanker
from repro.graph.csr import CSRGraph
from repro.ranking import (
    citation_count,
    citation_rate,
    citerank,
    futurerank,
    hits,
    pagerank,
    prank,
    rescaled_pagerank,
)


@lru_cache(maxsize=None)
def aminer_small(scale: int = 20_000
                 ) -> Tuple[ScholarlyDataset, GroundTruth]:
    """AMiner-like corpus + ground truth (cached)."""
    dataset = generate_dataset(aminer_like_config(scale=scale))
    truth = build_ground_truth(dataset, num_pairs=2_000, seed=13)
    return dataset, truth


@lru_cache(maxsize=None)
def mag_small(scale: int = 40_000
              ) -> Tuple[ScholarlyDataset, GroundTruth]:
    """MAG-like corpus + ground truth (cached)."""
    dataset = generate_dataset(mag_like_config(scale=scale))
    truth = build_ground_truth(dataset, num_pairs=2_000, seed=17)
    return dataset, truth


@lru_cache(maxsize=None)
def sized_citation_graph(num_articles: int, seed: int = 23
                         ) -> Tuple[CSRGraph, np.ndarray]:
    """A citation graph of the requested size for efficiency sweeps."""
    config = GeneratorConfig(
        num_articles=num_articles,
        num_venues=max(20, num_articles // 500),
        num_authors=max(100, num_articles // 4),
        seed=seed,
    )
    dataset = generate_dataset(config)
    graph = dataset.citation_csr()
    return graph, dataset.article_years(graph)


def compute_baseline_scores(dataset: ScholarlyDataset
                            ) -> Dict[str, Dict[int, float]]:
    """Every comparison method's scores, keyed by method name.

    Methods: the paper's full model (``QISAR``), its prestige component
    alone (``TWPR``), and the baselines PageRank, citation count,
    citation rate, CiteRank, FutureRank, HITS authority, P-Rank
    (heterogeneous co-ranking) and Rescaled PageRank (age-normalized).
    """
    graph = dataset.citation_csr()
    columns = ArticleColumns.from_dataset(dataset)
    years = columns.years
    observation = int(years.max())
    ids = graph.node_ids.tolist()

    def by_id(vector: np.ndarray) -> Dict[int, float]:
        return dict(zip(ids, np.asarray(vector, dtype=float).tolist()))

    ranker = ArticleRanker()
    full = ranker.rank(dataset)

    num_authors = len(columns.author_ids)
    author_lists = np.split(columns.author_of, columns.author_indptr[1:-1])
    future_scores, _ = futurerank(graph, author_lists, num_authors,
                                  years, observation)
    prank_scores, _, _ = prank(graph, author_lists, num_authors,
                               columns.venue_of,
                               max(len(columns.venue_ids), 1))

    return {
        "QISAR": full.by_id(),
        "TWPR": by_id(full.components["article_prestige"]),
        "PageRank": by_id(pagerank(graph).scores),
        "CitationCount": by_id(citation_count(graph)),
        "CitationRate": by_id(citation_rate(graph, years, observation)),
        "CiteRank": by_id(citerank(graph, years, observation).scores),
        "FutureRank": by_id(future_scores),
        "HITS": by_id(hits(graph).authorities),
        "PRank": by_id(prank_scores),
        "RescaledPR": by_id(rescaled_pagerank(graph, years)),
    }
