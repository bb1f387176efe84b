"""Ranking algorithms: the shared PageRank engine and all baselines.

The paper compares its model against the classic query-independent
rankers; every one of them is implemented here from scratch:

* :func:`~repro.ranking.pagerank.pagerank` — damped power iteration with
  weighted edges, personalization and dangling-mass handling (also the
  engine under Time-Weighted PageRank).
* :func:`~repro.ranking.gauss_seidel.gauss_seidel_pagerank` — in-place
  sweeps in a caller-chosen order; the batch optimization sweeps reverse
  topological order on (near-)acyclic citation graphs.
* :func:`~repro.ranking.citation_count.citation_count` — raw citations.
* :func:`~repro.ranking.simple.citation_rate` — age-normalized citation
  rate: the sanity baseline.
* :func:`~repro.ranking.citerank.citerank` — CiteRank (Walker et al. 2007),
  PageRank with an exponential-recency jump vector.
* :func:`~repro.ranking.futurerank.futurerank` — FutureRank (Sayyadi &
  Getoor 2009), mutual paper/author reinforcement plus a time factor.
* :func:`~repro.ranking.hits.hits` — Kleinberg's HITS.
* :func:`~repro.ranking.prank.prank` — P-Rank (Yan et al. 2011),
  heterogeneous paper/author/venue co-ranking.
* :func:`~repro.ranking.rescaled.rescaled_pagerank` — Rescaled PageRank
  (Mariani et al. 2016), age-cohort z-scores.
* :func:`~repro.ranking.montecarlo.monte_carlo_pagerank` — random-walk
  sampling approximation (Avrachenkov et al. 2007).
"""

from repro.ranking.citation_count import citation_count
from repro.ranking.citerank import citerank
from repro.ranking.futurerank import FutureRankConfig, futurerank
from repro.ranking.gauss_seidel import gauss_seidel_pagerank
from repro.ranking.hits import HitsResult, hits
from repro.ranking.montecarlo import MonteCarloResult, monte_carlo_pagerank
from repro.ranking.pagerank import PageRankResult, pagerank
from repro.ranking.prank import PRankConfig, prank
from repro.ranking.rescaled import rescale_by_age, rescaled_pagerank
from repro.ranking.simple import citation_rate

__all__ = [
    "PageRankResult",
    "pagerank",
    "gauss_seidel_pagerank",
    "citation_count",
    "citation_rate",
    "citerank",
    "FutureRankConfig",
    "futurerank",
    "HitsResult",
    "hits",
    "MonteCarloResult",
    "monte_carlo_pagerank",
    "PRankConfig",
    "prank",
    "rescale_by_age",
    "rescaled_pagerank",
]
