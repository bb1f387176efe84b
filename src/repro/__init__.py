"""repro — Query Independent Scholarly Article Ranking (ICDE 2018).

A from-scratch reproduction of the paper's full system:

* :mod:`repro.core` — the ranking model: Time-Weighted PageRank prestige,
  time-decayed popularity, and the article/venue/author ensemble.
* :mod:`repro.engine` — batch, block-centric parallel, and incremental
  execution.
* :mod:`repro.ranking` — the PageRank engine and all comparison baselines.
* :mod:`repro.data` — schema, synthetic scholarly-graph generator, and
  AMiner/MAG format parsers.
* :mod:`repro.graph` — the directed-graph kernel.
* :mod:`repro.eval` — effectiveness metrics and protocols.

Quickstart::

    from repro import ArticleRanker, GeneratorConfig, generate_dataset

    dataset = generate_dataset(GeneratorConfig(num_articles=10_000))
    result = ArticleRanker().rank(dataset)
    for article_id, score in result.top(10):
        print(article_id, score)
"""

from repro.core.entity_rank import EntityRanker
from repro.core.model import ArticleRanker, RankerConfig, RankingResult
from repro.core.twpr import time_weighted_pagerank
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.ground_truth import build_ground_truth
from repro.data.schema import Article, Author, ScholarlyDataset, Venue
from repro.engine.incremental import IncrementalEngine
from repro.engine.live import LiveRanker
from repro.errors import ReproError
from repro.query.index import RankIndex

__version__ = "1.0.0"

__all__ = [
    "Article",
    "ArticleRanker",
    "Author",
    "EntityRanker",
    "GeneratorConfig",
    "IncrementalEngine",
    "LiveRanker",
    "RankIndex",
    "RankerConfig",
    "RankingResult",
    "ReproError",
    "ScholarlyDataset",
    "Venue",
    "build_ground_truth",
    "generate_dataset",
    "time_weighted_pagerank",
    "__version__",
]
