"""First-class venue and author rankings.

The paper's model computes venue and author importance on the way to
article scores; downstream users want those rankings directly ("which
venues matter in this corpus", "who are its influential authors").
:class:`EntityRanker` exposes them with the same prestige+popularity
semantics the article ranking uses, as proper result objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, DatasetError
from repro.data.schema import ScholarlyDataset
from repro.core.author_score import author_importance
from repro.core.columns import ArticleColumns
from repro.core.importance import combine_importance
from repro.core.model import ArticleRanker, RankerConfig
from repro.core.time_weight import exponential_decay
from repro.core.venue_graph import aggregate_venues
from repro.ranking.pagerank import pagerank


@dataclass(frozen=True)
class EntityRanking:
    """Importance scores of one entity kind (venues or authors).

    ``components`` carries the intermediate vectors the final score was
    blended from, aligned with ``entity_ids`` (venue rankings expose
    ``prestige`` and ``popularity``; author rankings expose
    ``productivity``).
    """

    kind: str
    entity_ids: np.ndarray
    scores: np.ndarray
    components: Dict[str, np.ndarray]

    def by_id(self) -> Dict[int, float]:
        return {int(entity): float(score)
                for entity, score in zip(self.entity_ids, self.scores)}

    def top(self, k: int = 10) -> List[Tuple[int, float]]:
        """Best ``k`` entities, ties broken by ascending id."""
        if k <= 0:
            raise ConfigError("k must be positive")
        order = np.lexsort((self.entity_ids, -self.scores))
        return [(int(self.entity_ids[i]), float(self.scores[i]))
                for i in order[:k]]


class EntityRanker:
    """Ranks venues and authors of a dataset."""

    def __init__(self, config: Optional[RankerConfig] = None) -> None:
        self.config = config or RankerConfig()

    def rank_venues(self, dataset: ScholarlyDataset) -> EntityRanking:
        """Venue importance: TWPR prestige on the aggregated venue graph
        combined with decayed incoming-citation popularity."""
        if dataset.num_venues == 0:
            raise DatasetError("dataset has no venues")
        config = self.config
        _, max_year = dataset.year_range()
        observation = config.observation_year \
            if config.observation_year is not None else max_year

        venue_graph, popularity = aggregate_venues(
            dataset.citation_csr(), ArticleColumns.from_dataset(dataset),
            exponential_decay(config.prestige_decay),
            observation_year=observation,
            popularity_decay=exponential_decay(config.popularity_decay))
        prestige = pagerank(venue_graph.graph, damping=config.damping,
                            tol=config.tol,
                            max_iter=config.max_iter).scores
        scores = combine_importance(prestige, popularity,
                                    theta=config.theta,
                                    normalization=config.normalization)
        return EntityRanking(
            kind="venue",
            entity_ids=venue_graph.graph.node_ids.copy(),
            scores=scores,
            components={"prestige": prestige, "popularity": popularity})

    def rank_authors(self, dataset: ScholarlyDataset,
                     article_scores: Optional[Dict[int, float]] = None
                     ) -> EntityRanking:
        """Author importance aggregated from article importance.

        ``article_scores`` may be supplied to reuse an existing article
        ranking; otherwise the full article model runs first.
        """
        if dataset.num_authors == 0:
            raise DatasetError("dataset has no authors")
        if article_scores is None:
            article_scores = ArticleRanker(self.config).rank(
                dataset).by_id()
        author_scores = author_importance(dataset, article_scores,
                                          mode=self.config.author_mode)
        columns = ArticleColumns.from_dataset(dataset)
        return EntityRanking(
            kind="author", entity_ids=columns.author_ids,
            scores=np.fromiter(author_scores.values(), dtype=np.float64),
            components={"productivity": np.bincount(
                columns.author_of, minlength=len(columns.author_ids)
            ).astype(np.float64)})
