"""The assembled article-ranking model (the paper's headline system).

:class:`ArticleRanker` wires the pieces together:

1. article prestige — TWPR on the article citation graph;
2. article popularity — decayed citation counts;
3. article importance — convex combination of 1 and 2;
4. venue importance — the same prestige/popularity combination computed
   on the aggregated venue citation graph;
5. author importance — aggregated article importance per author;
6. final score — weighted blend of article, venue and author importance.

Every knob sits in :class:`RankerConfig`; experiments E2/E3 sweep them.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, DatasetError
from repro.data.schema import ScholarlyDataset
from repro.core.author_score import aggregate_by_author, team_feature
from repro.core.columns import ArticleColumns
from repro.core.importance import combine_importance, normalize_scores
from repro.core.popularity import popularity_scores
from repro.core.time_weight import exponential_decay
from repro.core.twpr import time_weighted_pagerank
from repro.core.venue_graph import aggregate_venues
from repro.ranking.pagerank import pagerank

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.handle import Observability
    from repro.obs.telemetry import SolverTelemetry


def _stage_observed(obs: Optional["Observability"], timings: Dict[str, float],
                    stage: str, seconds: float) -> None:
    """Record one finished stage in the timings dict and, when an
    :class:`Observability` handle is present, in the
    ``repro_stage_seconds`` histogram."""
    timings[stage] = seconds
    if obs is not None:
        obs.metrics.histogram(
            "repro_stage_seconds",
            "Wall-clock seconds per ranking pipeline stage.",
            labels=("stage",)).observe(seconds, stage=stage)


@dataclass(frozen=True)
class RankerConfig:
    """All knobs of the assembled model.

    Attributes:
        damping: PageRank damping for both TWPR solves.
        prestige_decay: lambda — per-year decay of citation-edge weight in
            TWPR (0 reduces prestige to classic PageRank).
        popularity_decay: sigma — per-year decay of a citation's
            popularity contribution (popularity fades faster than
            prestige: sigma > lambda).
        theta: prestige weight inside entity importance
            (1 = prestige only, 0 = popularity only).
        weight_article / weight_venue / weight_author: blend weights of
            the final score; must be non-negative and sum to a positive
            value (normalized internally).
        author_mode: article-importance aggregation per author
            (``mean`` / ``sum`` / ``max``).
        normalization: score normalization used at every combination
            point (``rank`` is robust to the heavy-tailed scales the
            components live on).
        solver: TWPR solver, ``power`` or ``levels`` (``auto`` = levels,
            the optimized level sweeps).
        tol / max_iter: convergence control for the iterative solves.
        observation_year: "today" for all decays (default: dataset max).
        popularity_self_boost: see
            :func:`repro.core.popularity.popularity_scores`.
    """

    damping: float = 0.85
    prestige_decay: float = 0.1
    popularity_decay: float = 0.4
    theta: float = 0.5
    weight_article: float = 0.6
    weight_venue: float = 0.25
    weight_author: float = 0.15
    author_mode: str = "mean"
    normalization: str = "rank"
    solver: str = "auto"
    tol: float = 1e-10
    max_iter: int = 200
    observation_year: Optional[int] = None
    popularity_self_boost: float = 0.0

    def __post_init__(self) -> None:
        if self.prestige_decay < 0 or self.popularity_decay < 0:
            raise ConfigError("decay rates must be non-negative")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must be in [0, 1], got {self.theta}")
        weights = (self.weight_article, self.weight_venue,
                   self.weight_author)
        if any(w < 0 for w in weights):
            raise ConfigError("blend weights must be non-negative")
        if sum(weights) <= 0:
            raise ConfigError("blend weights must not all be zero")

    def blend_weights(self) -> Tuple[float, float, float]:
        """Article/venue/author weights normalized to sum to 1."""
        total = self.weight_article + self.weight_venue + self.weight_author
        return (self.weight_article / total, self.weight_venue / total,
                self.weight_author / total)


@dataclass(frozen=True)
class RankingResult:
    """Scores plus every intermediate component and solver diagnostics.

    ``scores`` aligns with ``node_ids`` (ascending article id). The
    ``components`` map holds the intermediate vectors (same alignment):
    ``article_prestige``, ``article_popularity``, ``article_importance``,
    ``venue_feature``, ``author_feature``.
    """

    node_ids: np.ndarray
    scores: np.ndarray
    components: Dict[str, np.ndarray]
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def by_id(self) -> Dict[int, float]:
        """Scores keyed by article id."""
        return dict(zip(self.node_ids.tolist(), self.scores.tolist()))

    def top(self, k: int = 10) -> List[Tuple[int, float]]:
        """Highest-scored ``(article_id, score)`` pairs, ties by id."""
        if k <= 0:
            raise ConfigError("k must be positive")
        order = np.lexsort((self.node_ids, -self.scores))
        return [(int(self.node_ids[i]), float(self.scores[i]))
                for i in order[:k]]


class ArticleRanker:
    """Ranks every article of a dataset, query-independently."""

    def __init__(self, config: Optional[RankerConfig] = None) -> None:
        self.config = config or RankerConfig()

    def with_config(self, **overrides) -> "ArticleRanker":
        """A new ranker with ``overrides`` applied to the config."""
        return ArticleRanker(replace(self.config, **overrides))

    def rank(self, dataset: ScholarlyDataset,
             telemetry: Optional["SolverTelemetry"] = None,
             obs: Optional["Observability"] = None
             ) -> RankingResult:
        """Run the full pipeline on ``dataset``.

        Per-stage wall-clock timings land in
        ``result.diagnostics["timings"]`` (seconds), keyed by stage name —
        the batch-efficiency experiments read them. ``telemetry``
        (optional) is handed to the TWPR solve and records its residual
        trajectory; scores are identical with it on or off. ``obs``
        (optional) wraps the pipeline in a ``rank`` span with per-stage
        child spans and mirrors stage timings into the
        ``repro_stage_seconds`` histogram.
        """
        if dataset.num_articles == 0:
            raise DatasetError("cannot rank an empty dataset")
        if obs is not None and telemetry is None:
            telemetry = obs.telemetry
        config = self.config
        timings: Dict[str, float] = {}
        clock = time.perf_counter
        outer = obs.span("rank", articles=dataset.num_articles) \
            if obs is not None else nullcontext()
        with outer:
            stage_start = clock()
            with (obs.span("rank.build_graph") if obs is not None
                  else nullcontext()):
                graph = dataset.citation_csr()
                columns = ArticleColumns.from_dataset(dataset)
            _stage_observed(obs, timings, "build_graph",
                            clock() - stage_start)
            observation = self._observation_year(columns.years)

            diagnostics: Dict[str, object] = {"timings": timings}

            stage_start = clock()
            prestige_kernel = exponential_decay(config.prestige_decay)
            twpr = time_weighted_pagerank(
                graph, columns.years, decay=prestige_kernel,
                damping=config.damping, tol=config.tol,
                max_iter=config.max_iter, method=config.solver,
                telemetry=telemetry, obs=obs)
            _stage_observed(obs, timings, "article_prestige",
                            clock() - stage_start)
            diagnostics["twpr_iterations"] = twpr.iterations
            diagnostics["twpr_method"] = twpr.method
            diagnostics["twpr_converged"] = twpr.converged

            return self._assemble(graph, columns, observation,
                                  twpr.scores, diagnostics, timings,
                                  obs=obs)

    def _observation_year(self, years: np.ndarray) -> int:
        """"Today" for every decay: configured, else the newest article."""
        max_year = int(years.max())
        observation = self.config.observation_year
        if observation is None:
            return max_year
        if observation < max_year:
            raise ConfigError(
                f"observation_year {observation} precedes newest article "
                f"({max_year}); slice the dataset instead")
        return observation

    def rank_with_prestige(self, dataset: ScholarlyDataset,
                           prestige,
                           graph=None,
                           columns: Optional[ArticleColumns] = None,
                           obs: Optional["Observability"] = None
                           ) -> RankingResult:
        """Assemble the full model around *externally supplied* prestige.

        ``prestige`` is either a mapping (article id -> score) or a
        numpy array already aligned with the graph's node order.

        This is the hook for dynamic ranking: the expensive TWPR solve is
        maintained incrementally elsewhere (e.g.
        :class:`repro.engine.incremental.IncrementalEngine`), and this
        method performs only the linear-time stages — popularity, venue
        and author importance, and the final blend. ``graph`` may supply
        a pre-built citation CSR (canonical ascending-id node order) and
        ``columns`` the :class:`ArticleColumns` aligned with it: the live
        pipeline maintains both, which leaves this method pure numpy.
        """
        if dataset.num_articles == 0:
            raise DatasetError("cannot rank an empty dataset")
        config = self.config
        timings: Dict[str, float] = {}
        clock = time.perf_counter
        stage_start = clock()
        if graph is None:
            graph = dataset.citation_csr()
        if columns is None:
            columns = ArticleColumns.from_dataset(dataset)
        if len(columns.article_ids) != graph.num_nodes:
            raise ConfigError("columns must align with the graph")
        timings["build_graph"] = clock() - stage_start
        observation = self._observation_year(columns.years)
        if isinstance(prestige, np.ndarray):
            if prestige.shape != (graph.num_nodes,):
                raise ConfigError(
                    f"prestige array must align with the graph "
                    f"({graph.num_nodes} nodes), got {prestige.shape}")
            prestige_scores = np.asarray(prestige, dtype=np.float64)
        else:
            try:
                prestige_scores = np.asarray(
                    [prestige[int(node)] for node in graph.node_ids],
                    dtype=np.float64)
            except KeyError as exc:
                raise ConfigError(
                    f"prestige map missing article {exc.args[0]}"
                ) from None
        diagnostics: Dict[str, object] = {"timings": timings,
                                          "prestige_source": "external"}
        return self._assemble(graph, columns, observation,
                              prestige_scores, diagnostics, timings,
                              obs=obs)

    def _assemble(self, graph, columns: ArticleColumns,
                  observation: int, prestige_scores: np.ndarray,
                  diagnostics: Dict[str, object],
                  timings: Dict[str, float],
                  obs: Optional["Observability"] = None) -> RankingResult:
        """Linear-time stages shared by batch and dynamic ranking."""
        config = self.config
        clock = time.perf_counter

        def _span(name: str):
            return obs.span(name) if obs is not None else nullcontext()

        stage_start = clock()
        with _span("rank.article_popularity"):
            popularity_kernel = exponential_decay(config.popularity_decay)
            article_popularity = popularity_scores(
                graph, columns.years, observation,
                decay=popularity_kernel,
                self_boost=config.popularity_self_boost)

            article_importance = combine_importance(
                prestige_scores, article_popularity, theta=config.theta,
                normalization=config.normalization)
        _stage_observed(obs, timings, "article_popularity",
                        clock() - stage_start)

        stage_start = clock()
        with _span("rank.venue"):
            venue_feature = self._venue_feature(
                graph, columns, observation, diagnostics)
        _stage_observed(obs, timings, "venue", clock() - stage_start)
        stage_start = clock()
        with _span("rank.author"):
            author_feature = self._author_feature(
                columns, article_importance)
        _stage_observed(obs, timings, "author", clock() - stage_start)

        stage_start = clock()
        with _span("rank.assembly"):
            w_article, w_venue, w_author = config.blend_weights()
            scores = (
                w_article * normalize_scores(article_importance,
                                             config.normalization)
                + w_venue * normalize_scores(venue_feature,
                                             config.normalization)
                + w_author * normalize_scores(author_feature,
                                              config.normalization))
        _stage_observed(obs, timings, "assembly", clock() - stage_start)

        return RankingResult(
            node_ids=graph.node_ids.copy(),
            scores=scores,
            components={
                "article_prestige": prestige_scores,
                "article_popularity": article_popularity,
                "article_importance": article_importance,
                "venue_feature": venue_feature,
                "author_feature": author_feature,
            },
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # components

    def _venue_feature(self, graph, columns: ArticleColumns, observation: int,
                       diagnostics: Dict[str, object]) -> np.ndarray:
        """Per-article venue importance (dataset mean for venue-less)."""
        config = self.config
        if len(columns.venue_ids) == 0 or config.weight_venue == 0:
            diagnostics["venue_iterations"] = 0
            diagnostics["venue_converged"] = True  # nothing to converge
            return np.zeros(graph.num_nodes)

        venue_graph, venue_pop = aggregate_venues(
            graph, columns, exponential_decay(config.prestige_decay),
            observation_year=observation,
            popularity_decay=exponential_decay(config.popularity_decay))
        venue_prestige_result = pagerank(
            venue_graph.graph, damping=config.damping, tol=config.tol,
            max_iter=config.max_iter)
        diagnostics["venue_iterations"] = venue_prestige_result.iterations
        diagnostics["venue_converged"] = venue_prestige_result.converged
        venue_importance = combine_importance(
            venue_prestige_result.scores, venue_pop, theta=config.theta,
            normalization=config.normalization)

        has_venue = columns.venue_of >= 0
        feature = venue_importance[columns.venue_of]
        if not has_venue.all():
            feature[~has_venue] = float(feature[has_venue].mean()) \
                if has_venue.any() else 0.0
        return feature

    def _author_feature(self, columns: ArticleColumns,
                        article_importance: np.ndarray) -> np.ndarray:
        """Per-article mean author importance."""
        if len(columns.author_ids) == 0 or self.config.weight_author == 0:
            return np.zeros(len(article_importance))
        return team_feature(columns, aggregate_by_author(
            columns, article_importance, mode=self.config.author_mode))
