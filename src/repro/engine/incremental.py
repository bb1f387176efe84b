"""Incremental (dynamic) prestige maintenance.

Recomputing TWPR from scratch on every arrival batch wastes work: a new
article perturbs the stationary distribution mostly *near* the articles
it cites, and the perturbation decays geometrically with distance
(damping < 1 contracts the propagation). The paper's incremental
algorithm exploits this by splitting the graph into an **affected area**
(recomputed by iteration) and an **unaffected area** (scores kept, only
rescaled for the changed node count).

Affected-area discovery: seed every new node and every node whose
in-neighbourhood changed with an estimated score perturbation, then relax
the estimate along out-edges (``estimate * damping * transition
probability``) and keep expanding while the estimate exceeds
``delta_threshold / n``. Small thresholds grow the area toward exactness;
large thresholds keep it tiny and cheap — E7 sweeps this trade-off.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np
from scipy.sparse import csr_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.handle import Observability
    from repro.obs.telemetry import SolverTelemetry

from repro.errors import ConfigError
from repro.data.schema import ScholarlyDataset
from repro.core.columns import ArticleColumns
from repro.core.time_weight import TimeDecay, exponential_decay
from repro.core.twpr import (
    time_weight_edges,
    time_weighted_pagerank,
)
from repro.graph.toposort import ragged_offsets as _ragged_offsets
from repro.engine.updates import (
    UpdateBatch,
    apply_update,
    validate_update_batch,
)
from repro.graph.csr import CSRGraph, positions_in, stable_order


@dataclass(frozen=True)
class AffectedArea:
    """Nodes whose prestige the incremental step re-solves."""

    nodes: np.ndarray
    seeds: np.ndarray
    fraction: float


@dataclass(frozen=True)
class IncrementalReport:
    """Outcome of applying one update batch incrementally."""

    affected: AffectedArea
    iterations: int
    residual: float
    converged: bool
    seconds: float
    num_nodes: int
    num_edges: int


class IncrementalEngine:
    """Maintains TWPR prestige scores under article-arrival batches."""

    def __init__(self, dataset: ScholarlyDataset, damping: float = 0.85,
                 decay: Optional[TimeDecay] = None,
                 delta_threshold: float = 1e-3, tol: float = 1e-10,
                 max_iter: int = 200,
                 telemetry: Optional["SolverTelemetry"] = None,
                 obs: Optional["Observability"] = None) -> None:
        """Solve the initial snapshot exactly and remember its state.

        Args:
            dataset: initial snapshot (taken as-is, not copied).
            damping: TWPR damping factor.
            decay: TWPR time-decay kernel (default exponential(0.1)).
            delta_threshold: affected-area expansion threshold, expressed
                relative to the uniform score (a node joins the affected
                area while its estimated perturbation exceeds
                ``delta_threshold / n``).
            tol / max_iter: convergence control of the re-solves.
            telemetry: optional :class:`repro.obs.SolverTelemetry`; every
                :meth:`apply` appends one batch record (affected-area
                size/fraction, seeds, iterations, residual, seconds).
                Maintained scores are unchanged with it on or off.
            obs: optional :class:`repro.obs.Observability` handle; the
                bootstrap solve and every :meth:`apply` open spans, each
                batch lands in an ``"incremental"`` convergence stream
                (kind ``"batch"``), and counters/gauges track batch
                count and affected fraction.
        """
        if not 0.0 <= damping < 1.0:
            raise ConfigError(f"damping must be in [0, 1), got {damping}")
        if delta_threshold <= 0:
            raise ConfigError("delta_threshold must be positive")
        if tol <= 0 or max_iter <= 0:
            raise ConfigError("tol and max_iter must be positive")
        if obs is not None and telemetry is None:
            telemetry = obs.telemetry
        self.damping = damping
        self.decay = decay if decay is not None else exponential_decay(0.1)
        self.delta_threshold = delta_threshold
        self.tol = tol
        self.max_iter = max_iter
        self.telemetry = telemetry
        self.obs = obs

        self.dataset = dataset
        # (graph, weights, src_idx, dst_idx, strengths) of the last
        # structure pulled — see _pull_structure.
        self._structure_cache: Optional[tuple] = None
        bootstrap_span = obs.span("incremental.bootstrap",
                                  articles=dataset.num_articles) \
            if obs is not None else nullcontext()
        with bootstrap_span:
            self.graph = dataset.citation_csr()
            # Derived from the dataset, so rebuilt (not checkpointed).
            self.columns = ArticleColumns.from_dataset(dataset)
            self.years = self.columns.years
            self._edge_weights = time_weight_edges(self.graph, self.years,
                                                   self.decay)
            initial = time_weighted_pagerank(
                self.graph, self.years, decay=self.decay, damping=damping,
                tol=tol, max_iter=max_iter, method="auto", obs=obs)
        self.scores = initial.scores

    # ------------------------------------------------------------------

    def scores_by_id(self) -> Dict[int, float]:
        """Current prestige keyed by article id."""
        return dict(zip(self.graph.node_ids.tolist(), self.scores.tolist()))

    def apply(self, batch: UpdateBatch) -> IncrementalReport:
        """Apply one arrival batch, re-solving only the affected area.

        When the batch's article ids are all larger than every existing id
        (the normal arrival pattern: article ids are time-ordered), the new
        CSR is built by *appending* rows to the old one in O(batch) time —
        no O(n + m) rebuild. Out-of-order ids fall back to a full rebuild.
        """
        # Malformed batches (duplicate ids, unknown citation endpoints)
        # are rejected with a typed ConfigError *before* any state
        # changes, instead of surfacing as deep engine errors halfway
        # through an apply.
        validate_update_batch(batch, self.dataset)
        obs = self.obs
        span = obs.span("incremental.apply",
                        articles=len(batch.articles),
                        citations=len(batch.citations)) \
            if obs is not None else nullcontext()
        with span:
            return self._apply_inner(batch)

    def _apply_inner(self, batch: UpdateBatch) -> IncrementalReport:
        start = time.perf_counter()
        old_n = self.graph.num_nodes
        old_scores = self.scores

        self.dataset = apply_update(self.dataset, batch)
        appended = self._append_graph(batch)
        if appended is None:  # ids out of order: rebuild from the dataset
            graph = self.dataset.citation_csr()
            columns = ArticleColumns.from_dataset(self.dataset)
            appended = (graph, columns,
                        time_weight_edges(graph, columns.years, self.decay),
                        np.flatnonzero(positions_in(
                            self.graph.node_ids, graph.node_ids) < 0),
                        np.zeros(0, dtype=np.int64))
        graph, columns, weights, new_nodes, changed_sources = appended
        n = graph.num_nodes
        scores = np.full(n, 1.0 / n, dtype=np.float64)
        # Both node orders ascend by id, so old scores keep their order.
        scores[np.delete(np.arange(n), new_nodes)] = \
            old_scores * (old_n / n)

        affected = self._discover_affected(graph, weights, scores,
                                           new_nodes, changed_sources)
        scores, iterations, residual, converged = self._resolve(
            graph, weights, scores, affected.nodes)

        self.graph = graph
        self.columns = columns
        self.years = columns.years
        self._edge_weights = weights
        self.scores = scores
        seconds = time.perf_counter() - start
        if self.telemetry is not None:
            self.telemetry.record_batch(
                affected_nodes=len(affected.nodes),
                affected_fraction=affected.fraction,
                seeds=len(affected.seeds), iterations=iterations,
                residual=residual, seconds=seconds,
                num_nodes=graph.num_nodes, num_edges=graph.num_edges)
            self.telemetry.open_stream("incremental", kind="batch").record(
                residual, active=len(affected.nodes), seconds=seconds)
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_incremental_batches_total",
                "Update batches applied incrementally.").inc()
            self.obs.metrics.gauge(
                "repro_affected_fraction",
                "Affected-area fraction of the last applied batch.").set(
                affected.fraction)
        return IncrementalReport(
            affected=affected, iterations=iterations, residual=residual,
            converged=converged, seconds=seconds,
            num_nodes=graph.num_nodes, num_edges=graph.num_edges)

    def _append_graph(self, batch: UpdateBatch):
        """Extend the CSR and the article columns without a rebuild.

        Article arrivals append rows in O(batch) Python (ids resolve by
        ``positions_in``); citation insertions between existing articles
        regroup the combined edges by source in radix passes (O(m),
        still far cheaper than rebuilding from the dataset). Returns
        ``None`` when article ids arrive out of order, otherwise
        ``(graph, columns, edge_time_weights, new_node_indices,
        changed_source_indices)``.
        """
        empty = np.zeros(0, dtype=np.int64)
        if not batch.articles and not batch.citations:
            return (self.graph, self.columns, self._edge_weights,
                    empty, empty)
        # The graph is about to change shape (append, merge, or the
        # caller's full rebuild on None): drop the structure cache now
        # so the superseded arrays don't stay alive behind it.
        self._structure_cache = None
        columns = self.columns.appended(
            batch.articles, (venue.id for venue in batch.venues),
            (author.id for author in batch.authors))
        if columns is None:
            return None
        old_n = self.graph.num_nodes
        node_ids, years = columns.article_ids, columns.years
        new_nodes = np.arange(old_n, len(node_ids), dtype=np.int64)

        def time_weights(sources: np.ndarray, targets: np.ndarray):
            gap = np.maximum(years[sources] - years[targets], 0)
            return np.asarray(self.decay(gap.astype(np.float64)),
                              dtype=np.float64)

        # ``batch.articles`` in id order = the rows of ``new_nodes``.
        references = [article.references for article in sorted(
            batch.articles, key=lambda article: article.id)]
        sizes = np.fromiter(map(len, references), dtype=np.int64,
                            count=len(references))
        new_sources = np.repeat(new_nodes, sizes)
        new_targets = positions_in(node_ids, np.fromiter(
            chain.from_iterable(references), dtype=np.int64,
            count=int(sizes.sum())))
        resolved = (new_targets >= 0) & (new_targets != new_sources)
        new_sources = new_sources[resolved]
        new_targets = new_targets[resolved]
        graph = CSRGraph(
            np.concatenate([self.graph.indptr, self.graph.indptr[-1]
                            + np.cumsum(np.bincount(
                                new_sources - old_n,
                                minlength=len(new_nodes)))]),
            np.concatenate([self.graph.indices, new_targets]),
            np.concatenate([self.graph.weights,
                            np.ones(len(new_targets))]),
            node_ids)
        weights = np.concatenate([
            self._edge_weights, time_weights(new_sources, new_targets)])
        if not batch.citations:
            return graph, columns, weights, new_nodes, empty

        # Citation insertions touch existing rows: merge them into the
        # appended graph and re-sort by source (numpy-level, no
        # per-article Python work).
        pairs = np.asarray(batch.citations, dtype=np.int64).reshape(-1, 2)
        inserted = []
        known_targets: Dict[int, set] = {}
        for source, target in zip(
                positions_in(node_ids, pairs[:, 0]).tolist(),
                positions_in(node_ids, pairs[:, 1]).tolist()):
            if source < 0 or target < 0 or source == target:
                continue
            # A pair the citing article already holds — in the graph,
            # in its own arriving reference list, or earlier in this
            # batch — is a no-op, as it is for the dataset.
            known = known_targets.get(source)
            if known is None:
                known = known_targets[source] = set(
                    graph.neighbors(source).tolist())
            if target not in known:
                known.add(target)
                inserted.append((source, target))
        inserted_src, inserted_dst = np.asarray(
            inserted, dtype=np.int64).reshape(-1, 2).T

        src = np.concatenate([graph.edge_array()[0], inserted_src])
        order = stable_order(src, len(node_ids))
        indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(node_ids)),
                  out=indptr[1:])
        merged = CSRGraph(
            indptr, np.concatenate([graph.indices, inserted_dst])[order],
            np.concatenate([graph.weights,
                            np.ones(len(inserted_src))])[order], node_ids)
        weights = np.concatenate([
            weights, time_weights(inserted_src, inserted_dst)])[order]
        return (merged, columns, weights, new_nodes,
                np.unique(inserted_src[inserted_src < old_n]))

    # ------------------------------------------------------------------
    # derived edge structure (shared by discovery and re-solve)

    def _pull_structure(self, graph: CSRGraph, weights: np.ndarray):
        """Edge sources/targets and per-node out-strengths, cached.

        ``_discover_affected`` and ``_resolve`` both need ``src_idx``
        and ``strengths`` derived from the *same* ``(graph, weights)``
        pair, and consecutive empty or no-op batches hand the very same
        objects back in — so the cache is keyed on identity: any real
        graph change produces new arrays and misses naturally, while
        ``_append_graph`` also invalidates explicitly so stale
        structure arrays are not kept alive.
        """
        cached = self._structure_cache
        if cached is not None and cached[0] is graph \
                and cached[1] is weights:
            return cached[2], cached[3], cached[4]
        src_idx, dst_idx, _ = graph.edge_array()
        strengths = np.bincount(src_idx, weights=weights,
                                minlength=graph.num_nodes)
        self._structure_cache = (graph, weights, src_idx, dst_idx,
                                 strengths)
        return src_idx, dst_idx, strengths

    # ------------------------------------------------------------------
    # affected-area discovery

    def _discover_affected(self, graph: CSRGraph, weights: np.ndarray,
                           scores: np.ndarray, new_nodes: np.ndarray,
                           changed_sources: Optional[np.ndarray] = None
                           ) -> AffectedArea:
        """Expand perturbation estimates from the update's seed nodes.

        Seeds: new nodes carry their full (uniform) score as estimated
        perturbation; *changed sources* — existing articles whose
        reference list grew — carry their current score (their outgoing
        distribution shifted, so everything they point at may move by
        up to that much, damped).

        Vectorized frontier relaxation: each wave pushes every frontier
        node's estimate across its out-edges (damped by the transition
        probability) and keeps the per-target maximum; a node joins the
        frontier whenever its estimate grows while at or above the
        threshold. Geometric damping guarantees termination.
        """
        n = graph.num_nodes
        src_idx, _, strengths = self._pull_structure(graph, weights)
        safe = np.where(strengths > 0, strengths, 1.0)

        estimate = np.zeros(n, dtype=np.float64)
        estimate[new_nodes] = 1.0 / n
        if changed_sources is not None and len(changed_sources):
            estimate[changed_sources] = np.maximum(
                estimate[changed_sources], scores[changed_sources])
        threshold = self.delta_threshold / n
        in_area = np.zeros(n, dtype=bool)
        in_area[new_nodes] = True
        if changed_sources is not None and len(changed_sources):
            in_area[changed_sources] = True

        seeds = new_nodes if changed_sources is None \
            or not len(changed_sources) else np.unique(
                np.concatenate([new_nodes, changed_sources]))
        frontier = seeds
        while len(frontier):
            starts = graph.indptr[frontier]
            stops = graph.indptr[frontier + 1]
            counts = stops - starts
            total = int(counts.sum())
            if total == 0:
                break
            gather = np.repeat(starts, counts) + _ragged_offsets(counts)
            targets = graph.indices[gather]
            transfers = (np.repeat(estimate[frontier] / safe[frontier],
                                   counts)
                         * self.damping * weights[gather])
            improved = np.zeros(n, dtype=np.float64)
            np.maximum.at(improved, targets, transfers)
            grew = (improved > estimate) & (improved >= threshold)
            estimate = np.maximum(estimate, improved)
            frontier = np.flatnonzero(grew)
            in_area[frontier] = True

        nodes = np.flatnonzero(in_area | (estimate >= threshold))
        return AffectedArea(nodes=nodes, seeds=seeds,
                            fraction=len(nodes) / max(n, 1))

    # ------------------------------------------------------------------
    # boundary-fixed re-solve

    def _resolve(self, graph: CSRGraph, weights: np.ndarray,
                 scores: np.ndarray, affected: np.ndarray):
        """Iterate the affected rows only, unaffected scores held fixed."""
        n = graph.num_nodes
        src_idx, dst_idx, strengths = self._pull_structure(graph, weights)
        dangling = strengths == 0.0
        probability = weights / np.where(dangling, 1.0,
                                         strengths)[src_idx]

        local = np.full(n, -1, dtype=np.int64)
        local[affected] = np.arange(len(affected))
        into_affected = local[dst_idx] >= 0
        pull = csr_matrix(
            (probability[into_affected],
             (local[dst_idx[into_affected]], src_idx[into_affected])),
            shape=(len(affected), n))

        jump = 1.0 / n
        scores = scores.copy()
        residual = float("inf")
        iterations = 0
        for iterations in range(1, self.max_iter + 1):
            dangling_mass = float(scores[dangling].sum())
            updated = self.damping * (pull @ scores
                                      + dangling_mass * jump) \
                + (1.0 - self.damping) * jump
            residual = float(np.abs(updated - scores[affected]).sum())
            scores[affected] = updated
            if residual <= self.tol:
                break
        converged = residual <= self.tol
        scores /= scores.sum()
        return scores, iterations, residual, converged

    # ------------------------------------------------------------------

    def exact_scores(self) -> np.ndarray:
        """Full TWPR recompute on the current graph (the E6 comparator)."""
        result = time_weighted_pagerank(
            self.graph, self.years, decay=self.decay, damping=self.damping,
            tol=self.tol, max_iter=self.max_iter, method="auto")
        return result.scores

    def error_vs_exact(self) -> float:
        """L1 distance between maintained and exactly recomputed scores."""
        return float(np.abs(self.scores - self.exact_scores()).sum())
