"""Damped power-iteration PageRank over CSR graphs.

This is the single matrix-form engine shared by plain PageRank, CiteRank
(personalized jump) and Time-Weighted PageRank (time-decayed edge weights):
they differ only in the jump vector and edge weights they pass in.

Semantics: scores form a probability distribution (L1 norm 1). A step is

    s' = damping * (P^T s + dangling_mass * jump) + (1 - damping) * jump

where ``P`` is the row-normalized (out-edge) transition matrix over the
effective edge weights and ``dangling_mass`` is the score sitting on nodes
without out-edges, re-injected through the jump vector (the standard
stochastic completion).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import ConfigError, ConvergenceError
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.handle import Observability
    from repro.obs.telemetry import SolverTelemetry


@dataclass(frozen=True)
class PageRankResult:
    """Outcome of a PageRank-style solve.

    Attributes:
        scores: ``float64[n]`` stationary distribution (sums to 1).
        iterations: number of power-iteration steps performed.
        residual: final L1 step difference.
        converged: whether ``residual <= tol`` within the budget.
    """

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool


def validate_jump(jump: Optional[np.ndarray], n: int) -> np.ndarray:
    """Normalize/validate a jump (personalization) vector of length ``n``."""
    if jump is None:
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        return np.full(n, 1.0 / n, dtype=np.float64)
    vector = np.asarray(jump, dtype=np.float64)
    if vector.shape != (n,):
        raise ConfigError(f"jump vector must have shape ({n},), "
                          f"got {vector.shape}")
    if np.any(vector < 0) or not np.all(np.isfinite(vector)):
        raise ConfigError("jump vector must be finite and non-negative")
    total = vector.sum()
    if total <= 0:
        raise ConfigError("jump vector must have positive mass")
    return vector / total


def validate_initial(initial: Optional[np.ndarray],
                     n: int) -> Optional[np.ndarray]:
    """Normalize/validate a warm-start distribution of length ``n``.

    Mirrors :func:`validate_jump`: the vector must have shape ``(n,)``,
    be finite and non-negative, and carry positive total mass — a
    zero-sum or NaN-bearing warm start would otherwise seed every solver
    with silent NaNs. ``None`` passes through (solvers then start from
    the jump vector).
    """
    if initial is None:
        return None
    vector = np.asarray(initial, dtype=np.float64)
    if vector.shape != (n,):
        raise ConfigError(f"initial distribution must have shape ({n},), "
                          f"got {vector.shape}")
    if np.any(vector < 0) or not np.all(np.isfinite(vector)):
        raise ConfigError(
            "initial distribution must be finite and non-negative")
    total = vector.sum()
    if total <= 0:
        raise ConfigError("initial distribution must have positive mass")
    return vector / total


def validate_edge_weights(graph: CSRGraph,
                          edge_weights: Optional[np.ndarray] = None
                          ) -> np.ndarray:
    """Resolve and validate a per-edge weight override.

    Returns the graph's stored weights when ``edge_weights`` is ``None``;
    otherwise checks shape against the edge array and rejects negative or
    non-finite entries. Every solver entry point — ``pagerank``,
    ``gauss_seidel_pagerank`` and the block engines — funnels through
    this one guard so a NaN/negative override cannot silently corrupt
    one engine's fixed point while the others reject it.
    """
    weights = graph.weights if edge_weights is None \
        else np.asarray(edge_weights, dtype=np.float64)
    if weights.shape != graph.weights.shape:
        raise ConfigError(
            f"edge_weights must have shape {graph.weights.shape}, "
            f"got {weights.shape}")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ConfigError("edge weights must be finite and non-negative")
    return weights


def transition_probabilities(graph: CSRGraph, weights: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-normalise the out-weights: ``(src_idx, probability, dangling)``.

    ``probability[e]`` is edge ``e``'s weight over its source's total
    out-weight. Nodes whose outgoing weight sums to zero are *dangling*
    — including nodes that have edges but all of weight zero. Every
    solver builds its operator from this one function, so they share a
    transition matrix bit for bit.
    """
    src_idx = graph.edge_sources()
    strengths = np.bincount(src_idx, weights=weights,
                            minlength=graph.num_nodes)
    dangling = strengths == 0.0
    probability = weights / np.where(dangling, 1.0, strengths)[src_idx]
    return src_idx, probability, dangling


def build_transition(graph: CSRGraph,
                     edge_weights: Optional[np.ndarray] = None
                     ) -> Tuple[csr_matrix, np.ndarray]:
    """Build ``(P_transposed, dangling_mask)`` for ``graph``.

    ``P`` is the out-edge row-normalized transition matrix over
    ``edge_weights`` (default: the graph's stored weights).
    """
    n = graph.num_nodes
    _, probability, dangling = transition_probabilities(
        graph, validate_edge_weights(graph, edge_weights))
    transition = csr_matrix((probability, graph.indices, graph.indptr),
                            shape=(n, n))
    return transition.T.tocsr(), dangling


def pagerank(graph: CSRGraph, damping: float = 0.85,
             tol: float = 1e-10, max_iter: int = 200,
             jump: Optional[np.ndarray] = None,
             edge_weights: Optional[np.ndarray] = None,
             initial: Optional[np.ndarray] = None,
             raise_on_divergence: bool = False,
             telemetry: Optional["SolverTelemetry"] = None,
             obs: Optional["Observability"] = None
             ) -> PageRankResult:
    """Compute (weighted, personalized) PageRank of ``graph``.

    Args:
        graph: CSR snapshot; an edge ``u -> v`` passes score from ``u``
            to ``v`` (for citation graphs: citing endorses cited).
        damping: probability of following an edge rather than jumping.
        tol: L1 convergence tolerance on successive iterates.
        max_iter: iteration budget.
        jump: optional personalization vector (normalized internally).
        edge_weights: optional per-edge weight override aligned with
            ``graph.weights`` — how Time-Weighted PageRank plugs in.
        initial: optional warm-start distribution (normalized internally);
            warm starts are what make incremental re-solves cheap.
        raise_on_divergence: raise :class:`ConvergenceError` instead of
            returning a non-converged result.
        telemetry: optional :class:`repro.obs.SolverTelemetry` recording
            the per-iteration residual and dangling-mass trajectory plus
            a ``"pagerank"`` convergence stream (residual / max per-node
            delta / active-node count per iteration). Purely
            observational — scores are identical with it on or off.
        obs: optional :class:`repro.obs.Observability` handle; wraps the
            solve in a ``pagerank.solve`` span and supplies telemetry
            when ``telemetry`` itself is not given.

    Returns:
        :class:`PageRankResult` with the stationary distribution.
    """
    if not 0.0 <= damping < 1.0:
        raise ConfigError(f"damping must be in [0, 1), got {damping}")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if max_iter <= 0:
        raise ConfigError("max_iter must be positive")

    if obs is not None and telemetry is None:
        telemetry = obs.telemetry

    n = graph.num_nodes
    if n == 0:
        return PageRankResult(np.zeros(0), 0, 0.0, True)

    jump_vector = validate_jump(jump, n)
    transition_t, dangling = build_transition(graph, edge_weights)

    validated = validate_initial(initial, n)
    scores = validated.copy() if validated is not None \
        else jump_vector.copy()

    span = obs.span("pagerank.solve", nodes=n, edges=graph.num_edges) \
        if obs is not None else nullcontext()
    stream = telemetry.open_stream("pagerank") \
        if telemetry is not None else None
    with span:
        residual = float("inf")
        iterations = 0
        for iterations in range(1, max_iter + 1):
            step_start = time.perf_counter()
            dangling_mass = float(scores[dangling].sum())
            new_scores = damping * (transition_t @ scores
                                    + dangling_mass * jump_vector) \
                + (1.0 - damping) * jump_vector
            # Guard against numeric drift: keep it a distribution.
            new_scores /= new_scores.sum()
            change = np.abs(new_scores - scores)
            residual = float(change.sum())
            scores = new_scores
            if telemetry is not None:
                telemetry.record_iteration(residual, dangling_mass)
                stream.record(
                    residual, delta=float(change.max()),
                    active=int(np.count_nonzero(change > tol)),
                    seconds=time.perf_counter() - step_start)
            if residual <= tol:
                return PageRankResult(scores, iterations, residual, True)
    if raise_on_divergence:
        raise ConvergenceError(
            f"PageRank did not reach tol={tol} in {max_iter} iterations "
            f"(residual={residual:.3e})", iterations, residual)
    return PageRankResult(scores, iterations, residual, False)
