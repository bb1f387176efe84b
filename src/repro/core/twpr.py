"""Time-Weighted PageRank (TWPR) — the paper's prestige measure.

Classic PageRank treats each reference of an article as an equal
endorsement. TWPR weights the reference ``u -> v`` by a decay on the
publication gap ``t(u) - t(v)``: the random reader prefers following
references to work that was recent *when the citing article was written*,
because those citations reflect active intellectual influence rather than
ritual acknowledgment. Prestige is the stationary distribution of that
time-biased walk.

Three solvers share one fixed point:

* ``power`` — damped power iteration on the weighted transition matrix
  (the naive baseline of experiment E4).
* ``gauss_seidel`` — per-node sweeps in influence order
  (:mod:`repro.ranking.gauss_seidel`).
* ``levels`` — the **batch optimization**: nodes are grouped into
  topological levels of the (condensed) citation DAG and each level is
  updated as one vectorized operation. Because citations point backward
  in time, one level sweep is an almost-exact forward substitution, so a
  handful of sweeps converge (only the dangling-mass feedback iterates).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import ConfigError, ConvergenceError
from repro.graph.csr import CSRGraph
from repro.graph.toposort import topological_levels
from repro.core.time_weight import TimeDecay, exponential_decay
from repro.ranking.gauss_seidel import gauss_seidel_pagerank
from repro.ranking.pagerank import pagerank, validate_initial, validate_jump

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.handle import Observability
    from repro.obs.telemetry import SolverTelemetry


@dataclass(frozen=True)
class TWPRResult:
    """Outcome of a Time-Weighted PageRank solve."""

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool
    method: str


def time_weight_edges(graph: CSRGraph, years: np.ndarray,
                      decay: TimeDecay) -> np.ndarray:
    """Per-edge time weights ``decay(max(t(src) - t(dst), 0))``.

    Forward-in-time edges (data noise: the cited article is "newer") get
    gap 0, i.e. full weight — they are simultaneous in practice.
    """
    years = np.asarray(years, dtype=np.float64)
    if years.shape != (graph.num_nodes,):
        raise ConfigError("years must align with graph nodes")
    src_idx, dst_idx, _ = graph.edge_array()
    gap = np.maximum(years[src_idx] - years[dst_idx], 0.0)
    weights = np.asarray(decay(gap), dtype=np.float64)
    if weights.shape != gap.shape:
        raise ConfigError("decay must return one weight per edge")
    if np.any(weights < 0) or np.any(weights > 1.0 + 1e-12):
        raise ConfigError("decay weights must lie in [0, 1]")
    return weights


def _node_levels(graph: CSRGraph) -> np.ndarray:
    """Topological level of every node (0 = no in-edges).

    Thin wrapper kept for backward compatibility: the level
    decomposition now lives in
    :func:`repro.graph.toposort.topological_levels`, shared with the
    vectorized Gauss–Seidel kernels.
    """
    return topological_levels(graph).levels


def _level_operators(graph: CSRGraph, weights: np.ndarray
                     ) -> List[Tuple[np.ndarray, csr_matrix]]:
    """Per-level pull operators.

    Returns a list (ascending level) of ``(nodes, matrix)`` where
    ``matrix @ scores`` yields, for each node in ``nodes``, the
    transition-probability-weighted sum over its in-edges.
    """
    n = graph.num_nodes
    src_idx, dst_idx = graph.edge_sources(), graph.indices
    strengths = np.bincount(src_idx, weights=weights, minlength=n)
    dangling = strengths == 0.0
    probability = weights / np.where(dangling, 1.0, strengths)[src_idx]

    levels = _node_levels(graph)
    operators: List[Tuple[np.ndarray, csr_matrix]] = []
    num_levels = int(levels.max()) + 1 if n else 0
    # Permute nodes so level blocks are contiguous; one stable sort of
    # the edges by permuted destination yields every level's CSR block
    # as a pair of array slices — no per-level construction cost.
    node_order = np.argsort(levels, kind="stable")
    node_bounds = np.searchsorted(levels[node_order],
                                  np.arange(num_levels + 1))
    rank_of_node = np.empty(n, dtype=np.int64)
    rank_of_node[node_order] = np.arange(n)
    rows = rank_of_node[dst_idx]
    edge_order = np.argsort(rows, kind="stable")
    sorted_src = src_idx[edge_order]
    sorted_probability = probability[edge_order]
    global_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=global_indptr[1:])
    for level in range(num_levels):
        row_lo = int(node_bounds[level])
        row_hi = int(node_bounds[level + 1])
        edge_lo = int(global_indptr[row_lo])
        edge_hi = int(global_indptr[row_hi])
        block_indptr = global_indptr[row_lo:row_hi + 1] - edge_lo
        matrix = csr_matrix(
            (sorted_probability[edge_lo:edge_hi],
             sorted_src[edge_lo:edge_hi], block_indptr),
            shape=(row_hi - row_lo, n))
        operators.append((node_order[row_lo:row_hi], matrix))
    return operators


def _levels_solve(graph: CSRGraph, weights: np.ndarray, damping: float,
                  tol: float, max_sweeps: int, jump: np.ndarray,
                  initial: Optional[np.ndarray],
                  telemetry: Optional["SolverTelemetry"] = None,
                  obs: Optional["Observability"] = None
                  ) -> TWPRResult:
    """Vectorized level-sweep Gauss–Seidel (the batch optimization).

    ``initial``, when given, must already be validated/normalized (the
    public entry point :func:`time_weighted_pagerank` runs
    :func:`repro.ranking.pagerank.validate_initial` once for all three
    solvers).
    """
    n = graph.num_nodes
    src_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    strengths = np.bincount(src_idx, weights=weights, minlength=n)
    dangling = strengths == 0.0
    operators = _level_operators(graph, weights)
    if telemetry is not None:
        telemetry.set_counter("levels", len(operators))
        telemetry.set_counter("dangling_nodes",
                              int(np.count_nonzero(dangling)))

    scores = jump.copy() if initial is None \
        else np.asarray(initial, dtype=np.float64).copy()
    span = obs.span("twpr.levels_solve", nodes=n,
                    levels=len(operators)) \
        if obs is not None else nullcontext()
    stream = telemetry.open_stream("twpr.levels") \
        if telemetry is not None else None
    with span:
        residual = float("inf")
        sweeps = 0
        for sweeps in range(1, max_sweeps + 1):
            sweep_start = time.perf_counter()
            previous = scores.copy()
            dangling_mass = float(scores[dangling].sum())
            for nodes, matrix in operators:
                pulled = matrix @ scores
                scores[nodes] = damping * (pulled
                                           + dangling_mass * jump[nodes]) \
                    + (1.0 - damping) * jump[nodes]
            scores /= scores.sum()
            change = np.abs(scores - previous)
            residual = float(change.sum())
            if telemetry is not None:
                telemetry.record_iteration(residual, dangling_mass)
                stream.record(
                    residual, delta=float(change.max()),
                    active=int(np.count_nonzero(change > tol)),
                    seconds=time.perf_counter() - sweep_start)
            if residual <= tol:
                return TWPRResult(scores, sweeps, residual, True, "levels")
    return TWPRResult(scores, sweeps, residual, False, "levels")


def time_weighted_pagerank(graph: CSRGraph, years: np.ndarray,
                           decay: Optional[TimeDecay] = None,
                           damping: float = 0.85, tol: float = 1e-10,
                           max_iter: int = 200,
                           jump: Optional[np.ndarray] = None,
                           method: str = "auto",
                           initial: Optional[np.ndarray] = None,
                           raise_on_divergence: bool = False,
                           telemetry: Optional["SolverTelemetry"] = None,
                           obs: Optional["Observability"] = None
                           ) -> TWPRResult:
    """Compute TWPR prestige scores.

    Args:
        graph: citation graph (citing -> cited).
        years: publication year per node index.
        decay: time-decay kernel (default ``exponential_decay(0.1)``).
        method: ``"power"``, ``"gauss_seidel"``, ``"levels"`` or
            ``"auto"`` (levels — the optimized batch solver).
        telemetry: optional :class:`repro.obs.SolverTelemetry` recording
            the residual trajectory (all three solvers), dangling-mass
            trajectory, a per-iteration convergence stream and the level
            count. Observational only — scores are bit-identical with
            telemetry on or off.
        obs: optional :class:`repro.obs.Observability` handle wrapping
            the solve in a ``twpr.solve`` span (nested solver spans
            appear underneath) and supplying telemetry when
            ``telemetry`` itself is not given.
        Other args as in :func:`repro.ranking.pagerank.pagerank`.

    ``initial`` is validated once here for all three solvers (shape,
    finiteness, non-negativity, positive mass — mirroring
    :func:`repro.ranking.pagerank.validate_jump`), so a zero-sum or
    wrong-shaped warm start fails loudly instead of yielding NaNs.
    """
    if method not in ("auto", "power", "gauss_seidel", "levels"):
        raise ConfigError(f"unknown method {method!r}")
    if not 0.0 <= damping < 1.0:
        raise ConfigError(f"damping must be in [0, 1), got {damping}")
    if tol <= 0 or max_iter <= 0:
        raise ConfigError("tol and max_iter must be positive")

    if obs is not None and telemetry is None:
        telemetry = obs.telemetry

    if decay is None:
        decay = exponential_decay(0.1)
    weights = time_weight_edges(graph, years, decay)
    n = graph.num_nodes
    if n == 0:
        return TWPRResult(np.zeros(0), 0, 0.0, True, method)
    jump_vector = validate_jump(jump, n)
    initial_vector = validate_initial(initial, n)
    if telemetry is not None:
        telemetry.solver = "levels" if method == "auto" else method

    span = obs.span("twpr.solve", method=method, nodes=n,
                    edges=graph.num_edges) \
        if obs is not None else nullcontext()
    with span:
        if method in ("auto", "levels"):
            result = _levels_solve(graph, weights, damping, tol, max_iter,
                                   jump_vector, initial_vector,
                                   telemetry=telemetry, obs=obs)
        elif method == "power":
            base = pagerank(graph, damping=damping, tol=tol,
                            max_iter=max_iter, jump=jump_vector,
                            edge_weights=weights, initial=initial_vector,
                            telemetry=telemetry, obs=obs)
            result = TWPRResult(base.scores, base.iterations, base.residual,
                                base.converged, "power")
        else:
            base = gauss_seidel_pagerank(graph, damping=damping, tol=tol,
                                         max_sweeps=max_iter,
                                         jump=jump_vector,
                                         edge_weights=weights,
                                         initial=initial_vector,
                                         telemetry=telemetry, obs=obs)
            result = TWPRResult(base.scores, base.iterations, base.residual,
                                base.converged, "gauss_seidel")
    if raise_on_divergence and not result.converged:
        raise ConvergenceError(
            f"TWPR ({result.method}) did not reach tol={tol} in "
            f"{max_iter} iterations (residual={result.residual:.3e})",
            result.iterations, result.residual)
    return result
