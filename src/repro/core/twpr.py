"""Time-Weighted PageRank (TWPR) — the paper's prestige measure.

Classic PageRank treats each reference of an article as an equal
endorsement. TWPR weights the reference ``u -> v`` by a decay on the
publication gap ``t(u) - t(v)``: the random reader prefers following
references to work that was recent *when the citing article was written*,
because those citations reflect active intellectual influence rather than
ritual acknowledgment. Prestige is the stationary distribution of that
time-biased walk.

Two solvers share one fixed point:

* ``power`` — damped power iteration on the weighted transition matrix
  (the naive baseline of experiment E4).
* ``levels`` — the **batch optimization**: Gauss–Seidel sweeps
  (:func:`repro.ranking.gauss_seidel.gauss_seidel_pagerank`, level
  kernel) over the time-weighted edges. Nodes are grouped into
  topological levels of the (condensed) citation DAG and each level is
  updated as one vectorized operation. Because citations point backward
  in time, one level sweep is an almost-exact forward substitution, so a
  handful of sweeps converge (only the dangling-mass feedback iterates).

Once the edge weights are fixed the time-biased walk is ordinary
weighted PageRank, so neither solver lives here: this module computes
the weights and hands them on.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConfigError, ConvergenceError
from repro.graph.csr import CSRGraph
from repro.core.time_weight import TimeDecay, exponential_decay
from repro.ranking.gauss_seidel import gauss_seidel_pagerank
from repro.ranking.pagerank import pagerank

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
    gap = np.maximum(years[graph.edge_sources()] - years[graph.indices],
                     0.0)
    weights = np.asarray(decay(gap), dtype=np.float64)
    if weights.shape != gap.shape:
        raise ConfigError("decay must return one weight per edge")
    if np.any(weights < 0) or np.any(weights > 1.0 + 1e-12):
        raise ConfigError("decay weights must lie in [0, 1]")
    return weights


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
        method: ``"power"``, ``"levels"`` or ``"auto"`` (levels — the
            optimized batch solver).
        telemetry: optional :class:`repro.obs.SolverTelemetry` recording
            the residual trajectory, dangling-mass trajectory, the
            solver's per-iteration convergence stream (``"pagerank"`` or
            ``"gauss_seidel"``) and the level count. Observational only
            — scores are bit-identical with telemetry on or off.
        obs: optional :class:`repro.obs.Observability` handle wrapping
            the solve in a ``twpr.solve`` span (the solver's own
            ``pagerank.solve`` / ``gauss_seidel.solve`` span nests
            underneath) and supplying telemetry when ``telemetry``
            itself is not given.
        Other args as in :func:`repro.ranking.pagerank.pagerank`.

    ``jump`` and ``initial`` go to the solver as given; both solvers
    run them through :func:`repro.ranking.pagerank.validate_jump` /
    ``validate_initial`` (shape, finiteness, non-negativity, positive
    mass), so a zero-sum or wrong-shaped warm start fails loudly
    instead of yielding NaNs.
    """
    if method not in ("auto", "power", "levels"):
        raise ConfigError(f"unknown method {method!r}")
    if not 0.0 <= damping < 1.0:
        raise ConfigError(f"damping must be in [0, 1), got {damping}")
    if tol <= 0 or max_iter <= 0:
        raise ConfigError("tol and max_iter must be positive")
    if method == "auto":
        method = "levels"

    if obs is not None and telemetry is None:
        telemetry = obs.telemetry
    if telemetry is not None:
        telemetry.solver = method

    if decay is None:
        decay = exponential_decay(0.1)
    weights = time_weight_edges(graph, years, decay)

    span = obs.span("twpr.solve", method=method, nodes=graph.num_nodes,
                    edges=graph.num_edges) \
        if obs is not None else nullcontext()
    with span:
        if method == "levels":
            base = gauss_seidel_pagerank(graph, damping=damping, tol=tol,
                                         max_sweeps=max_iter, jump=jump,
                                         edge_weights=weights,
                                         initial=initial, kernel="levels",
                                         telemetry=telemetry, obs=obs)
        else:
            base = pagerank(graph, damping=damping, tol=tol,
                            max_iter=max_iter, jump=jump,
                            edge_weights=weights, initial=initial,
                            telemetry=telemetry, obs=obs)
    if raise_on_divergence and not base.converged:
        raise ConvergenceError(
            f"TWPR ({method}) did not reach tol={tol} in "
            f"{max_iter} iterations (residual={base.residual:.3e})",
            base.iterations, base.residual)
    return TWPRResult(base.scores, base.iterations, base.residual,
                      base.converged, method)
