"""E4 — Batch-efficiency figure (paper analogue: runtime of the batch
algorithm, naive vs. optimized TWPR, as the graph grows).

Expected shape: the optimized level-sweep solver needs a near-constant
handful of sweeps while naive power iteration needs tens of iterations,
and the two fixed points agree to solver tolerance.

Measured finding (recorded in EXPERIMENTS.md): on a *single machine with
vectorized matvecs*, power iteration is already near-optimal on shallow
citation DAGs — its iteration count tracks the DAG depth, not
log(tol)/log(damping) — so the optimization's wall-clock win does not
materialize here; its 5-15x win is in *rounds*, which is the cost that
matters when every round is a distributed superstep (see E5). We report
both columns honestly.
"""

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.bench.runner import PerfArtifact
from repro.bench.tables import render_series
from repro.bench.workloads import sized_citation_graph
from repro.core.time_weight import TimeDecay
from repro.core.twpr import TWPRResult, time_weighted_pagerank
from repro.graph.csr import CSRGraph

SIZES = [5_000, 10_000, 20_000, 40_000, 80_000]


@dataclass(frozen=True)
class SolverComparison:
    """Naive vs. optimized TWPR on one input (one E4 row).

    ``agreement_l1`` is the L1 distance between the two fixed points —
    it should sit at solver tolerance, proving the optimization changes
    the path, not the answer.
    """

    num_nodes: int
    num_edges: int
    naive: TWPRResult
    naive_seconds: float
    optimized: TWPRResult
    optimized_seconds: float

    @property
    def iteration_speedup(self) -> float:
        if self.optimized.iterations == 0:
            return float("inf")
        return self.naive.iterations / self.optimized.iterations

    @property
    def time_speedup(self) -> float:
        if self.optimized_seconds == 0:
            return float("inf")
        return self.naive_seconds / self.optimized_seconds

    @property
    def agreement_l1(self) -> float:
        return float(np.abs(self.naive.scores
                            - self.optimized.scores).sum())


def compare_solvers(graph: CSRGraph, years: np.ndarray,
                    decay: Optional[TimeDecay] = None,
                    damping: float = 0.85, tol: float = 1e-10,
                    max_iter: int = 200,
                    methods: Tuple[str, str] = ("power", "levels")
                    ) -> SolverComparison:
    """Time the naive and optimized TWPR solvers on the same input."""
    naive_method, optimized_method = methods

    start = time.perf_counter()
    naive = time_weighted_pagerank(graph, years, decay=decay,
                                   damping=damping, tol=tol,
                                   max_iter=max_iter, method=naive_method)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    optimized = time_weighted_pagerank(graph, years, decay=decay,
                                       damping=damping, tol=tol,
                                       max_iter=max_iter,
                                       method=optimized_method)
    optimized_seconds = time.perf_counter() - start

    return SolverComparison(
        num_nodes=graph.num_nodes, num_edges=graph.num_edges,
        naive=naive, naive_seconds=naive_seconds,
        optimized=optimized, optimized_seconds=optimized_seconds)


def test_e4_solver_scaling(benchmark, run_once):
    comparisons = run_once(benchmark, lambda: [
        compare_solvers(*sized_citation_graph(size)) for size in SIZES])

    artifact = PerfArtifact("E4")
    for comparison in comparisons:
        artifact.record(
            "solver_scaling",
            num_nodes=comparison.num_nodes,
            num_edges=comparison.num_edges,
            naive_iterations=comparison.naive.iterations,
            optimized_sweeps=comparison.optimized.iterations,
            naive_seconds=comparison.naive_seconds,
            optimized_seconds=comparison.optimized_seconds,
            iteration_speedup=comparison.iteration_speedup,
            time_speedup=comparison.time_speedup,
            agreement_l1=comparison.agreement_l1)
    print(f"\nwrote {artifact.save()}")

    print("\n" + render_series(
        "E4 TWPR batch solvers vs graph size "
        "(naive power iteration vs optimized level sweeps)",
        "|V|", SIZES,
        {
            "|E|": [c.num_edges for c in comparisons],
            "naive iters": [c.naive.iterations for c in comparisons],
            "opt sweeps": [c.optimized.iterations for c in comparisons],
            "naive ms": [f"{c.naive_seconds * 1e3:.1f}"
                         for c in comparisons],
            "opt ms": [f"{c.optimized_seconds * 1e3:.1f}"
                       for c in comparisons],
            "time speedup": [f"{c.time_speedup:.2f}x"
                             for c in comparisons],
            "L1 agreement": [f"{c.agreement_l1:.1e}"
                             for c in comparisons],
        }))

    for comparison in comparisons:
        assert comparison.agreement_l1 < 1e-8
        assert comparison.iteration_speedup > 5
        # Wall-clock stays within a small constant factor of the naive
        # solver (the iteration win is what transfers to distributed
        # rounds — see module docstring and E5).
        assert comparison.time_speedup > 0.05


def test_e4_warm_start(benchmark, run_once):
    """Warm-starting from slightly stale scores (the other batch trick)."""
    from repro.core.twpr import time_weighted_pagerank

    graph, years = sized_citation_graph(40_000)
    cold = time_weighted_pagerank(graph, years, method="power")

    warm = run_once(benchmark, lambda: time_weighted_pagerank(
        graph, years, method="power", initial=cold.scores))
    print(f"\nE4 warm start: cold {cold.iterations} iters -> warm "
          f"{warm.iterations} iters")
    assert warm.iterations < cold.iterations
