"""Parallel-engine CI smoke benchmark (small, fast, gated).

Runs the block-centric parallel engine on a small synthetic citation
graph over both IPC data planes and writes one ``RunReport`` with:

* ``metrics/bytes_shipped_shm`` / ``metrics/bytes_shipped_pickle`` —
  bytes actually serialized toward workers (the shm plane must stay at
  the control-message floor: these numbers are deterministic for a
  fixed graph/worker count, so regressions here mean the data plane
  started shipping arrays again);
* ``metrics/supersteps_*`` — convergence behavior (deterministic);
* ``metrics/blocks_skipped_*`` — frontier-compaction savings
  (deterministic for a fixed graph/worker count, and the rule has no
  off switch, so hard-gated like the superstep count);
* ``timings/*_run`` — wall-clock per plane (noisy on shared runners);
* ``timings/kernel_*`` / ``metrics/kernel_speedup`` — per-node vs
  batched level-kernel Gauss–Seidel sweep wall-clock on a synthetic
  citation DAG (soft: timing keys are never hard-gated, and the
  speedup ratio is reported for trend-watching).

CI diffs the report against the committed baseline with::

    python benchmarks/compare.py benchmarks/baselines/parallel_smoke.json \
        OUT.json --hard-prefix metrics/bytes_ --hard-prefix metrics/supersteps_ \
        --hard-prefix metrics/blocks_skipped_

so byte/superstep/skip regressions fail the build while timing noise is
reported but soft. Regenerate the baseline (after an *intentional*
change) by running this script with ``--json`` pointed at the baseline
path.

Named ``smoke.py`` (not ``bench_*.py``) on purpose: ``bench_*`` files
are collected by pytest as benchmark suites; this is a standalone
script for CI.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro.bench.workloads import sized_citation_graph
from repro.engine.parallel import ParallelBlockEngine
from repro.graph.csr import CSRGraph
from repro.graph.partition import range_partition
from repro.obs import RunReport, SolverTelemetry, StageTimings
from repro.ranking.gauss_seidel import gauss_seidel_pagerank

PLANES = (("shm", True), ("pickle", False))


#: Sweeps per timed solve. Gauss–Seidel in influence order converges in
#: ~2 sweeps on a DAG, which would make whole-solve timing mostly
#: measure level-plan construction; an unreachable ``tol`` disables the
#: convergence exit so both kernels execute exactly this many sweeps.
KERNEL_SWEEPS = 10


def kernel_section(report: RunReport, timings: StageTimings,
                   nodes: int, edges: int, reps: int) -> bool:
    """Time the per-node vs level-kernel sweep on a citation DAG.

    Returns False when the two kernels disagree (a correctness bug,
    not a perf regression — the caller aborts).
    """
    rng = np.random.default_rng(9)
    a = rng.integers(0, nodes, edges)
    b = rng.integers(0, nodes, edges)
    keep = a != b
    # Newer articles cite older ones: src > dst, acyclic by construction.
    src = np.maximum(a[keep], b[keep])
    dst = np.minimum(a[keep], b[keep])
    graph = CSRGraph.from_edges(zip(src.tolist(), dst.tolist()),
                                nodes=range(nodes))

    best = {}
    results = {}
    for kernel in ("pernode", "levels"):
        elapsed = []
        for _ in range(reps):
            start = time.perf_counter()
            results[kernel] = gauss_seidel_pagerank(
                graph, tol=1e-300, max_sweeps=KERNEL_SWEEPS,
                kernel=kernel)
            elapsed.append(time.perf_counter() - start)
        best[kernel] = min(elapsed)
        timings.add(f"kernel_{kernel}", best[kernel])

    drift = float(np.abs(results["levels"].scores
                         - results["pernode"].scores).max())
    if drift > 1e-12:
        print(f"FATAL: kernels disagree (max drift {drift:.3g})",
              file=sys.stderr)
        return False
    speedup = best["pernode"] / best["levels"]
    report.record_metric("kernel_nodes", nodes)
    report.record_metric("kernel_sweeps", KERNEL_SWEEPS)
    report.record_metric("kernel_speedup", round(speedup, 2))
    print(f"kernel: pernode {best['pernode']:.3f}s, levels "
          f"{best['levels']:.3f}s ({speedup:.1f}x over "
          f"{KERNEL_SWEEPS} sweeps)")
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Small parallel-engine benchmark; writes a "
                    "RunReport for benchmarks/compare.py gating.")
    parser.add_argument("--json", required=True,
                        help="where to write the RunReport")
    parser.add_argument("--scale", type=int, default=3000,
                        help="synthetic corpus size (articles)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--blocks", type=int, default=6)
    parser.add_argument("--kernel-nodes", type=int, default=10_000,
                        help="DAG size for the sweep-kernel timing")
    parser.add_argument("--kernel-edges", type=int, default=200_000,
                        help="candidate edges for the kernel DAG")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions for kernel timing")
    args = parser.parse_args(argv)

    graph, _ = sized_citation_graph(args.scale)
    partition = range_partition(graph, args.blocks)
    timings = StageTimings()
    report = RunReport("parallel-smoke", timings=timings)
    report.record_metric("scale", args.scale)
    report.record_metric("workers", args.workers)
    report.record_metric("blocks", args.blocks)

    scores = {}
    for name, flag in PLANES:
        telemetry = SolverTelemetry("parallel")
        engine = ParallelBlockEngine(graph, partition,
                                     num_workers=args.workers,
                                     shared_memory=flag)
        start = time.perf_counter()
        result = engine.run(telemetry=telemetry)
        seconds = time.perf_counter() - start
        if not result.converged:
            print(f"FATAL: {name} plane did not converge",
                  file=sys.stderr)
            return 2
        timings.add(f"{name}_run", seconds)
        scores[name] = result.scores
        report.record_metric(f"bytes_shipped_{name}",
                             telemetry.bytes_shipped)
        report.record_metric(f"supersteps_{name}", result.supersteps)
        report.record_metric(f"blocks_skipped_{name}",
                             result.blocks_skipped)
        if flag is True:
            report.record_metric(
                "shm_segment_bytes",
                int(telemetry.counters.get("ipc.shm_bytes", 0)))
        print(f"{name:>6}: {seconds:.3f}s, {result.supersteps} "
              f"supersteps, {telemetry.bytes_shipped} bytes shipped")

    if not np.array_equal(scores["shm"], scores["pickle"]):
        print("FATAL: data planes disagree on the fixed point",
              file=sys.stderr)
        return 2
    if not kernel_section(report, timings, args.kernel_nodes,
                          args.kernel_edges, args.reps):
        return 2
    print(f"wrote {report.save(args.json)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
