"""Sharded serve-load CI smoke benchmark (small, fast, gated).

Runs the serve-load drill (:func:`repro.drill.run_drill` with an
:class:`~repro.drill.ArrivalFeed`): the K-shard scatter-gather gateway
under publish churn with one shard crash-faulted mid-run. The drill's
``RunReport`` carries, among the rest:

* ``metrics/merge_mismatches`` — merged top-k entries that differ from
  the published ranking's own order (bit-exact compare: ids, scores,
  tie order). Deterministic, must stay 0;
* ``metrics/queries_failed`` / ``metrics/shards_missing`` — reads that
  failed outright and shards still degraded after ``repair()``.
  Deterministic, must stay 0;
* ``metrics/num_shards`` / ``metrics/board_epoch`` — run shape
  (deterministic for fixed arguments);
* ``metrics/p50_ms`` / ``metrics/tail_ms`` / ``metrics/avg_latency_ms``
  — latency under churn, the tail at ``metrics/tail_pct``: the highest
  percentile with ten samples beyond it (noisy on shared runners).

CI diffs the report against the committed baseline with::

    python benchmarks/compare.py benchmarks/baselines/serve_load_smoke.json \
        OUT.json --hard-prefix metrics/merge_mismatches \
        --hard-prefix metrics/queries_failed \
        --hard-prefix metrics/shards_ --hard-prefix metrics/num_shards

so merge/correctness regressions fail the build while latency noise is
reported but soft. The script additionally self-checks the degradation
story: the crashed shard must be *visible* in ``health()`` while the
fault is live and fully repaired afterwards — a silent fault or a
failed repair exits 2 before any report is written.

Regenerate the baseline (after an *intentional* change) by running this
script with ``--json`` pointed at the baseline path.

Named ``serve_load_smoke.py`` (not ``bench_*.py``) on purpose:
``bench_*`` files are collected by pytest as benchmark suites; this is
a standalone script for CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.data.generator import GeneratorConfig, generate_dataset
from repro.drill import ArrivalFeed, render, run_drill
from repro.resilience import FaultPlan

CRASHED_SHARD = 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Small sharded serve-load benchmark; writes a "
                    "RunReport for benchmarks/compare.py gating.")
    parser.add_argument("--json", required=True,
                        help="where to write the RunReport")
    parser.add_argument("--scale", type=int, default=400,
                        help="synthetic corpus size (articles)")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--mode", choices=("inline", "process"),
                        default="inline")
    parser.add_argument("--batches", type=int, default=3)
    parser.add_argument("--readers", type=int, default=4)
    parser.add_argument("--queries", type=int, default=25,
                        help="queries each reader issues")
    args = parser.parse_args(argv)

    config = GeneratorConfig(num_articles=args.scale, num_venues=8,
                             num_authors=args.scale // 4,
                             start_year=2000, end_year=2012, seed=23)
    dataset = generate_dataset(config)
    report = run_drill(
        dataset, ArrivalFeed(batches=args.batches, batch_size=16,
                             shards=args.shards, mode=args.mode),
        readers=args.readers, queries=args.queries,
        fault_plan=FaultPlan.of(f"shard:crash:{CRASHED_SHARD},1"))
    report.name = "serve_load_smoke"
    print(render(report))
    metrics = report.metrics

    if metrics["status"] != "ok":
        print(f"FATAL: run {metrics['status']}: {metrics['error']}",
              file=sys.stderr)
        return 2
    if metrics["degraded_during"] != [CRASHED_SHARD]:
        print(f"FATAL: crashed shard {CRASHED_SHARD} not visible in "
              f"health() while faulted (saw "
              f"{metrics['degraded_during']})", file=sys.stderr)
        return 2
    if metrics["shards_missing"] \
            or metrics["health"].get("status") != "fresh":
        print("FATAL: repair() did not restore every shard",
              file=sys.stderr)
        return 2
    if metrics["merge_mismatches"]:
        print(f"FATAL: {metrics['merge_mismatches']} merged entries "
              f"differ from the published ranking", file=sys.stderr)
        return 2

    print(f"wrote {report.save(args.json)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
