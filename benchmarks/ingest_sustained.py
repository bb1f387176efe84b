"""Sustained write-load freshness benchmark (partitioned → served).

Streams a long synthetic feed through the partitioned ingest pipeline
(:class:`repro.ingest.PartitionedIngestPipeline`) into a live
:class:`repro.serve.ShardedGateway` sink — the full record-to-served
path: K partition journals, deterministic fan-in, shared admission,
batch apply, board publish, shard scatter — with segment archival armed
so the journals stay bounded while the load runs. It writes one
``RunReport`` with:

* ``metrics/records_lost`` / ``metrics/duplicates_applied`` — clean
  feed records missing from (or double-applied to) the served corpus:
  multiset differences of article ids and citation pairs against the
  fault-free reference corpus.
  Deterministic: must stay 0 (CI hard-gates these);
* ``metrics/records_per_sec`` — sustained ingest throughput,
  pull-to-served (wall clock; soft);
* ``metrics/freshness_served_p50_ms`` / ``_p99_ms`` — arrival→served
  wall-clock latency percentiles from the shared
  ``repro_freshness_served_seconds`` histogram, ``stage="served"``
  (bucket upper bounds, so quantized; soft);
* ``metrics/segments_archived`` / ``metrics/segments_reclaimed_bytes``
  — journal segments reclaimed while the load ran (deterministic for
  fixed arguments);
* ``metrics/checkpoints_written`` — ``repro_checkpoints_total``: one
  rotation per applied batch, none for a commit that only moved
  cursors (deterministic; CI hard-gates it);
* ``metrics/checkpoint_corpus_records`` — records appended to the
  corpus log by every checkpoint after the first, which must be exactly
  the articles and citations applied after it: a checkpoint that
  rewrites the corpus, or one that drops a record, moves it
  (deterministic; CI hard-gates it);
* ``metrics/batches_applied`` / ``metrics/served_samples`` — run shape.

CI diffs the report against the committed baseline with::

    python benchmarks/compare.py \
        benchmarks/baselines/ingest_sustained.json OUT.json \
        --hard-prefix metrics/records_lost \
        --hard-prefix metrics/duplicates_applied \
        --hard-prefix metrics/checkpoints_written \
        --hard-prefix metrics/checkpoint_corpus_records

so loss, double application or a checkpoint that does more than its
batch fails the build while wall-clock throughput and latency drift on
shared runners stays soft. The script also self-checks — zero loss,
zero duplicates, served samples present, archival actually reclaimed
segments, checkpoints in step with batches — and exits 2 before writing
a report when the run itself is broken.

Regenerate the baseline (after an *intentional* change) by running this
script with ``--json`` pointed at the baseline path.

Named ``ingest_sustained.py`` (not ``bench_*.py``) on purpose:
``bench_*`` files are collected by pytest as benchmark suites; this is
a standalone script for CI.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.generator import GeneratorConfig, generate_dataset
from repro.engine.live import LiveRanker
from repro.ingest import (Coalescer, PartitionedIngestPipeline,
                          SyntheticSource, fault_free_reference)
from repro.ingest.sim import datasets_equal, delivery_diff
from repro.engine.updates import apply_update
from repro.obs import Observability
from repro.obs.metrics import FRESHNESS_METRIC
from repro.obs.report import RunReport
from repro.serve import ShardedGateway


def _served_percentiles(snapshot: Dict[str, object],
                        quantiles: Sequence[float]
                        ) -> Tuple[int, List[float]]:
    """(sample count, per-quantile upper bounds in ms) for
    ``stage="served"`` of the shared freshness histogram."""
    instrument = snapshot.get(FRESHNESS_METRIC) or {}
    for entry in instrument.get("values", []):
        if entry.get("labels", {}).get("stage") != "served":
            continue
        buckets = list(instrument.get("buckets", []))
        counts = list(entry.get("counts", []))
        total = sum(counts)
        if not total:
            return 0, [0.0 for _ in quantiles]
        results = []
        for quantile in quantiles:
            target = quantile * total
            cumulative = 0
            value = buckets[-1] if buckets else 0.0
            for index, count in enumerate(counts):
                cumulative += count
                if cumulative >= target:
                    # The overflow bucket has no upper bound; report
                    # the largest finite bound as the floor estimate.
                    value = buckets[index] if index < len(buckets) \
                        else buckets[-1]
                    break
            results.append(value * 1000.0)
        return total, results
    return 0, [0.0 for _ in quantiles]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sustained write-load benchmark: partitioned "
                    "ingest into a sharded serving gateway; writes a "
                    "RunReport for benchmarks/compare.py gating.")
    parser.add_argument("--json", required=True,
                        help="where to write the RunReport")
    parser.add_argument("--records", type=int, default=600,
                        help="synthetic feed length")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--segment-records", type=int, default=48,
                        help="journal segment size (small enough that "
                             "archival reclaims during the run)")
    args = parser.parse_args(argv)

    dataset = generate_dataset(GeneratorConfig(
        num_articles=150, num_venues=6, num_authors=50,
        start_year=2000, end_year=2015, seed=args.seed + 11))
    source = SyntheticSource(
        sorted(dataset.articles), args.records, seed=args.seed,
        duplicate_every=9, cite_every=5)

    workdir = Path(tempfile.mkdtemp(prefix="ingest-sustained-"))
    obs = Observability("ingest-sustained")
    try:
        live = LiveRanker(dataset,
                          checkpoint_dir=workdir / "checkpoints",
                          obs=obs)
        with ShardedGateway(live, args.shards, mode="inline",
                            obs=obs) as gateway:
            pipeline = PartitionedIngestPipeline(
                live, source, workdir / "journal", args.partitions,
                coalescer=Coalescer(max_queue=96, min_batch=16,
                                    max_batch=48),
                segment_records=args.segment_records,
                compaction="archive", sink=gateway, obs=obs)
            started = time.perf_counter()
            report = pipeline.run()
            elapsed = time.perf_counter() - started
        served_dataset = live.dataset
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = fault_free_reference(source, dataset)
    reference_dataset = apply_update(dataset, reference)
    lost, duplicated = delivery_diff(served_dataset, reference_dataset)
    identical = datasets_equal(served_dataset, reference_dataset)

    snapshot = obs.metrics.snapshot()
    served_samples, (p50_ms, p99_ms) = _served_percentiles(
        snapshot, (0.50, 0.99))
    checkpoints_written = int(
        snapshot["repro_checkpoints_total"]["values"][0]["value"])
    spans = obs.tracer.finished
    corpus_records = sum(
        span.attributes["records"] for span in
        [s for s in spans if s.name == "live.checkpoint"][1:])
    first_batch = next(s for s in spans if s.name == "ingest.batch")
    applied_after_first = (
        report.articles_applied + report.citations_applied
        - first_batch.attributes["articles"]
        - first_batch.attributes["citations"])
    records_per_sec = report.records_pulled / elapsed \
        if elapsed > 0 else 0.0

    print(f"# ingest-sustained: {report.records_pulled} records, "
          f"{args.partitions} partitions -> {args.shards} shards "
          f"in {elapsed:.3f}s ({records_per_sec:,.0f} rec/s)")
    print(f"#   served: n={served_samples} p50<={p50_ms:.2f}ms "
          f"p99<={p99_ms:.2f}ms")
    print(f"#   archival: {report.segments_archived} segment(s), "
          f"{report.segments_reclaimed_bytes} bytes reclaimed")
    print(f"#   checkpoints: {checkpoints_written} rotation(s), "
          f"{corpus_records} record(s) appended after the first")
    print(f"#   contract: lost={lost} duplicated={duplicated} "
          f"corpus_identical={identical}")

    if lost or duplicated or not identical:
        print(f"FATAL: served corpus diverged from the fault-free "
              f"reference (lost={lost}, duplicated={duplicated}, "
              f"identical={identical})", file=sys.stderr)
        return 2
    if checkpoints_written != report.batches_applied \
            or corpus_records != applied_after_first:
        print(f"FATAL: checkpoints out of step with batches — "
              f"{checkpoints_written} rotation(s) for "
              f"{report.batches_applied} batch(es), {corpus_records} "
              f"corpus record(s) appended after the first checkpoint "
              f"for {applied_after_first} applied", file=sys.stderr)
        return 2
    if not served_samples:
        print("FATAL: no served freshness samples — the gateway sink "
              "never published, so the benchmark measured nothing",
              file=sys.stderr)
        return 2
    if not report.segments_archived:
        print("FATAL: archival reclaimed no segments — shrink "
              "--segment-records or lengthen --records",
              file=sys.stderr)
        return 2

    run_report = RunReport("ingest-sustained")
    run_report.record_metric("records_total", report.records_pulled)
    run_report.record_metric("records_lost", lost)
    run_report.record_metric("duplicates_applied", duplicated)
    run_report.record_metric("corpus_identical", int(identical))
    run_report.record_metric("batches_applied", report.batches_applied)
    run_report.record_metric("checkpoints_written", checkpoints_written)
    run_report.record_metric("checkpoint_corpus_records", corpus_records)
    run_report.record_metric("duplicates_skipped",
                             report.duplicates_skipped)
    run_report.record_metric("segments_archived",
                             report.segments_archived)
    run_report.record_metric("segments_reclaimed_bytes",
                             report.segments_reclaimed_bytes)
    run_report.record_metric("served_samples", served_samples)
    run_report.record_metric("records_per_sec",
                             round(records_per_sec, 1))
    run_report.record_metric("freshness_served_p50_ms",
                             round(p50_ms, 3))
    run_report.record_metric("freshness_served_p99_ms",
                             round(p99_ms, 3))
    print(f"wrote {run_report.save(args.json)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
