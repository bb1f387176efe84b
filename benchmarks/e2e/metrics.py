"""Every name the benchmark reports, in one place.

``BENCHMARK.json`` is :func:`contract` serialised; ``--check`` fails
when the two drift apart. README.md carries the prose definitions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

RUN_SECONDS = 10

#: name -> one-line reason the workload exists (README has the long form).
WORKLOADS: List[Tuple[str, str]] = [
    ("update_200k",
     "50-article batches into a 200k corpus through an inline 2-shard "
     "gateway, no journal or checkpoint: O(n) reassembly, index rebuild "
     "and board publish do the work; ingest layers do none"),
    ("stream_durable_20k",
     "raw records with late cites and duplicates pulled by the 2-partition "
     "journaled pipeline, checkpoint after every batch: the durable path "
     "where checkpoint and per-record ingest layers dominate"),
    ("read_churn_50k",
     "one closed-loop reader (top/venue/page/rank_of mix) against a "
     "process-mode gateway while 50-article batches publish every 2 s: "
     "reads queue behind shard refreshes"),
    ("batch_cold_200k",
     "cold ArticleRanker.rank plus RankIndex build on 200k articles, no "
     "live state: the paper's batch algorithm; streaming layers never "
     "run, so stream changes must leave it flat"),
    ("block_solve_200k",
     "ParallelBlockEngine (8 range blocks, 2 workers) built and run to "
     "convergence on the 200k citation graph: the paper's block-centric "
     "parallel algorithm; kernel and IPC-plane changes show here"),
]

#: (name, unit, better, bound). Every workload reports every one.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("served_p50_ms", "ms", "lower", 0.25),
    ("served_tail_ms", "ms", "lower", 0.25),
    ("served_per_s", "1/s", "higher", 0.18),
    ("read_p50_ms", "ms", "lower", 0.10),
    ("read_p95_ms", "ms", "lower", 0.20),
    ("read_qps", "1/s", "higher", 0.20),
]

#: Span-derived per-layer metrics: (metric, "self_s" | "calls", spans).
FROM_SPANS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("ingest.source.parse_s", "self_s", ("ingest.source.parse",)),
    ("ingest.source.parse_calls", "calls", ("ingest.source.parse",)),
    ("ingest.journal.append_s", "self_s",
     ("ingest.journal.append", "ingest.journal.flush")),
    ("ingest.journal.append_calls", "calls", ("ingest.journal.append",)),
    ("ingest.journal.commit_s", "self_s",
     ("ingest.journal.commit", "ingest.journal.fsync")),
    ("ingest.journal.commit_calls", "calls", ("ingest.journal.commit",)),
    ("ingest.journal.compact_s", "self_s", ("ingest.journal.compact",)),
    ("ingest.partition.accept_s", "self_s", ("ingest.partition.accept",)),
    ("ingest.partition.fanin_s", "self_s", ("ingest.partition.fanin",)),
    ("ingest.pipeline.admit_s", "self_s", ("ingest.pipeline.admit",)),
    ("ingest.dedup.check_s", "self_s", ("ingest.dedup.check",)),
    ("ingest.coalescer.offer_cut_s", "self_s",
     ("ingest.coalescer.offer_cut",)),
    ("engine.live.checkpoint_s", "self_s", ("engine.live.checkpoint",)),
    ("engine.live.checkpoint_calls", "calls", ("engine.live.checkpoint",)),
    ("engine.state.save_engine_s", "self_s", ("engine.state.save_engine",)),
    ("engine.incremental.apply_s", "self_s", ("engine.incremental.apply",)),
    ("engine.incremental.apply_calls", "calls",
     ("engine.incremental.apply",)),
    ("core.model.rank_with_prestige_s", "self_s",
     ("core.model.rank_with_prestige",)),
    ("core.model.rank_s", "self_s", ("core.model.rank",)),
    ("query.index.build_s", "self_s", ("query.index.build",)),
    ("query.index.build_calls", "calls", ("query.index.build",)),
    ("serve.service.ingest_s", "self_s", ("serve.service.ingest",)),
    ("engine.shm.board_publish_s", "self_s", ("engine.shm.board_publish",)),
    ("engine.shm.board_publish_calls", "calls",
     ("engine.shm.board_publish",)),
    ("serve.gateway.publish_s", "self_s", ("serve.gateway.publish",)),
    ("serve.shard.refresh_s", "self_s", ("serve.shard.refresh",)),
    ("serve.shard.refresh_calls", "calls", ("serve.shard.refresh",)),
    ("serve.shard.absorb_s", "self_s", ("serve.shard.absorb",)),
    ("serve.shard.call_s", "self_s", ("serve.shard.call",)),
    ("serve.shard.call_calls", "calls", ("serve.shard.call",)),
    ("serve.merge.merge_s", "self_s", ("serve.merge.merge",)),
    ("serve.merge.merge_calls", "calls", ("serve.merge.merge",)),
    ("engine.parallel.build_s", "self_s", ("engine.parallel.build",)),
    ("engine.parallel.run_s", "self_s", ("engine.parallel.run",)),
]

#: Per-layer metrics the workloads fill from hook counts, public report
#: objects and raw samples: (name, unit, better).
FROM_WORKLOADS: List[Tuple[str, str, str]] = [
    ("ingest.journal.segments_archived", "count", "higher"),
    ("ingest.journal.reclaimed_bytes", "bytes", "higher"),
    ("ingest.partition.skew", "ratio", "lower"),
    ("ingest.pipeline.duplicates_skipped", "count", "lower"),
    ("ingest.pipeline.quarantined", "count", "lower"),
    ("ingest.pipeline.backpressure_pauses", "count", "lower"),
    ("ingest.coalescer.batches", "count", "lower"),
    ("ingest.coalescer.batch_size_mean", "count", "higher"),
    ("ingest.coalescer.peak_queue", "count", "lower"),
    ("ingest.coalescer.queue_wait_p50_ms", "ms", "lower"),
    ("engine.state.checkpoint_bytes", "bytes", "lower"),
    ("engine.incremental.affected_nodes", "count", "lower"),
    ("engine.incremental.affected_share", "ratio", "lower"),
    ("engine.incremental.iterations", "count", "lower"),
    ("engine.incremental.drift_l1", "ratio", "lower"),
    ("core.model.build_graph_s", "s", "lower"),
    ("core.model.article_prestige_s", "s", "lower"),
    ("core.model.article_popularity_s", "s", "lower"),
    ("core.model.venue_s", "s", "lower"),
    ("core.model.author_s", "s", "lower"),
    ("core.model.assembly_s", "s", "lower"),
    ("query.index.slots_built", "count", "lower"),
    ("serve.service.published", "count", "higher"),
    ("serve.service.quarantined", "count", "lower"),
    ("engine.shm.board_bytes", "bytes", "lower"),
    ("engine.shm.segments_leaked", "count", "lower"),
    ("serve.gateway.top_p50_ms", "ms", "lower"),
    ("serve.gateway.venue_top_p50_ms", "ms", "lower"),
    ("serve.gateway.page_p50_ms", "ms", "lower"),
    ("serve.gateway.rank_of_p50_ms", "ms", "lower"),
    ("serve.gateway.read_quiet_p95_ms", "ms", "lower"),
    ("serve.gateway.read_stalled_share", "ratio", "lower"),
    ("serve.gateway.publish_lag_s", "s", "lower"),
    ("core.twpr.solve_s", "s", "lower"),
    ("core.twpr.iterations", "count", "lower"),
    ("ranking.gauss_seidel.solve_s", "s", "lower"),
    ("ranking.gauss_seidel.sweeps", "count", "lower"),
    ("engine.blocks.build_s", "s", "lower"),
    ("engine.blocks.run_s", "s", "lower"),
    ("engine.blocks.supersteps", "count", "lower"),
    ("engine.blocks.local_iterations", "count", "lower"),
    ("engine.blocks.messages", "count", "lower"),
    ("engine.blocks.blocks_skipped", "count", "higher"),
    ("engine.parallel.supersteps", "count", "lower"),
    ("engine.parallel.shm_run_s", "s", "lower"),
    ("engine.parallel.pickle_run_s", "s", "lower"),
    ("engine.parallel.bytes_shipped_shm", "bytes", "lower"),
    ("engine.parallel.bytes_shipped_pickle", "bytes", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    spans = [(name, "s" if kind == "self_s" else "count", "lower")
             for name, kind, _ in FROM_SPANS]
    return spans + FROM_WORKLOADS


def contract() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer()],
    }
