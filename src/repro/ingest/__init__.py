"""Streaming ingestion: a raw record feed -> right-sized UpdateBatches.

The serving layer (:mod:`repro.serve`) assumes batches arrive from
somewhere; this package is the somewhere. One pipeline —
:class:`~repro.ingest.partition.PartitionedIngestPipeline`, K
journal-and-parse workers behind a deterministic
:class:`~repro.ingest.partition.FanIn`, a single worker being K=1 —
turns a continuous, unreliable feed of raw article/citation records
into validated :class:`~repro.engine.updates.UpdateBatch` objects
applied to a :class:`~repro.engine.live.LiveRanker`, with the delivery
contract a production index needs:

* **at-least-once** — every record is journaled
  (:class:`~repro.ingest.journal.IngestJournal`, CRC-stamped JSONL
  segments with an atomically committed offset cursor) before it is
  processed, so a crashed worker replays what it had not finished;
* **exactly-once application** — the authoritative corpus check plus a
  bounded :class:`~repro.ingest.dedup.Deduplicator` make replays and
  duplicate storms idempotent;
* **bounded memory** — the
  :class:`~repro.ingest.coalescer.Coalescer`'s queue is capped and its
  typed backpressure signals (pause/shed) throttle the pull loop, with
  batch size scaling with engine lag so backlogs drain;
* **crash-isolated partitions** — each worker (``partition_of``
  consistent with the serving tier's ``shard_of``) owns a journal
  directory and committed-offset cursor under
  ``journal_root/partition-NNNN/``; fan-in order makes the final
  corpus independent of K, and sealed, cursor-covered segments are
  reclaimed by :meth:`~repro.ingest.journal.IngestJournal.compact`
  (``repro ingest-compact``);
* **verified under chaos** — ``repro ingest-sim`` (a
  :class:`~repro.drill.RecordFeed` drill) proves zero loss, zero
  duplicate application, and a final ranking bit-identical to the cold
  single-batch oracle under every ingest fault.

See ``docs/OPERATIONS.md`` ("Streaming ingestion") for the operational
picture: journal layout, offset semantics, backpressure knobs, archival
retention, and quarantine triage.
"""

from repro.ingest.coalescer import Coalescer
from repro.ingest.dedup import Deduplicator
from repro.ingest.journal import IngestJournal
from repro.ingest.partition import (
    FanIn,
    PartitionedIngestPipeline,
    partition_of,
    partition_route,
)
from repro.ingest.source import JsonlSource, SyntheticSource, route_key

__all__ = [
    "Coalescer",
    "Deduplicator",
    "FanIn",
    "IngestJournal",
    "JsonlSource",
    "PartitionedIngestPipeline",
    "SyntheticSource",
    "partition_of",
    "partition_route",
    "route_key",
]
