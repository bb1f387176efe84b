"""The stages every partition shares: report, admission, freshness.

The ingest pipeline (:class:`~repro.ingest.partition.
PartitionedIngestPipeline`) runs K journal-and-parse workers in front
of one shared tail. This module holds that tail's vocabulary:

* :class:`IngestReport` / :class:`PartitionStats` — everything one run
  (or resumed run) did, overall and per partition;
* :class:`AdmissionTiers` — idempotent admission: the authoritative
  corpus check first, then the coalescer's queued window, then the
  bounded :class:`~repro.ingest.dedup.Deduplicator`. Exactly-once
  application falls out: replayed records that already reached the
  dataset are skipped here;
* :func:`observe_served_freshness` — wall-clock arrival→visible
  seconds, staged by how far a batch actually travelled;
* the retry and histogram constants the run loop uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import IngestError
from repro.data.quarantine import ParseReport
from repro.engine.live import LiveRanker
from repro.ingest.coalescer import Coalescer
from repro.ingest.dedup import CONFLICT, DUPLICATE, Deduplicator
from repro.ingest.source import ParsedItem
from repro.resilience.policy import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.handle import Observability

#: Pipeline-tuned retry defaults: feeds hiccup often and briefly, so
#: back off fast and give up after a few attempts.
DEFAULT_RETRY = RetryPolicy(max_retries=3, base_delay=0.01,
                            max_delay=0.25, jitter=0.0)

#: The record-clock arrival→visible histogram; the per-partition
#: freshness histogram shares its buckets.
VISIBLE_LATENCY_METRIC = "repro_ingest_visible_latency_records"
VISIBLE_LATENCY_HELP = ("Records pulled between a record's arrival and "
                        "the batch apply that made it visible.")
VISIBLE_LATENCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass
class PartitionStats:
    """One partition's slice of an :class:`IngestReport`."""

    partition: int
    records_journaled: int = 0
    records_replayed: int = 0
    worker_crashes: int = 0
    torn_records_dropped: int = 0
    committed_offset: int = 0
    segments_archived: int = 0
    segments_reclaimed_bytes: int = 0

    def as_metrics(self) -> Dict[str, object]:
        return {
            "records_journaled": self.records_journaled,
            "records_replayed": self.records_replayed,
            "worker_crashes": self.worker_crashes,
            "torn_records_dropped": self.torn_records_dropped,
            "committed_offset": self.committed_offset,
            "segments_archived": self.segments_archived,
            "segments_reclaimed_bytes": self.segments_reclaimed_bytes,
        }


@dataclass
class IngestReport:
    """Everything one pipeline run (or resumed run) did."""

    num_partitions: int = 1

    records_pulled: int = 0
    records_replayed: int = 0
    articles_applied: int = 0
    citations_applied: int = 0
    duplicates_skipped: int = 0
    conflicts_quarantined: int = 0
    batches_applied: int = 0
    source_retries: int = 0
    parse_crashes: int = 0
    backpressure_pauses: int = 0
    peak_queue: int = 0
    committed_offset: int = 0
    torn_records_dropped: int = 0
    #: Sealed journal segments compaction moved out of the hot tier
    #: (archived or deleted under retention) and the bytes it freed.
    segments_archived: int = 0
    segments_reclaimed_bytes: int = 0
    #: Arrival-to-visible freshness, in *records* (how many records
    #: were pulled between this one's arrival and the batch apply that
    #: made it visible). Deterministic, unlike wall-clock.
    freshness_max_records: int = 0
    freshness_sum_records: int = 0
    freshness_samples: int = 0
    worker_crashes: int = 0
    partitions: List[PartitionStats] = field(default_factory=list)
    parse_report: ParseReport = field(default_factory=ParseReport)

    @property
    def quarantined(self) -> int:
        return self.parse_report.quarantined

    @property
    def freshness_mean_records(self) -> float:
        if not self.freshness_samples:
            return 0.0
        return self.freshness_sum_records / self.freshness_samples

    def as_metrics(self) -> Dict[str, object]:
        """Flat numeric dict for RunReports and baselines."""
        metrics = {
            "records_pulled": self.records_pulled,
            "records_replayed": self.records_replayed,
            "articles_applied": self.articles_applied,
            "citations_applied": self.citations_applied,
            "duplicates_skipped": self.duplicates_skipped,
            "conflicts_quarantined": self.conflicts_quarantined,
            "quarantined": self.quarantined,
            "batches_applied": self.batches_applied,
            "source_retries": self.source_retries,
            "parse_crashes": self.parse_crashes,
            "backpressure_pauses": self.backpressure_pauses,
            "peak_queue": self.peak_queue,
            "committed_offset": self.committed_offset,
            "torn_records_dropped": self.torn_records_dropped,
            "segments_archived": self.segments_archived,
            "segments_reclaimed_bytes": self.segments_reclaimed_bytes,
            "freshness_max_records": self.freshness_max_records,
            "freshness_mean_records": self.freshness_mean_records,
            "num_partitions": self.num_partitions,
            "worker_crashes": self.worker_crashes,
        }
        for stats in self.partitions:
            for key, value in stats.as_metrics().items():
                metrics[f"p{stats.partition}_{key}"] = value
        return metrics


def observe_served_freshness(obs: "Observability", batch, outcome,
                             has_sink: bool, now_wall: float) -> None:
    """Wall-clock arrival→visible seconds, staged by how far the batch
    actually travelled.

    ``stage="applied"`` for the sink-less path (visible to direct
    readers of the ranker); ``stage="served"`` when a serving sink
    *published* the batch. A deferred or quarantined sink outcome
    records nothing — those records are not visible yet, and the
    publish-side histogram picks them up when they are.
    """
    from repro.obs.metrics import (FRESHNESS_BUCKETS, FRESHNESS_HELP,
                                   FRESHNESS_METRIC)

    provenance = batch.provenance
    if provenance is None or not provenance.arrivals:
        return
    if not has_sink:
        stage = "applied"
    elif getattr(outcome, "status", "") == "published":
        stage = "served"
    else:
        return
    freshness = obs.metrics.histogram(
        FRESHNESS_METRIC, FRESHNESS_HELP,
        buckets=FRESHNESS_BUCKETS, labels=("stage",))
    for arrived_wall in provenance.arrivals:
        if arrived_wall > 0.0:
            freshness.observe(max(0.0, now_wall - arrived_wall),
                              stage=stage)


class AdmissionTiers:
    """The three-tier exactly-once admission path.

    Tier order is the contract: the authoritative corpus first (a
    record already applied is skipped no matter what the windows
    remember), then the coalescer's queued window (same id queued with
    a *different* fingerprint is a conflict, quarantined), then the
    bounded LRU :class:`~repro.ingest.dedup.Deduplicator` for the
    recently-seen window. Centralising it here is what lets K
    partitions share one admission truth — a citation whose endpoints
    were routed to different partitions still sees them, because every
    partition fans into the same coalescer and corpus.
    """

    def __init__(self, live: LiveRanker, coalescer: Coalescer,
                 dedup: Deduplicator, report: IngestReport,
                 obs: Optional["Observability"],
                 quarantine: Callable[[Exception, int], None]) -> None:
        self.live = live
        self.coalescer = coalescer
        self.dedup = dedup
        self.report = report
        self.obs = obs
        self._quarantine = quarantine

    def admit(self, item: ParsedItem, arrived_at: float,
              arrived_wall: float) -> bool:
        """Admit one parsed item; returns True when it was queued."""
        if item.kind == "article":
            return self._admit_article(item, arrived_at, arrived_wall)
        return self._admit_citation(item, arrived_at, arrived_wall)

    def _skip_duplicate(self, reason: str) -> None:
        self.report.duplicates_skipped += 1
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_ingest_duplicates_total",
                "Duplicate records skipped, by detection point.",
                labels=("reason",)).inc(reason=reason)

    def _admit_article(self, item: ParsedItem, arrived_at: float,
                       arrived_wall: float) -> bool:
        article = item.article
        # Authoritative first: already in the corpus means a replay or
        # re-delivery of an applied record (first write wins).
        if article.id in self.live.dataset.articles:
            self._skip_duplicate("applied")
            return False
        queued_fp = self.coalescer.queued_fingerprint(article.id)
        if queued_fp is not None:
            if queued_fp == item.fingerprint:
                self._skip_duplicate("queued")
            else:
                self.report.conflicts_quarantined += 1
                self._quarantine(IngestError(
                    f"article {article.id} re-delivered with "
                    f"conflicting content"), item.offset)
            return False
        verdict = self.dedup.check(("a", article.id), item.fingerprint)
        if verdict == DUPLICATE:
            self._skip_duplicate("window")
            return False
        if verdict == CONFLICT:
            self.report.conflicts_quarantined += 1
            self._quarantine(IngestError(
                f"article {article.id} re-delivered with conflicting "
                f"content"), item.offset)
            return False
        self.dedup.admit(("a", article.id), item.fingerprint)
        self.coalescer.offer(item, arrived_at=arrived_at,
                             arrived_wall=arrived_wall)
        return True

    def _admit_citation(self, item: ParsedItem, arrived_at: float,
                        arrived_wall: float) -> bool:
        citing, cited = item.citation
        known = self.live.dataset.articles
        # Endpoints must exist somewhere the batch can see them —
        # applied corpus or queued articles. Anything else (a mangled
        # article that never materialised, a feed bug) is poison.
        for endpoint in (citing, cited):
            if endpoint not in known \
                    and self.coalescer.queued_article(endpoint) is None:
                self._quarantine(IngestError(
                    f"citation ({citing} -> {cited}) references "
                    f"unknown article {endpoint}"), item.offset)
                return False
        already = known.get(citing)
        if already is not None and cited in already.references:
            self._skip_duplicate("applied")
            return False
        queued = self.coalescer.queued_article(citing)
        if queued is not None and cited in queued.references:
            self._skip_duplicate("queued")
            return False
        if self.coalescer.has_pair(item.citation):
            self._skip_duplicate("queued")
            return False
        verdict = self.dedup.check(("c", citing, cited),
                                   item.fingerprint)
        if verdict in (DUPLICATE, CONFLICT):
            # A citation pair has no content beyond its endpoints, so
            # conflict degenerates to duplicate.
            self._skip_duplicate("window")
            return False
        self.dedup.admit(("c", citing, cited), item.fingerprint)
        self.coalescer.offer(item, arrived_at=arrived_at,
                             arrived_wall=arrived_wall)
        return True
