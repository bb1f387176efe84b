"""The fault-tolerant streaming ingest pipeline.

One sequential router in front of K crash-isolated partition workers,
then one shared tail. Each stage owns one failure mode:

1. **Pull + route** — the router fetches the next record from a
   seekable source, retrying transient
   :class:`~repro.errors.SourceError` under a
   :class:`~repro.resilience.RetryPolicy` (injected stalls/errors come
   from the :class:`~repro.resilience.FaultPlan`). Pull order is the
   global arrival sequence; :func:`partition_of` — the same modulo rule
   as :func:`repro.serve.shard.shard_of`, so ingest partitions and
   serving shards slice the corpus identically — picks the worker.
2. **Journal** — the :class:`PartitionWorker` appends the raw payload
   to its own :class:`~repro.ingest.journal.IngestJournal`
   (``<root>/partition-NNNN/``: own segments, torn-tail recovery,
   archive tier, committed-offset cursor) *before* anything else sees
   it. Journal-first is the at-least-once guarantee: a record that made
   it past this stage can always be replayed. The arrival sequence
   rides in the journal record (outside the CRC'd payload) so a
   replayed record re-enters fan-in under its original position.
3. **Parse** — :func:`~repro.ingest.source.parse_record` with a bounded
   crash-retry budget; poison records go to the
   :class:`~repro.data.quarantine.ParseReport` after ``parse_attempts``
   injected crashes and travel on as *tombstone* envelopes, so the
   partition's cursor advances past poison instead of wedging on it.
4. **Fan-in + admission** — :class:`FanIn` releases envelopes in the
   canonical order ``(arrival_seq, partition, offset)`` into the shared
   :class:`~repro.ingest.pipeline.AdmissionTiers` (one corpus, one
   coalescer window, one dedup LRU). First admission therefore happens
   in pull order for every K, fingerprints are payload-only, and every
   crash-recovery re-delivery is absorbed as a duplicate — so the final
   corpus, and hence the final ranking, is the same bit for bit
   whatever K is.
5. **Coalesce** — admitted items queue in the bounded
   :class:`~repro.ingest.coalescer.Coalescer`; typed backpressure
   (PAUSE/SHED) makes the router drain batches instead of pulling, so
   memory stays bounded by ``max_queue`` no matter how far the engine
   lags.
6. **Apply + commit** — batches go through
   :func:`~repro.engine.updates.validate_update_batch` into the
   :class:`~repro.engine.live.LiveRanker` (or a serving ``sink``);
   every ``checkpoint_batches`` applied batches the ranker writes a
   rotation and *only then* each partition's cursor advances — to the
   oldest of its offsets still queued in the coalescer (tracked by a
   FIFO mirror of the queue), or to everything it has handled when
   none are queued.

A crash, stall, or torn tail in one partition is recovered *in
isolation* — its journal reopens, its cursor drives its replay, its
worker incarnation bumps — while the other partitions' journals and
cursors are untouched and keep draining.

Crash-resume of the whole pipeline:
:meth:`PartitionedIngestPipeline.resume` rebuilds the live ranker from
its newest intact rotation and replays every partition journal. A
partition whose cursor is newer than the recovered rotation (the newest
rotation was torn) replays from offset 0 — always safe, because
admission is idempotent — and its cursor holds until coverage catches
back up.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List,
                    Optional, Tuple, Union)

from repro.errors import IngestError, ParseError, SourceError
from repro.engine.live import LiveRanker, checkpoint_rotations
from repro.engine.updates import validate_update_batch
from repro.ingest.coalescer import Backpressure, Coalescer
from repro.ingest.dedup import Deduplicator
from repro.ingest.journal import (ARCHIVE_DIR, ARCHIVE_FILE, CURSOR_FILE,
                                  IngestJournal)
from repro.ingest.pipeline import (
    DEFAULT_RETRY,
    VISIBLE_LATENCY_BUCKETS,
    VISIBLE_LATENCY_HELP,
    VISIBLE_LATENCY_METRIC,
    AdmissionTiers,
    IngestReport,
    PartitionStats,
    observe_served_freshness,
)
from repro.ingest.source import ParsedItem, parse_record, route_key
from repro.resilience.faults import (FaultPlan, InjectedCrash,
                                     tear_active_segment)
from repro.resilience.policy import RetryPolicy
from repro.serve.shard import shard_of

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.handle import Observability

PathLike = Union[str, Path]


def partition_of(record_id: int, num_partitions: int) -> int:
    """The ingest partition owning ``record_id``.

    Delegates to :func:`repro.serve.shard.shard_of` so the ingest and
    serving tiers agree on who owns an article — an operator chasing a
    bad record walks one partition journal and one serving shard, not
    K of each.
    """
    return shard_of(record_id, num_partitions)


def partition_route(payload: Dict[str, object],
                    num_partitions: int) -> int:
    """The partition a raw feed payload is journaled in."""
    return partition_of(route_key(payload), num_partitions)


@dataclass(frozen=True)
class Envelope:
    """One journaled record travelling from a partition to fan-in.

    ``item`` is ``None`` for a *tombstone*: the record was journaled
    but quarantined (poison payload, exhausted parse budget). The
    tombstone still flows through fan-in so the partition's
    handled-through watermark — and therefore its cursor — advances
    past the poison.
    """

    seq: int        # global arrival sequence (router order)
    partition: int
    offset: int     # local journal offset within the partition
    item: Optional[ParsedItem]
    replayed: bool = False


class FanIn:
    """Deterministic merge of per-partition envelope streams.

    Envelopes buffer until the router's watermark passes their arrival
    sequence, then release in canonical ``(seq, partition, offset)``
    order. The watermark is the router's current global position, so a
    recovered partition replaying old records re-injects them *behind*
    the watermark and they release immediately — in their original
    order relative to everything still buffered.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise IngestError(
                f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions
        self._heap: List[Tuple[int, int, int, int, Envelope]] = []
        self._pushes = 0
        self._watermark = -1

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def watermark(self) -> int:
        return self._watermark

    def deliver(self, envelope: Envelope) -> None:
        if not 0 <= envelope.partition < self.num_partitions:
            raise IngestError(
                f"envelope for partition {envelope.partition} but "
                f"fan-in has {self.num_partitions}")
        self._pushes += 1
        heapq.heappush(self._heap, (envelope.seq, envelope.partition,
                                    envelope.offset, self._pushes,
                                    envelope))

    def advance(self, seq: int) -> None:
        """Everything at or below ``seq`` becomes releasable."""
        self._watermark = max(self._watermark, seq)

    def drain(self) -> List[Envelope]:
        """Pop every releasable envelope, canonically ordered."""
        released: List[Envelope] = []
        while self._heap and self._heap[0][0] <= self._watermark:
            released.append(heapq.heappop(self._heap)[4])
        return released


class PartitionWorker:
    """One partition's journal-and-parse stage.

    The worker owns the partition's journal directory and the
    journal-first contract for its slice of the feed: ``accept``
    appends the raw payload (stamped with its global arrival seq) and
    flushes *before* parsing, so a crash after the append can always
    replay the record. ``incarnation`` counts recoveries — partition
    crash faults are keyed by it, so a recovered worker holding the
    same plan does not die again on the same record.
    """

    def __init__(self, partition: int, num_partitions: int,
                 directory: PathLike, *,
                 segment_records: int = 1024, parse_attempts: int = 2,
                 fault_plan: Optional[FaultPlan] = None,
                 quarantine: Callable[[Exception, int], None],
                 on_parse_crash: Callable[[], None],
                 stats: Optional[PartitionStats] = None) -> None:
        self.partition = partition
        self.num_partitions = num_partitions
        self.directory = Path(directory)
        self.segment_records = segment_records
        self.parse_attempts = parse_attempts
        self.fault_plan = fault_plan
        self.stats = stats if stats is not None \
            else PartitionStats(partition)
        self._quarantine = quarantine
        self._on_parse_crash = on_parse_crash
        self.incarnation = 0
        self.journal = IngestJournal(self.directory,
                                     segment_records=segment_records)
        self.stats.torn_records_dropped = \
            self.journal.torn_records_dropped
        self.replay_from: Optional[int] = None

    @property
    def last_seq(self) -> int:
        """Highest arrival seq the journal retained; -1 when empty."""
        last = self.journal.last_seq
        if last is None and self.num_partitions == 1:
            # Unstamped records: the local offset is the seq (see
            # :meth:`replay`).
            return self.journal.next_offset - 1
        return -1 if last is None else last

    def accept(self, seq: int, payload: Dict[str, object]) -> Envelope:
        """Journal-then-parse one routed record.

        Scripted ``partition`` stalls and crashes fire *after* the
        append and flush — for a crash the nastiest window: the record
        is on disk (or in the tail a tear will take), but its envelope
        never reached fan-in. Recovery decides from the reopened
        journal whether replay covers it or the router must re-deliver.
        """
        offset = self.journal.append(payload, seq=seq)
        self.journal.flush()
        self.stats.records_journaled += 1
        if self.fault_plan is not None:
            self.fault_plan.fire("partition", (self.partition, seq),
                                 self.incarnation)
        return Envelope(seq=seq, partition=self.partition,
                        offset=offset, item=self._parse(seq, offset,
                                                        payload))

    def replay(self) -> List[Envelope]:
        """Re-emit journaled-but-uncommitted records as envelopes.

        Starts at the partition's committed cursor (or offset 0 when
        the coordinator flagged the cursor untrustworthy via
        ``replay_from``). Each envelope carries the arrival seq stamped
        into the journal line, so fan-in replays it at its original
        global position. An unstamped record falls back to its local
        offset, which equals its arrival seq only when this is the sole
        partition; with siblings it would mis-order fan-in, so that is
        an error.
        """
        envelopes: List[Envelope] = []
        for record in self.journal.replay(self.replay_from):
            seq = record.seq
            if seq is None:
                if self.num_partitions > 1:
                    raise IngestError(
                        f"partition {self.partition} journal record "
                        f"{record.offset} carries no arrival seq; an "
                        f"unstamped journal can only be opened with "
                        f"num_partitions=1")
                seq = record.offset
            envelopes.append(Envelope(
                seq=seq, partition=self.partition, offset=record.offset,
                item=self._parse(seq, record.offset, record.payload),
                replayed=True))
            self.stats.records_replayed += 1
        return envelopes

    def tear(self) -> None:
        """Chop the active segment's unsynced tail if the plan scripts a
        ``partition:tear`` for this crash (keyed by incarnation)."""
        torn = self.fault_plan.fire("partition", (self.partition,),
                                    self.incarnation) \
            if self.fault_plan is not None else None
        if torn is not None:
            tear_active_segment(self.directory, int(torn.value))

    def recover(self) -> None:
        """Reopen the journal after a crash (incarnation + 1).

        Only this partition's state is touched: the torn tail (if the
        crash took one) is dropped and accounted, the cursor reloads,
        and the next ``accept`` runs under the new incarnation.
        """
        self.journal.close()
        before = self.stats.torn_records_dropped
        self.journal = IngestJournal(self.directory,
                                     segment_records=self.segment_records)
        self.stats.torn_records_dropped = \
            before + self.journal.torn_records_dropped
        self.incarnation += 1

    def _parse(self, seq: int, offset: int,
               payload: Dict[str, object]) -> Optional[ParsedItem]:
        """Parse with the crash-retry budget; ``None`` → tombstone.

        Faults and quarantine locations are keyed by the *global* seq,
        so one fault plan hits the same records whatever K is. The
        parsed item also carries the global seq as its offset:
        admission, provenance, and freshness all see global positions,
        while the journal keeps the local offset.
        """
        attempt = 0
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire("parse", (seq,), attempt)
                return parse_record(payload, seq)
            except ParseError as exc:
                self._quarantine(exc, seq)
                return None
            except InjectedCrash as exc:
                self._on_parse_crash()
                attempt += 1
                if attempt >= self.parse_attempts:
                    self._quarantine(exc, seq)
                    return None


class PartitionedIngestPipeline:
    """K crash-isolated partition workers behind one deterministic
    fan-in, one admission path, and one ranker."""

    def __init__(self, live: LiveRanker, source,
                 journal_root: PathLike, num_partitions: int, *,
                 dedup: Optional[Deduplicator] = None,
                 coalescer: Optional[Coalescer] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 parse_attempts: int = 2, checkpoint_batches: int = 1,
                 segment_records: int = 1024,
                 fault_plan: Optional[FaultPlan] = None,
                 incarnation: int = 0,
                 obs: Optional["Observability"] = None,
                 sink=None, compaction: Optional[str] = None,
                 wall_clock: Callable[[], float] = time.time) -> None:
        """Wire K workers to the shared tail of the pipeline.

        Each partition journals under ``journal_root/partition-NNNN/``
        in segments of ``segment_records`` records.

        ``checkpoint_batches`` sets the durability cadence: a rotation
        plus cursor commits every N applied batches (the ranker must
        have a ``checkpoint_dir``; without one the pipeline still runs,
        it just never advances the cursors — resume then replays the
        whole journal, which idempotent admission makes safe, merely
        slow). ``incarnation`` counts resumes; ``"crash"`` ingest
        faults are keyed by it so a resumed pipeline holding the same
        plan does not crash again.

        ``sink`` optionally routes cut batches through a serving tier —
        any object with ``ingest(batch) -> IngestReport`` wrapping the
        *same* ``live`` ranker (a
        :class:`~repro.serve.service.RankingService` or
        :class:`~repro.serve.gateway.ShardedGateway`). Admission still
        checks ``live.dataset``, which the sink mutates through the
        shared ranker, so dedup stays authoritative. ``wall_clock`` is
        the arrival/served stamp source (injectable for deterministic
        freshness tests).

        ``compaction`` (``"archive"`` or ``"delete"``) runs
        :meth:`~repro.ingest.journal.IngestJournal.compact` on every
        partition journal after each successful commit, reclaiming
        sealed segments the cursor now covers — the knob that keeps a
        long-running journal bounded.
        """
        if num_partitions < 1:
            raise IngestError(
                f"num_partitions must be >= 1, got {num_partitions}")
        if parse_attempts < 1:
            raise IngestError(
                f"parse_attempts must be >= 1, got {parse_attempts}")
        if checkpoint_batches < 1:
            raise IngestError(
                f"checkpoint_batches must be >= 1, got "
                f"{checkpoint_batches}")
        if compaction not in (None, "archive", "delete"):
            raise IngestError(
                f"compaction must be None, 'archive' or 'delete', "
                f"got {compaction!r}")
        self.live = live
        self.source = source
        self.journal_root = Path(journal_root)
        if any(self.journal_root.glob("segment-*")):
            raise IngestError(
                f"{self.journal_root} holds journal segments directly; "
                f"journals live under partition-NNNN/. Move it with: "
                f"cd {self.journal_root} && mkdir partition-0000 && mv "
                f"segment-* {CURSOR_FILE} {ARCHIVE_FILE} {ARCHIVE_DIR} "
                f"partition-0000/")
        self.num_partitions = num_partitions
        self.dedup = dedup if dedup is not None else Deduplicator()
        self.coalescer = coalescer if coalescer is not None \
            else Coalescer()
        self.retry_policy = retry_policy if retry_policy is not None \
            else DEFAULT_RETRY
        self.parse_attempts = parse_attempts
        self.checkpoint_batches = checkpoint_batches
        self.fault_plan = fault_plan
        self.incarnation = incarnation
        self.obs = obs
        self.sink = sink
        self.compaction = compaction
        self.wall_clock = wall_clock
        self.report = IngestReport(num_partitions=num_partitions)
        self.admission = AdmissionTiers(live, self.coalescer,
                                        self.dedup, self.report, obs,
                                        self._quarantine)
        self.workers: List[PartitionWorker] = []
        for partition in range(num_partitions):
            stats = PartitionStats(partition)
            self.report.partitions.append(stats)
            self.workers.append(PartitionWorker(
                partition, num_partitions,
                self.journal_root / f"partition-{partition:04d}",
                segment_records=segment_records,
                parse_attempts=parse_attempts, fault_plan=fault_plan,
                quarantine=self._quarantine,
                on_parse_crash=self._count_parse_crash, stats=stats))
        self.report.torn_records_dropped = sum(
            w.stats.torn_records_dropped for w in self.workers)
        self.fan_in = FanIn(num_partitions)
        # FIFO mirror of the coalescer queue: one (partition, local
        # offset) per queued item, in queue order — cuts pop the same
        # prefix, so the head is each commit's oldest-queued barrier.
        self._pending: Deque[Tuple[int, int]] = deque()
        self._handled = [0] * num_partitions
        self._batches_since_checkpoint = 0
        self._durable = live.checkpoint_dir is not None

    # ------------------------------------------------------------------
    # construction from a crash

    @classmethod
    def resume(cls, checkpoint_dir: PathLike, journal_root: PathLike,
               source, num_partitions: int, *, incarnation: int = 1,
               obs: Optional["Observability"] = None,
               **kwargs) -> "PartitionedIngestPipeline":
        """Rebuild the whole pipeline after a coordinator crash.

        The ranker resumes from its newest intact rotation; every
        partition journal reopens (dropping torn tails) and replays
        from its own cursor. A partition whose cursor recorded a batch
        count *newer* than the recovered rotation — the rotation
        covering the commit was lost — cannot trust its committed
        offset and replays from offset 0 instead; idempotent admission
        turns the extra replay into skips, never double applies.
        """
        live = LiveRanker.resume(checkpoint_dir, obs=obs)
        pipeline = cls(live, source, journal_root, num_partitions,
                       incarnation=incarnation, obs=obs, **kwargs)
        for worker in pipeline.workers:
            cursor_batches = worker.journal.cursor_extra.get(
                "batches_applied")
            if isinstance(cursor_batches, int) \
                    and live.batches_applied < cursor_batches:
                worker.replay_from = 0
        return pipeline

    # ------------------------------------------------------------------
    # the run loop

    def run(self, max_records: Optional[int] = None) -> IngestReport:
        """Replay every partition's journal tail, then drain the feed.

        Returns when the source is exhausted (or ``max_records`` new
        records have been pulled) and every queued item has been
        applied and committed. An :class:`InjectedCrash` from a
        scripted ``"crash"`` ingest fault escapes deliberately — that
        *is* the simulated coordinator death.
        """
        from repro.obs.handle import maybe_span

        with maybe_span(self.obs, "ingest.run",
                        incarnation=self.incarnation,
                        partitions=self.num_partitions):
            resume_at = self._replay_all()
            self._drain_source(resume_at, max_records)
            # Drain-down: the feed is done, flush every queued item in
            # lag-sized batches regardless of min_batch.
            while len(self.coalescer):
                self._apply_one_batch()
            self._commit(force=True)
        self.report.peak_queue = self.coalescer.peak
        self.report.committed_offset = sum(
            w.journal.committed for w in self.workers)
        for worker in self.workers:
            worker.stats.committed_offset = worker.journal.committed
        self._export_gauges()
        return self.report

    # ------------------------------------------------------------------
    # stage 0: per-partition replay (resume path)

    def _replay_all(self) -> int:
        """Replay every partition from its cursor; returns the global
        position the router should pull from.

        The safe resume position is ``min over partitions of (last
        journaled seq + 1)``: any record a torn tail lost from
        partition p had a seq greater than p's surviving maximum, so
        pulling from the minimum re-covers every possible loss. Records
        in that range other partitions already journaled are re-
        delivered and absorbed as duplicates — at-least-once by
        construction, exactly-once by admission.
        """
        from repro.obs.handle import maybe_span

        with maybe_span(self.obs, "ingest.replay",
                        partitions=self.num_partitions):
            for worker in self.workers:
                for envelope in worker.replay():
                    self.fan_in.deliver(envelope)
                    self.fan_in.advance(envelope.seq)
            resume_at = min(w.last_seq for w in self.workers) + 1
            self._release(self.fan_in.drain())
        if self.obs is not None and self.report.records_replayed:
            self.obs.metrics.counter(
                "repro_ingest_records_total",
                "Feed records entering the pipeline, by path.",
                labels=("path",)).inc(self.report.records_replayed,
                                      path="replayed")
        return resume_at

    # ------------------------------------------------------------------
    # stage 1: the sequential router

    def _drain_source(self, position: int,
                      max_records: Optional[int]) -> None:
        pulled = 0
        while max_records is None or pulled < max_records:
            self._handle_pressure()
            payload = self._pull(position)
            if payload is None:
                break
            partition = partition_route(payload, self.num_partitions)
            self._dispatch(partition, position, payload)
            self.report.records_pulled += 1
            if self.obs is not None:
                self.obs.metrics.counter(
                    "repro_ingest_records_total",
                    "Feed records entering the pipeline, by path.",
                    labels=("path",)).inc(path="pulled")
            self.fan_in.advance(position)
            self._release(self.fan_in.drain())
            position += 1
            pulled += 1
            if self.coalescer.ready():
                self._apply_one_batch()

    def _pull(self, position: int) -> Optional[Dict[str, object]]:
        """Fetch one record, absorbing transient source failures."""
        delays = self.retry_policy.delays()
        attempt = 0
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire("source", (position,), attempt)
                return self.source.get(position)
            except SourceError as exc:
                self.report.source_retries += 1
                if self.obs is not None:
                    self.obs.metrics.counter(
                        "repro_ingest_retries_total",
                        "Transient-failure retries, by stage.",
                        labels=("stage",)).inc(stage="source")
                if delays.exhausted:
                    raise IngestError(
                        f"source failed {attempt + 1} time(s) at "
                        f"position {position}: {exc}") from exc
                time.sleep(delays.next_delay())
                attempt += 1

    def _dispatch(self, partition: int, seq: int,
                  payload: Dict[str, object]) -> None:
        """Route one record to its worker, surviving worker deaths.

        A scripted crash in the *handling* worker fires after the
        record hit its journal; recovery reopens that journal alone and
        replays it — if the tear took the record, the router still
        holds the payload and re-delivers it to the recovered worker.
        Crashes scripted for *other* partitions at this seq fire too
        (simultaneous deaths), each recovered in isolation.
        """
        for bystander, worker in enumerate(self.workers):
            if bystander == partition or self.fault_plan is None:
                continue
            try:
                self.fault_plan.fire("partition", (bystander, seq),
                                     worker.incarnation)
            except InjectedCrash:
                self._recover_worker(bystander, seq)
        while True:
            worker = self.workers[partition]
            try:
                self.fan_in.deliver(worker.accept(seq, payload))
                return
            except InjectedCrash:
                if self._recover_worker(partition, seq) >= seq:
                    # The journal kept the record through the crash;
                    # its replay envelope is already in fan-in.
                    return
                # The tear took it: re-deliver under the worker's new
                # incarnation (the crash fault is keyed by incarnation,
                # so it lets the retry through).

    def _recover_worker(self, partition: int, seq: int) -> int:
        """Crash-isolate one partition: tear, reopen, replay.

        Everything here touches partition ``partition`` only. Returns
        the highest arrival seq the reopened journal retained (-1 for
        an empty journal) so the router can decide whether the
        in-flight record needs re-delivery.
        """
        worker = self.workers[partition]
        self.report.worker_crashes += 1
        worker.stats.worker_crashes += 1
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_ingest_worker_crashes_total",
                "Partition-worker deaths survived, by partition.",
                labels=("partition",)).inc(partition=str(partition))
            self.obs.event("ingest.partition.crash",
                           partition=partition, seq=seq,
                           incarnation=worker.incarnation)
        worker.tear()
        torn_before = worker.stats.torn_records_dropped
        worker.recover()
        self.report.torn_records_dropped += \
            worker.stats.torn_records_dropped - torn_before
        for envelope in worker.replay():
            self.fan_in.deliver(envelope)
        # Replayed seqs are at or behind the watermark (except the
        # in-flight record, which releases when the router advances
        # past it) — release them now, in canonical order.
        self._release(self.fan_in.drain())
        return worker.last_seq

    # ------------------------------------------------------------------
    # stage 2+3: fan-in release into the shared admission path

    def _release(self, envelopes: List[Envelope]) -> None:
        for envelope in envelopes:
            if envelope.replayed:
                self.report.records_replayed += 1
            if envelope.item is not None:
                offered = self.admission.admit(
                    envelope.item, arrived_at=self._arrival_stamp(),
                    arrived_wall=self.wall_clock())
                if offered:
                    self._pending.append((envelope.partition,
                                          envelope.offset))
            self._handled[envelope.partition] = max(
                self._handled[envelope.partition], envelope.offset + 1)

    def _quarantine(self, error: Exception, offset: int) -> None:
        self.report.parse_report.record_error(
            error, location=f"record {offset}")
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_ingest_quarantined_total",
                "Feed records routed to quarantine.").inc()
            self.obs.event("ingest.quarantine", offset=offset,
                           error=f"{type(error).__name__}: {error}")

    def _count_parse_crash(self) -> None:
        self.report.parse_crashes += 1
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_ingest_retries_total",
                "Transient-failure retries, by stage.",
                labels=("stage",)).inc(stage="parse")

    def _arrival_stamp(self) -> float:
        """Arrival index in records — the deterministic freshness clock."""
        return float(self.report.records_pulled
                     + self.report.records_replayed)

    # ------------------------------------------------------------------
    # stage 4+5: coalesce, apply, commit (shared tail)

    def _handle_pressure(self) -> None:
        while True:
            signal = self.coalescer.pressure()
            if signal is Backpressure.OK:
                return
            self.report.backpressure_pauses += 1
            if self.obs is not None:
                self.obs.metrics.counter(
                    "repro_ingest_backpressure_total",
                    "Backpressure signals acted on, by kind.",
                    labels=("signal",)).inc(signal=signal.value)
            self._apply_one_batch()

    def _apply_one_batch(self) -> None:
        from repro.obs.handle import maybe_span

        batch, last_offset, arrivals = self.coalescer.cut()
        cut_from = [self._pending.popleft()
                    for _ in range(len(arrivals))]
        if self.obs is not None and batch.provenance is not None:
            # Stamp the trace id so downstream layers (snapshot
            # publish, shard refresh) can tie their spans back to this
            # ingest run without a side-channel.
            batch = replace(batch, provenance=replace(
                batch.provenance, trace_id=self.obs.tracer.trace_id))
        if self.fault_plan is not None:
            # Fires *after* the cut, *before* the apply: the classic
            # mid-batch death — items are out of the queue, not yet in
            # the engine, and only the partition journals can bring
            # them back.
            self.fault_plan.fire("ingest", (self.live.batches_applied,),
                                 self.incarnation)
        outcome = None
        with maybe_span(self.obs, "ingest.batch",
                        articles=batch.num_articles,
                        citations=len(batch.citations),
                        last_offset=last_offset):
            if self.sink is not None:
                # The serving tier validates, applies (to the shared
                # ranker) and publishes; its guardrails own rejection.
                outcome = self.sink.ingest(batch)
            else:
                validate_update_batch(batch, self.live.dataset)
                self.live.apply(batch)
        self.report.batches_applied += 1
        self.report.articles_applied += batch.num_articles
        self.report.citations_applied += len(batch.citations)
        now = self._arrival_stamp()
        for arrived_at in arrivals:
            lag = int(now - arrived_at)
            self.report.freshness_samples += 1
            self.report.freshness_sum_records += lag
            self.report.freshness_max_records = max(
                self.report.freshness_max_records, lag)
        if self.obs is not None:
            from repro.obs.metrics import (PARTITION_FRESHNESS_HELP,
                                           PARTITION_FRESHNESS_METRIC,
                                           PARTITION_LABEL)

            self.obs.metrics.counter(
                "repro_ingest_batches_total",
                "Update batches applied by the ingest pipeline.").inc()
            hist = self.obs.metrics.histogram(
                VISIBLE_LATENCY_METRIC, VISIBLE_LATENCY_HELP,
                buckets=VISIBLE_LATENCY_BUCKETS)
            per_partition = self.obs.metrics.histogram(
                PARTITION_FRESHNESS_METRIC, PARTITION_FRESHNESS_HELP,
                buckets=VISIBLE_LATENCY_BUCKETS,
                labels=(PARTITION_LABEL,))
            for (partition, _offset), arrived_at in zip(cut_from,
                                                        arrivals):
                hist.observe(now - arrived_at)
                per_partition.observe(now - arrived_at,
                                      partition=str(partition))
            observe_served_freshness(self.obs, batch, outcome,
                                     has_sink=self.sink is not None,
                                     now_wall=self.wall_clock())
        self._batches_since_checkpoint += 1
        if self._durable and (self._batches_since_checkpoint
                              >= self.checkpoint_batches):
            self._commit()

    def _coverage(self, partition: int) -> int:
        """Partition p's commit barrier: its oldest queued offset, or
        everything it has handled when nothing of p's is queued."""
        for pending_partition, offset in self._pending:
            if pending_partition == partition:
                return offset
        return self._handled[partition]

    def _commit(self, force: bool = False) -> None:
        """One ranker checkpoint, then every partition cursor.

        Ordering is the invariant: a cursor names only offsets whose
        effects are inside a durable rotation. Each partition's
        coverage stops at its oldest still-queued item — those records
        are handled but not yet applied, so they must replay after a
        crash.
        """
        from repro.obs.handle import maybe_span

        if not self._durable:
            return
        if not force and self._batches_since_checkpoint == 0:
            return
        coverages = [self._coverage(p)
                     for p in range(self.num_partitions)]
        if self._batches_since_checkpoint == 0 and all(
                coverage <= worker.journal.committed
                for coverage, worker in zip(coverages, self.workers)):
            return  # nothing new to make durable
        with maybe_span(self.obs, "ingest.commit",
                        coverage=sum(coverages)):
            # Records handled without effect (trailing duplicates,
            # tombstones) need no new rotation, only the cursors.
            if self._batches_since_checkpoint or not checkpoint_rotations(
                    self.live.checkpoint_dir):
                self.live.checkpoint()
            for coverage, worker in zip(coverages, self.workers):
                if coverage > worker.journal.committed:
                    worker.journal.commit(coverage, extra={
                        "batches_applied": self.live.batches_applied,
                        "incarnation": worker.incarnation,
                    })
        self._batches_since_checkpoint = 0
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_ingest_commits_total",
                "Checkpoint-plus-cursor commits.").inc()
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Reclaim cursor-covered segments when compaction is on."""
        if self.compaction is None:
            return
        for worker in self.workers:
            compaction = worker.journal.compact(
                retention=self.compaction)
            reclaimed = (compaction.segments_archived
                         + compaction.segments_deleted)
            if not reclaimed:
                continue
            worker.stats.segments_archived += reclaimed
            worker.stats.segments_reclaimed_bytes += \
                compaction.bytes_reclaimed
            self.report.segments_archived += reclaimed
            self.report.segments_reclaimed_bytes += \
                compaction.bytes_reclaimed
            if self.obs is not None:
                from repro.obs.metrics import (
                    SEGMENTS_ARCHIVED_HELP, SEGMENTS_ARCHIVED_METRIC,
                    SEGMENTS_RECLAIMED_HELP, SEGMENTS_RECLAIMED_METRIC)

                self.obs.metrics.counter(
                    SEGMENTS_ARCHIVED_METRIC,
                    SEGMENTS_ARCHIVED_HELP).inc(reclaimed)
                self.obs.metrics.counter(
                    SEGMENTS_RECLAIMED_METRIC,
                    SEGMENTS_RECLAIMED_HELP).inc(
                    compaction.bytes_reclaimed)

    # ------------------------------------------------------------------

    def _export_gauges(self) -> None:
        if self.obs is None:
            return
        from repro.obs.metrics import PARTITION_LABEL

        metrics = self.obs.metrics
        metrics.gauge("repro_ingest_queue_depth",
                      "Items in the coalescer queue.").set(
            len(self.coalescer))
        metrics.gauge("repro_ingest_queue_peak",
                      "Peak coalescer occupancy this run.").set(
            self.coalescer.peak)
        metrics.gauge("repro_ingest_committed_offset",
                      "Journal offset durably committed.").set(
            sum(w.journal.committed for w in self.workers))
        committed = metrics.gauge(
            "repro_ingest_partition_committed_offset",
            "Per-partition journal offset durably committed.",
            labels=(PARTITION_LABEL,))
        for worker in self.workers:
            committed.set(worker.journal.committed,
                          partition=str(worker.partition))
