"""One drill harness: feed → gateway → grade, whatever the feed.

``repro serve-load``, ``repro ingest-sim`` and ``repro watch`` run one
fixed sequence (:func:`run_drill`): base corpus →
:class:`~repro.engine.live.LiveRanker` →
:class:`~repro.serve.gateway.ShardedGateway` (breakers that cool down
in milliseconds, :data:`SIM_COOLDOWN`) → optional reader threads →
**feed** → **settle** (pump until the backlog drains, sample
degradation and tick the SLOs while faults are live, then ``repair()``)
→ **grade**. The feed is the only variation point:

* :class:`ArrivalFeed` hands synthetic arrival batches straight to
  ``gateway.ingest`` (``serve-load``; ``watch`` prints its SLO table
  from the per-tick callback);
* :class:`RecordFeed` streams raw records through a
  :class:`~repro.ingest.partition.PartitionedIngestPipeline` whose sink
  is the gateway; a coordinator crash resumes the pipeline from its
  journals and checkpoints behind a rebuilt gateway (``ingest-sim``).

Every drill is graded twice. The **delivery contract**: the feed's
fault-free batch applied to the base corpus in one step, minus what the
serving tier quarantined (accounted loss), is the cold oracle;
``records_lost`` / ``duplicates_applied`` are multiset differences of
article ids and citation pairs (:func:`delivery_diff`) and
``bit_identical`` needs equal corpora and equal exact rankings.
**Merge parity**: the merged top-k, plain and filtered, must equal the
published ranking's own order bit for bit (``merge_mismatches``).

The result is one :class:`~repro.obs.report.RunReport` — every drill
command's ``--json`` artifact and what ``benchmarks/compare.py`` gates.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import count, islice, zip_longest
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Set, Tuple)

from repro.errors import (OverloadError, ParseError, ServeError,
                          StorageError)
from repro.core.model import ArticleRanker
from repro.data.quarantine import ParseReport
from repro.data.schema import Article, ScholarlyDataset
from repro.engine.live import LiveRanker
from repro.engine.updates import (BatchProvenance, UpdateBatch,
                                  apply_update)
from repro.ingest.coalescer import Coalescer
from repro.ingest.partition import PartitionedIngestPipeline
from repro.ingest.source import SyntheticSource, parse_record
from repro.obs.metrics import FRESHNESS_METRIC
from repro.obs.report import RunReport
from repro.resilience.faults import FaultPlan, InjectedCrash
from repro.resilience.policy import RetryPolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.gateway import ShardedGateway

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.handle import Observability
    from repro.serve.service import IngestReport

#: Short breaker cooldowns so a drill recovers in wall-clock
#: milliseconds, not the production default's seconds.
SIM_COOLDOWN = RetryPolicy(max_retries=1_000_000, base_delay=0.01,
                           max_delay=0.05, jitter=0.0)
#: Update failures that trip the drill's breaker.
FAILURE_THRESHOLD = 2
#: Pump passes allowed to drain the backlog after the feed.
MAX_RECOVERY_TICKS = 40
#: Parse tries per record; a record whose parser crashes this often is
#: poison, quarantined by the pipeline and skipped by the oracle.
PARSE_ATTEMPTS = 2

Tick = Callable[["Drill", Dict[str, object]], None]


def arrival_batches(base: ScholarlyDataset, size: int,
                    rng: random.Random) -> Iterator[UpdateBatch]:
    """Endless synthetic arrivals: ``size`` fresh articles per batch in
    the base's newest year, each citing three base articles.

    Ids count up past the base's highest from one monotonic counter,
    *not* from the current dataset: a deferred or quarantined batch
    must not cause a later batch to reuse its ids.
    """
    base_ids = sorted(base.articles)
    next_id = base_ids[-1] + 1
    _, year = base.year_range()
    while True:
        yield UpdateBatch(articles=tuple(
            Article(id=article_id, title=f"synthetic-arrival-{article_id}",
                    year=year, venue_id=None, author_ids=(),
                    references=tuple(rng.sample(base_ids,
                                                min(3, len(base_ids)))))
            for article_id in range(next_id, next_id + size)))
        next_id += size


@dataclass(frozen=True)
class ArrivalFeed:
    """``batches`` arrival batches of ``batch_size`` straight into a
    ``shards``-shard tier deployed ``mode``."""

    batches: int = 4
    batch_size: int = 16
    shards: int = 2
    mode: str = "inline"

    name = "serve-load"
    checkpointed = False

    def _batches(self, drill: "Drill") -> Iterator[UpdateBatch]:
        return islice(arrival_batches(drill.base, self.batch_size,
                                      random.Random(drill.seed)),
                      self.batches)

    def run(self, drill: "Drill") -> None:
        drill.report.metrics["batches"] = self.batches
        for batch in self._batches(drill):
            # Stamp the arrival wall-clock so the publish path's
            # freshness histogram sees arrival→published latency.
            drill.ingest(replace(batch, provenance=BatchProvenance(
                arrivals=(time.time(),) * batch.num_articles)))

    def reference(self, drill: "Drill") -> UpdateBatch:
        return UpdateBatch(articles=tuple(
            article for batch in self._batches(drill)
            for article in batch.articles))


@dataclass(frozen=True)
class RecordFeed:
    """``records`` raw :class:`~repro.ingest.source.SyntheticSource`
    records (every ``duplicate_every``-th a re-delivery, every
    ``mangle_every``-th broken, every ``cite_every``-th a late citation)
    through the ingest pipeline: ``partitions`` workers journaling in
    segments of ``segment_records`` (reclaimed after each commit under
    ``compaction``), a coalescer cutting ``min_batch``..``max_batch``
    items under ``max_queue``, and a checkpoint plus cursor commit every
    ``checkpoint_batches`` batches. The serving tier is one inline
    shard: the drill exercises the pipeline, the gateway is where its
    batches become visible.
    """

    records: int = 80
    duplicate_every: int = 0
    mangle_every: int = 0
    cite_every: int = 0
    partitions: int = 1
    min_batch: int = 8
    max_batch: int = 32
    max_queue: int = 48
    checkpoint_batches: int = 1
    segment_records: int = 1024
    compaction: Optional[str] = None

    name = "ingest-sim"
    checkpointed = True
    shards = 1
    mode = "inline"

    def _source(self, drill: "Drill") -> SyntheticSource:
        return SyntheticSource(
            sorted(drill.base.articles), self.records, seed=drill.seed,
            duplicate_every=self.duplicate_every,
            mangle_every=self.mangle_every, cite_every=self.cite_every)

    def run(self, drill: "Drill") -> None:
        source = self._source(drill)
        journal_dir = drill.workdir / "journal"
        checkpoint_dir = drill.live.checkpoint_dir

        def knobs() -> Dict[str, object]:
            return dict(
                coalescer=Coalescer(max_queue=self.max_queue,
                                    min_batch=self.min_batch,
                                    max_batch=self.max_batch),
                parse_attempts=PARSE_ATTEMPTS,
                checkpoint_batches=self.checkpoint_batches,
                segment_records=self.segment_records,
                fault_plan=drill.fault_plan, obs=drill.obs,
                compaction=self.compaction, sink=drill)

        metrics = drill.report.metrics
        metrics.update(crashed=0, resumed=0)
        pipeline = PartitionedIngestPipeline(
            drill.live, source, journal_dir, self.partitions, **knobs())
        runs = []
        try:
            runs.append(pipeline.run())
        except InjectedCrash:
            metrics["crashed"] = 1
            if drill.recorder is not None:
                drill.recorder.capture("ingest.crash")
            pipeline.report.peak_queue = pipeline.coalescer.peak
            pipeline.report.committed_offset = sum(
                w.journal.committed for w in pipeline.workers)
            runs.append(pipeline.report)
            for worker in pipeline.workers:
                worker.journal.close()
                worker.tear()
            incarnation = pipeline.incarnation + 1
            try:
                pipeline = PartitionedIngestPipeline.resume(
                    checkpoint_dir, journal_dir, source, self.partitions,
                    incarnation=incarnation, **knobs())
            except StorageError:
                # Crashed before the first checkpoint ever landed:
                # re-bootstrap from the base corpus; the journals
                # replay from offset 0 (idempotent, so still safe).
                pipeline = PartitionedIngestPipeline(
                    LiveRanker(drill.base, checkpoint_dir=checkpoint_dir,
                               obs=drill.obs),
                    source, journal_dir, self.partitions,
                    incarnation=incarnation, **knobs())
            drill.attach(pipeline.live)
            drill.tick("resume", "rebuilt")
            runs.append(pipeline.run())
            metrics["resumed"] = 1
        finally:
            for worker in pipeline.workers:
                worker.journal.close()
            self._record(metrics, runs)

    def _record(self, metrics: Dict[str, object], runs) -> None:
        """The counters of every pipeline incarnation, summed."""
        if not runs:
            return
        totals = {key: sum(getattr(run, key) for run in runs) for key in (
            "records_replayed", "worker_crashes", "batches_applied",
            "duplicates_skipped", "quarantined", "source_retries",
            "parse_crashes", "backpressure_pauses", "torn_records_dropped",
            "segments_archived", "segments_reclaimed_bytes",
            "freshness_sum_records", "freshness_samples")}
        metrics.update(
            partitions=self.partitions, records_total=self.records,
            queue_bound=self.max_queue,
            peak_queue=max(run.peak_queue for run in runs),
            committed_offset=runs[-1].committed_offset,
            freshness_max_records=max(run.freshness_max_records
                                      for run in runs),
            freshness_mean_records=round(
                totals.pop("freshness_sum_records")
                / max(1, totals.pop("freshness_samples")), 3),
            **totals)
        metrics.update({f"p{stats.partition}_{key}": getattr(stats, key)
                        for stats in runs[-1].partitions
                        for key in ("committed_offset", "worker_crashes")})
        metrics["incarnations"] = [run.as_metrics() for run in runs]
        parses = [run.parse_report for run in runs]
        metrics["parse_summary"] = ParseReport(
            sum(parse.records_ok for parse in parses),
            metrics["quarantined"],
            [sample for parse in parses for sample in parse.samples],
            [where for parse in parses for where in parse.locations]
        ).summary()

    def reference(self, drill: "Drill") -> UpdateBatch:
        # A parser that crashes on every attempt condemns its record to
        # quarantine; the oracle skips it at the same position.
        faults = drill.fault_plan.faults if drill.fault_plan else ()
        return fault_free_reference(
            self._source(drill), drill.base, frozenset(
                fault.key[0] for fault in faults if fault.site == "parse"
                and fault.times >= PARSE_ATTEMPTS))


def fault_free_reference(source, dataset: ScholarlyDataset,
                         poisoned: frozenset = frozenset()
                         ) -> UpdateBatch:
    """The one batch a perfect, fault-free ingest would apply.

    Mirrors the pipeline's admission rules exactly — parse, first-write
    -wins article dedup, citation endpoint/duplicate checks — over the
    raw feed, with no chaos in the way. This is the ground truth the
    chaos run is graded against.

    ``poisoned`` holds positions the chaos plan condemns to quarantine
    (a parser that crashes on every attempt). The reference skips them
    at the *same position*, so downstream consequences — a citation
    whose endpoint never materialised, a duplicate re-delivering the
    same content later — resolve identically in both runs. Quarantine
    is accounted loss, not silent loss; the zero-loss gate covers every
    record the pipeline was supposed to keep.
    """
    seen_articles: Dict[int, Article] = {}
    articles: List[Article] = []
    citations: List[Tuple[int, int]] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    for position in count():
        payload = source.get(position)
        if payload is None:
            break
        if position in poisoned:
            continue
        try:
            item = parse_record(payload, position)
        except ParseError:
            continue
        if item.kind == "article":
            article = item.article
            if article.id not in dataset.articles \
                    and article.id not in seen_articles:
                seen_articles[article.id] = article
                articles.append(article)
            continue
        citing, cited = item.citation
        owner = dataset.articles.get(citing) or seen_articles.get(citing)
        target = cited in dataset.articles or cited in seen_articles
        if owner is not None and target \
                and cited not in owner.references \
                and (citing, cited) not in seen_pairs:
            seen_pairs.add((citing, cited))
            citations.append((citing, cited))
    return UpdateBatch(articles=tuple(articles),
                       citations=tuple(citations))


def datasets_equal(left: ScholarlyDataset,
                   right: ScholarlyDataset) -> bool:
    """Exact corpus equality: same articles, same references, in full."""
    if set(left.articles) != set(right.articles):
        return False
    for article_id, article in left.articles.items():
        other = right.articles[article_id]
        if (article.year != other.year
                or article.references != other.references):
            return False
    return True


def delivery_diff(chaos: ScholarlyDataset,
                  reference: ScholarlyDataset) -> Tuple[int, int]:
    """``(lost, duplicated)``: the multiset differences of article ids
    and ``(citing, cited)`` pairs, reference minus chaos and back."""
    def contents(dataset: ScholarlyDataset) -> Counter:
        return Counter(dataset.articles.keys()) + Counter(
            (article.id, cited) for article in dataset.articles.values()
            for cited in article.references)

    chaos_items, reference_items = contents(chaos), contents(reference)
    return (sum((reference_items - chaos_items).values()),
            sum((chaos_items - reference_items).values()))


def _parity_mismatches(gateway: ShardedGateway, live: LiveRanker,
                       k: int) -> int:
    """Merged-vs-published mismatch count (bit-exact compare) against
    the published ranking's own order (score descending, ties by
    ascending id), filtered and renumbered here — independent of every
    shard index and of the merge."""
    snapshot = gateway.service.snapshot()
    order = snapshot.ranking.top(snapshot.num_articles)
    articles = live.dataset.articles

    def _expected(keep: Callable[[int], bool]
                  ) -> List[Tuple[int, int, float]]:
        kept = [pair for pair in order if keep(pair[0])][:k]
        return [(rank, article_id, score)
                for rank, (article_id, score) in enumerate(kept, 1)]

    def _got(entries) -> List[Tuple[int, int, float]]:
        return [(entry.rank, entry.article_id, entry.score)
                for entry in entries]

    probes = [(_got(gateway.top_sync(k).entries),
               _expected(lambda article_id: True))]
    # One filtered probe too: filtered scatter-gather must renumber
    # filtered-list ranks exactly like one index over the corpus.
    years = sorted({articles[article_id].year
                    for _, article_id, _ in probes[0][1]})
    if years:
        low, high = years[0], years[len(years) // 2]
        probes.append((
            _got(gateway.top_sync(k, year_range=(low, high)).entries),
            _expected(
                lambda article_id: low <= articles[article_id].year
                <= high)))
    return sum(got != want
               for merged, expected in probes
               for got, want in zip_longest(merged, expected))


def freshness(snapshot: Dict[str, object]) -> Dict[str, Tuple[int, float]]:
    """``{stage: (records, mean seconds)}`` of arrival→visible freshness
    in a metrics-registry snapshot (live, or frozen in a bundle). A
    record counts once per stage it reached: ``publish`` (in a published
    snapshot — what every drill reports), ``served`` (its ingest batch
    published by the pipeline's serving sink), ``applied`` (applied to
    a ranker with no serving tier)."""
    return {entry.get("labels", {}).get("stage", "?"): (
                entry.get("count", 0),
                entry.get("sum", 0.0) / max(entry.get("count", 0), 1))
            for entry in (snapshot.get(FRESHNESS_METRIC) or {}).get(
                "values", [])}


def freshness_line(snapshot: Dict[str, object]) -> str:
    """One-line arrival→visible summary; ``""`` when nothing arrived."""
    parts = [f"{stage}: n={records} mean={mean * 1e3:.2f}ms" for stage,
             (records, mean) in sorted(freshness(snapshot).items())]
    return "freshness: " + "  ".join(parts) if parts else ""


def tail_percentile(count: int) -> float:
    """The highest percentile, at most p95, that still has ten samples
    beyond it; the median when ``count`` supports no tail."""
    return max(50.0, min(95.0, 100.0 * (1.0 - 10.0 / max(count, 1))))


def contract_held(report: RunReport) -> bool:
    """Zero loss, zero duplicates, a bit-identical ranking and exact
    merge parity, in a run that settled."""
    metrics = report.metrics
    return metrics.get("status") == "ok" and all(
        metrics.get(key) == want for key, want in (
            ("records_lost", 0), ("duplicates_applied", 0),
            ("bit_identical", 1), ("merge_mismatches", 0)))


def render(report: RunReport) -> str:
    """The drill's report for a terminal: timeline, readouts, verdict."""
    m = report.metrics
    lines = [f"# {report.name}: {m['num_shards']} shard(s) [{m['mode']}], "
             f"{m['readers']} reader(s), "
             + (f"{m['batches']} batch(es)" if "batches" in m else
                f"{m.get('records_total')} record(s) over "
                f"{m.get('partitions')} partition(s)"),
             "# tick  phase    status       epoch  behind  breaker"
             "    quarantined  shed"]
    lines += [f"{t['tick']:6d}  {t['phase']:<7}  {t['status']:<11}  "
              f"{t['epoch']:5d}  {t['batches_behind']:6d}  "
              f"{t['breaker']:<9}  {t['quarantined_total']:11d}  "
              f"{t['shed_total']:4d}" for t in m["timeline"]]
    lines += [f"# quarantined batch {record['index']}: "
              + "; ".join(record["reasons"])
              for record in m.get("quarantined_batches", [])]
    if "qps" in m:
        lines += [
            f"queries      {m['queries_total']} "
            f"({m['queries_partial']} partial, "
            f"{m['queries_failed']} failed, {m['reads_shed']} shed)",
            f"throughput   {m['qps']:.0f} qps over {m['wall_s']:.2f}s",
            f"latency      p50 {m['p50_ms']:.3f} ms, p{m['tail_pct']:g} "
            f"{m['tail_ms']:.3f} ms of {m['queries_total']} sample(s), "
            f"avg {m['avg_latency_ms']:.3f} ms"]
    if "records_total" in m:
        lines += [f"{key.replace('_', ' '):<24} {m[key]}" for key in (
            "records_replayed", "batches_applied", "duplicates_skipped",
            "quarantined", "source_retries", "parse_crashes",
            "worker_crashes", "torn_records_dropped",
            "backpressure_pauses", "peak_queue", "committed_offset",
            "segments_archived", "freshness_mean_records")]
        if m["quarantined"]:
            lines.append("# quarantine: "
                         + m["parse_summary"].replace("\n", "\n# "))
    lines += [
        f"board epoch  {m.get('board_epoch')}",
        f"parity       {m.get('merge_mismatches')} merged-entry "
        f"mismatch(es) vs the published ranking",
        f"delivery     {m.get('records_lost')} lost, "
        f"{m.get('duplicates_applied')} applied twice, ranking "
        + ("bit-identical" if m.get("bit_identical") else "DIVERGED"),
        f"degraded     shards {m.get('degraded_during') or '[]'} during "
        f"faults; {m.get('shards_missing')} still missing after repair",
        f"freshness    {m.get('freshness_served_count')} record(s) "
        f"published, mean {m.get('freshness_served_mean_ms', 0.0):.3f} "
        f"ms arrival→published",
        f"incidents    {m.get('incident_bundles')} bundle(s)"
        + (f", SLO breaches {m['slo_breaches']}"
           if m.get("slo_breaches") else ""),
        f"final health {m.get('health', {}).get('status')!r}"]
    if m["status"] != "ok":
        lines.append(f"# run {m['status']}"
                     + (f": {m['error']}" if m["error"] else ""))
    lines.append("# delivery contract: "
                 + ("HELD" if contract_held(report) else "VIOLATED"))
    return "\n".join(lines)


class Drill:
    """One drill's moving parts, handed to its feed and tick callback.

    ``live`` / ``gateway`` are whatever serves *now*: a feed that
    rebuilds the tier after a crash calls :meth:`attach`. The drill is
    itself a pipeline sink (``ingest(batch) -> IngestReport``), so every
    batch — fed directly or cut by the ingest pipeline — is one tick.
    """

    def __init__(self, base: ScholarlyDataset, feed, readers: int,
                 queries: int, top: int, fault_plan: Optional[FaultPlan],
                 seed: int, obs: "Observability", workdir: Path,
                 on_tick: Optional[Tick]) -> None:
        from repro.obs import SLOMonitor

        self.base, self.feed, self.readers = base, feed, readers
        self.queries, self.top, self.seed = queries, top, seed
        self.fault_plan, self.obs, self.on_tick = fault_plan, obs, on_tick
        self.workdir = workdir
        self.recorder = getattr(obs, "recorder", None)
        self.monitor = SLOMonitor(obs.metrics, recorder=self.recorder)
        self.live: Optional[LiveRanker] = None
        self.gateway: Optional[ShardedGateway] = None
        self.report = RunReport(feed.name)
        self.report.metrics.update(
            status="ok", error=None,
            faults=[str(fault) for fault in fault_plan.faults]
            if fault_plan is not None else [],
            num_shards=feed.shards, mode=feed.mode, readers=readers,
            queries_total=0, queries_failed=0, queries_partial=0,
            reads_shed=0, timeline=[])
        self._latencies: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def attach(self, live: LiveRanker) -> None:
        """Serve ``live`` from a fresh gateway (closing the old one)."""
        if self.gateway is not None:
            self.gateway.close()
        self.live = live
        self.breaker = CircuitBreaker(failure_threshold=FAILURE_THRESHOLD,
                                      cooldown=SIM_COOLDOWN, obs=self.obs)
        self.gateway = ShardedGateway(
            live, self.feed.shards, mode=self.feed.mode,
            breaker=self.breaker, obs=self.obs, fault_plan=self.fault_plan,
            # A crashed shard stays visibly degraded until the settle
            # step samples it and repairs.
            auto_respawn=False, shard_cooldown=SIM_COOLDOWN,
            max_inflight=max(64, 4 * self.readers))

    def ingest(self, batch: UpdateBatch) -> "IngestReport":
        outcome = self.gateway.ingest(batch)
        self.tick("ingest", outcome.status)
        return outcome

    def tick(self, phase: str, status: str) -> None:
        health = self.gateway.service.health()
        timeline = self.report.metrics["timeline"]
        entry = {"tick": len(timeline), "phase": phase, "status": status,
                 "shed_total": self.report.metrics["reads_shed"],
                 **{key: health[key] for key in (
                     "epoch", "batches_behind", "breaker",
                     "quarantined_total")}}
        timeline.append(entry)
        if self.on_tick is not None:
            self.on_tick(self, entry)

    def _fail(self, exc: BaseException) -> None:
        if self.report.metrics["status"] != "failed":
            self.report.metrics.update(
                status="failed", error=f"{type(exc).__name__}: {exc}")

    def _reader(self, worker: int) -> None:
        rng = random.Random(self.seed * 1000 + worker)
        low, high = self.base.year_range()
        metrics = self.report.metrics
        for query in range(self.queries):
            if self._stop.is_set():
                break
            gateway, started = self.gateway, time.perf_counter()
            try:
                if query % 3 == 2:
                    result = gateway.top_sync(
                        self.top, year_range=(low, rng.randint(low, high)))
                elif query % 3 == 1:
                    result = gateway.page_sync(offset=self.top,
                                               limit=self.top)
                else:
                    result = gateway.top_sync(self.top)
                outcome = "queries_total"
            except OverloadError:
                outcome = "reads_shed"
            except ServeError:
                outcome = "queries_failed"
            with self._lock:
                metrics[outcome] += 1
                if outcome == "queries_total":
                    self._latencies.append(time.perf_counter() - started)
                    metrics["queries_partial"] += not result.complete

    def run(self) -> RunReport:
        metrics = self.report.metrics
        threads = [threading.Thread(target=self._reader, args=(worker,),
                                    daemon=True)
                   for worker in range(self.readers)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        try:
            self.feed.run(self)
            for _ in range(MAX_RECOVERY_TICKS):
                if not self.gateway.service.batches_behind():
                    break
                time.sleep(self.breaker.cooldown_remaining)
                published, quarantined = self.gateway.pump()
                self.tick("recover", "published" if published else (
                    "quarantined" if quarantined else "waiting"))
            if self.gateway.service.batches_behind():
                # Still behind (e.g. the breaker stayed tripped past the
                # recovery budget) — degraded, not lost.
                metrics["status"] = "degraded"
        except Exception as exc:  # noqa: BLE001 - the report survives
            self._fail(exc)
            self._stop.set()
        finally:
            for thread in threads:
                thread.join(timeout=60.0)
            self._stop.set()
            metrics["wall_s"] = time.perf_counter() - started

        # Degradation while injected faults are live, *before* repair:
        # an SLO tick here sees the degraded-shards gauge still raised,
        # so a shard fault breaches gateway-degradation and freezes an
        # incident bundle.
        during = self.gateway.health()
        metrics["degraded_during"] = list(during["degraded_shards"])
        if self.recorder is not None:
            self.recorder.record_health(during)
        metrics["slo_breaches"] = [status.name for status
                                   in self.monitor.tick()
                                   if status.breaching]
        self.gateway.repair()
        health = self.gateway.health()
        quarantined = self.gateway.service.quarantined
        metrics.update(
            board_epoch=self.gateway.board_epoch, health=health,
            shards_missing=len(health["degraded_shards"]),
            quarantined_batches=[record.report() for record in quarantined],
            merge_mismatches=_parity_mismatches(self.gateway, self.live,
                                                self.top))

        # The cold oracle: the feed's fault-free batch minus the
        # serving tier's quarantined batches, applied in one step.
        reference = self.feed.reference(self)
        dropped = {article.id for record in quarantined
                   for article in record.batch.articles}
        pairs = {pair for record in quarantined
                 for pair in record.batch.citations}
        expected = apply_update(self.base, UpdateBatch(
            articles=tuple(article for article in reference.articles
                           if article.id not in dropped),
            citations=tuple(pair for pair in reference.citations
                            if pair not in pairs)))
        served = self.live.dataset
        lost, duplicated = delivery_diff(served, expected)
        ranker = ArticleRanker(self.live.config)
        identical = datasets_equal(served, expected) and \
            ranker.rank(served).by_id() == ranker.rank(expected).by_id()
        published, mean = freshness(self.obs.metrics.snapshot()).get(
            "publish", (0, 0.0))
        metrics.update(
            records_lost=lost, duplicates_applied=duplicated,
            bit_identical=int(identical), freshness_served_count=published,
            freshness_served_mean_ms=round(mean * 1e3, 3),
            incident_bundles=len(self.recorder.captures)
            if self.recorder is not None else 0)
        if self.readers:
            latencies = sorted(self._latencies) or [0.0]
            pct = tail_percentile(len(self._latencies))
            metrics.update(
                qps=len(self._latencies) / max(metrics["wall_s"], 1e-9),
                p50_ms=round(latencies[(len(latencies) - 1) // 2] * 1e3,
                             3),
                tail_pct=pct,
                tail_ms=round(latencies[int(
                    pct / 100.0 * (len(latencies) - 1))] * 1e3, 3),
                avg_latency_ms=round(sum(latencies) / len(latencies)
                                     * 1e3, 3))
        metrics["contract_held"] = int(contract_held(self.report))
        return self.report


def run_drill(dataset: Optional[ScholarlyDataset], feed, *,
              readers: int = 0, queries: int = 50, top: int = 10,
              fault_plan: Optional[FaultPlan] = None, seed: int = 0,
              obs: Optional["Observability"] = None,
              bundle_dir: Optional[Path] = None,
              workdir: Optional[Path] = None,
              on_tick: Optional[Tick] = None) -> RunReport:
    """Run one drill: corpus, tier, readers, ``feed``, settle, grade.

    ``dataset`` is the base corpus (``None``: a small generated one).
    ``readers`` threads each issue ``queries`` top-``top`` reads (plain,
    year-filtered, paged) while the feed runs; ``top`` is also the
    parity probe's k. ``fault_plan`` arms every site the drill
    consults: ``batch`` / ``shard`` on the serving tier, ``source`` /
    ``parse`` / ``ingest`` / ``partition`` in a :class:`RecordFeed`'s
    pipeline. ``seed`` drives the feed and the readers;
    ``on_tick(drill, entry)`` runs after every timeline tick.

    Without an ``obs`` handle the drill builds one with a
    :class:`~repro.obs.recorder.FlightRecorder`, so a coordinator crash
    or an SLO breach while a fault is live freezes an incident bundle
    (saved under ``bundle_dir`` when given). Journals and checkpoints
    live under ``workdir`` (a temporary directory when not given).

    The report's ``status`` is ``"ok"``, ``"degraded"`` (batches still
    behind at the end) or ``"failed"`` (the run raised; the error is
    kept with everything measured up to then).
    """
    from repro.obs import FlightRecorder, Observability

    if dataset is None:
        from repro.data.generator import GeneratorConfig, generate_dataset

        dataset = generate_dataset(GeneratorConfig(
            num_articles=120, num_venues=6, num_authors=40,
            start_year=2000, end_year=2015, seed=seed + 11))
    if obs is None:
        obs = Observability(feed.name,
                            recorder=FlightRecorder(bundle_dir=bundle_dir))
    owns_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="drill-")) if owns_workdir \
        else Path(workdir)
    drill = Drill(dataset, feed, readers, queries, top, fault_plan, seed,
                  obs, workdir, on_tick)
    try:
        drill.attach(LiveRanker(dataset, obs=obs,
                                checkpoint_dir=workdir / "checkpoints"
                                if feed.checkpointed else None))
        return drill.run()
    except Exception as exc:  # noqa: BLE001 - the report survives
        drill._fail(exc)
        return drill.report
    finally:
        if drill.gateway is not None:
            drill.gateway.close()
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
