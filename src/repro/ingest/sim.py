"""Chaos harness for the streaming ingest pipeline.

:func:`run_ingest_sim` grades one synthetic feed two ways:

* **Chaos run** — through the full
  :class:`~repro.ingest.partition.PartitionedIngestPipeline` (K
  partition journals, dedup, backpressure, checkpoints) with every
  fault of its :class:`~repro.resilience.FaultPlan` armed (the
  ``source``, ``parse``, ``ingest`` and ``partition`` sites): source
  stalls and transient errors, parser crashes (retryable and poison),
  per-partition stalls, scripted partition-worker crashes (several at
  the same arrival seq = simultaneous deaths) with torn tails, and a
  hard mid-batch coordinator crash with journal-driven resume, whose
  partitions consult the same tear faults first. Duplicate storms and
  mangled records are baked into the feed.
* **Cold oracle** — :func:`fault_free_reference` collapses the same
  feed, fault-free and with no pipeline code in the way, into one
  :class:`~repro.engine.updates.UpdateBatch` applied in a single step.
  Every K is graded against this one oracle.

It then *proves* the delivery contract by comparing outcomes:

* ``records_lost`` — reference articles and citations missing from
  the chaos run's final corpus (must be 0);
* ``duplicates_applied`` — articles/citations the chaos corpus holds
  beyond the reference (must be 0). Both are multiset differences of
  article ids and ``(citing, cited)`` pairs between the two corpora,
  not pipeline counters, so the pipeline cannot grade its own homework
  and a missing article cannot cancel out an extra one;
* ``bit_identical`` — the exact full ranking of the chaos corpus
  equals the reference corpus's, score for score, rank for rank.
  Incremental prestige is path-dependent, so the claim is on the exact
  solve of the *final corpus* — identical corpora give identical exact
  rankings, and the corpora are compared directly too.

``repro ingest-sim`` prints the result; ``benchmarks/ingest_smoke.py``
writes it as a RunReport that CI hard-gates against a committed
baseline.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.errors import ParseError, StorageError
from repro.core.model import ArticleRanker, RankerConfig
from repro.data.schema import ScholarlyDataset
from repro.engine.live import LiveRanker
from repro.engine.updates import UpdateBatch, apply_update
from repro.ingest.coalescer import Coalescer
from repro.ingest.partition import PartitionedIngestPipeline
from repro.ingest.pipeline import IngestReport
from repro.ingest.source import SyntheticSource, parse_record
from repro.obs.metrics import (FRESHNESS_BUCKETS, FRESHNESS_HELP,
                               FRESHNESS_METRIC)
from repro.resilience.faults import FaultPlan, InjectedCrash

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.handle import Observability


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
    seen_articles: Dict[int, object] = {}
    articles: List = []
    citations: List[Tuple[int, int]] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    position = 0
    while True:
        payload = source.get(position)
        if payload is None:
            break
        if position in poisoned:
            position += 1
            continue
        try:
            item = parse_record(payload, position)
        except ParseError:
            position += 1
            continue
        if item.kind == "article":
            article = item.article
            if article.id not in dataset.articles \
                    and article.id not in seen_articles:
                seen_articles[article.id] = article
                articles.append(article)
        else:
            citing, cited = item.citation
            known = citing in dataset.articles \
                or citing in seen_articles
            target = cited in dataset.articles \
                or cited in seen_articles
            if not (known and target):
                position += 1
                continue
            refs: Tuple[int, ...] = ()
            if citing in dataset.articles:
                refs = dataset.articles[citing].references
            elif citing in seen_articles:
                refs = seen_articles[citing].references
            if cited not in refs \
                    and (citing, cited) not in seen_pairs:
                seen_pairs.add((citing, cited))
                citations.append((citing, cited))
        position += 1
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


@dataclass
class IngestSimReport:
    """Outcome of one chaos-vs-reference ingest comparison."""

    status: str = "ok"  # "ok" | "failed"
    error: Optional[str] = None
    crashed: bool = False
    resumed: bool = False
    #: the armed fault specs, in arming order
    faults: List[str] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    pipeline: Optional[IngestReport] = None
    resume_pipeline: Optional[IngestReport] = None

    @property
    def contract_held(self) -> bool:
        """Zero loss, zero duplicates, bit-identical final ranking."""
        return (self.status == "ok"
                and self.metrics.get("records_lost") == 0
                and self.metrics.get("duplicates_applied") == 0
                and bool(self.metrics.get("bit_identical")))

    def render(self) -> str:
        lines = [f"# ingest-sim: {self.status}"
                 + (f" ({self.error})" if self.error else "")]
        if self.crashed:
            lines.append("# worker crashed mid-batch and resumed from "
                         "the journal")
        for key in sorted(self.metrics):
            lines.append(f"{key:>26}: {self.metrics[key]}")
        if self.pipeline is not None \
                and self.pipeline.parse_report.quarantined:
            lines.append("# quarantine: "
                         + self.pipeline.parse_report.summary()
                         .replace("\n", "\n# "))
        verdict = "HELD" if self.contract_held else "VIOLATED"
        lines.append(f"# delivery contract: {verdict}")
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps({
            "status": self.status, "error": self.error,
            "crashed": self.crashed, "resumed": self.resumed,
            "contract_held": self.contract_held,
            "faults": self.faults, "metrics": self.metrics,
        }, indent=indent)

    def to_report(self, name: str = "ingest-smoke"):
        """A RunReport for ``benchmarks/compare.py`` gating."""
        from repro.obs.report import RunReport

        report = RunReport(name)
        for key, value in self.metrics.items():
            if isinstance(value, bool):
                value = int(value)
            report.record_metric(key, value)
        report.record_metric("crashed", int(self.crashed))
        report.record_metric("contract_held", int(self.contract_held))
        return report


def run_ingest_sim(dataset: Optional[ScholarlyDataset] = None, *,
                   records: int = 80, seed: int = 0,
                   duplicate_every: int = 0, mangle_every: int = 0,
                   cite_every: int = 0,
                   fault_plan: Optional[FaultPlan] = None,
                   min_batch: int = 8, max_batch: int = 32,
                   max_queue: int = 48, checkpoint_batches: int = 1,
                   parse_attempts: int = 2,
                   partitions: int = 1,
                   segment_records: int = 1024,
                   compaction: Optional[str] = None,
                   workdir: Optional[Path] = None,
                   obs: Optional["Observability"] = None,
                   bundle_dir: Optional[Path] = None
                   ) -> IngestSimReport:
    """Run the chaos feed and grade it against the fault-free run.

    ``fault_plan`` scripts the chaos: ``source:error:R`` is one
    transient source error (absorbed by retry); ``parse:crash:R`` a
    retryable parser crash, and with ``xTIMES`` at or beyond
    ``parse_attempts`` a poison record the pipeline must quarantine
    (the reference skips it too); ``ingest:crash:B`` a hard
    coordinator death applying batch ordinal ``B``, followed by a
    journal resume; ``partition:crash:P,SEQ`` kills partition ``P``'s
    worker right after it journals arrival ``SEQ`` (the same ``SEQ``
    for two partitions = simultaneous deaths); ``partition:tear:P``
    chops partition ``P``'s active tail at its next crash — a worker
    recovery or the coordinator crash's resume.

    ``partitions`` is the pipeline's K (1 = a single worker).
    ``compaction`` (``"archive"`` or ``"delete"``) arms journal segment
    reclaim after every commit — pair it with a small
    ``segment_records`` so segments actually seal during the run.

    When no ``obs`` handle is passed the sim builds its own with a
    :class:`~repro.obs.recorder.FlightRecorder` attached, so a worker
    crash freezes an incident bundle (written under ``bundle_dir``
    when given) and the report carries arrival→applied freshness
    numbers from the shared freshness histogram.
    """
    if dataset is None:
        from repro.data.generator import GeneratorConfig, \
            generate_dataset

        dataset = generate_dataset(GeneratorConfig(
            num_articles=120, num_venues=6, num_authors=40,
            start_year=2000, end_year=2015, seed=seed + 11))

    owns_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="ingest-sim-")) \
        if workdir is None else Path(workdir)
    journal_dir = workdir / "journal"
    checkpoint_dir = workdir / "checkpoints"

    source = SyntheticSource(
        sorted(dataset.articles), records, seed=seed,
        duplicate_every=duplicate_every, mangle_every=mangle_every,
        cite_every=cite_every)

    if obs is None:
        from repro.obs import FlightRecorder, Observability

        obs = Observability(
            "ingest-sim",
            recorder=FlightRecorder(bundle_dir=bundle_dir))
    recorder = getattr(obs, "recorder", None)

    def knobs() -> Dict[str, object]:
        return dict(
            coalescer=Coalescer(max_queue=max_queue,
                                min_batch=min_batch,
                                max_batch=max_batch),
            parse_attempts=parse_attempts,
            checkpoint_batches=checkpoint_batches,
            segment_records=segment_records, fault_plan=fault_plan,
            obs=obs, compaction=compaction)

    sim = IngestSimReport(faults=[str(fault) for fault
                                  in fault_plan.faults]
                          if fault_plan is not None else [])
    try:
        pipeline = PartitionedIngestPipeline(
            LiveRanker(dataset, checkpoint_dir=checkpoint_dir),
            source, journal_dir, partitions, **knobs())
        try:
            sim.pipeline = pipeline.run()
            final = pipeline
        except InjectedCrash:
            sim.crashed = True
            if recorder is not None:
                recorder.capture("ingest.crash")
            pipeline.report.peak_queue = pipeline.coalescer.peak
            pipeline.report.committed_offset = sum(
                w.journal.committed for w in pipeline.workers)
            sim.pipeline = pipeline.report
            for worker in pipeline.workers:
                worker.journal.close()
                worker.tear()
            incarnation = pipeline.incarnation + 1
            try:
                resumed = PartitionedIngestPipeline.resume(
                    checkpoint_dir, journal_dir, source, partitions,
                    incarnation=incarnation, **knobs())
            except StorageError:
                # Crashed before the first checkpoint ever landed:
                # re-bootstrap from the base corpus; the journals
                # replay from offset 0 (idempotent, so still safe).
                resumed = PartitionedIngestPipeline(
                    LiveRanker(dataset, checkpoint_dir=checkpoint_dir),
                    source, journal_dir, partitions,
                    incarnation=incarnation, **knobs())
            sim.resume_pipeline = resumed.run()
            sim.resumed = True
            final = resumed

        poisoned = frozenset(
            fault.key[0] for fault in fault_plan.faults
            if fault.site == "parse" and fault.times >= parse_attempts) \
            if fault_plan is not None else frozenset()
        reference_dataset = apply_update(
            dataset, fault_free_reference(source, dataset, poisoned))
        chaos_dataset = final.live.dataset
        lost, duplicated = delivery_diff(chaos_dataset, reference_dataset)

        config = RankerConfig()
        chaos_rank = ArticleRanker(config).rank(chaos_dataset)
        reference_rank = ArticleRanker(config).rank(reference_dataset)
        identical = datasets_equal(chaos_dataset, reference_dataset) \
            and chaos_rank.by_id() == reference_rank.by_id()

        last = sim.resume_pipeline if sim.resumed else sim.pipeline
        runs = [run for run in (sim.pipeline, sim.resume_pipeline)
                if run is not None]
        sim.metrics = {
            "partitions": partitions,
            "records_total": len(source),
            "records_replayed": sum(r.records_replayed for r in runs),
            "worker_crashes": sum(r.worker_crashes for r in runs),
            "records_lost": lost,
            "duplicates_applied": duplicated,
            "bit_identical": identical,
            "batches_applied": sum(r.batches_applied for r in runs),
            "duplicates_skipped": sum(r.duplicates_skipped
                                      for r in runs),
            "quarantined": sum(r.quarantined for r in runs),
            "source_retries": sum(r.source_retries for r in runs),
            "parse_crashes": sum(r.parse_crashes for r in runs),
            "backpressure_pauses": sum(r.backpressure_pauses
                                       for r in runs),
            "peak_queue": max(r.peak_queue for r in runs),
            "queue_bound": max_queue,
            "torn_records_dropped": sum(r.torn_records_dropped
                                        for r in runs),
            "committed_offset": last.committed_offset,
            "segments_archived": sum(r.segments_archived
                                     for r in runs),
            "segments_reclaimed_bytes": sum(r.segments_reclaimed_bytes
                                            for r in runs),
            "freshness_max_records": max(r.freshness_max_records
                                         for r in runs),
            "freshness_mean_records": round(
                sum(r.freshness_sum_records for r in runs)
                / max(1, sum(r.freshness_samples for r in runs)), 3),
        }
        fresh = obs.metrics.histogram(
            FRESHNESS_METRIC, FRESHNESS_HELP,
            buckets=FRESHNESS_BUCKETS, labels=("stage",))
        served_n = fresh.count(stage="applied")
        sim.metrics["freshness_served_count"] = served_n
        sim.metrics["freshness_served_mean_ms"] = round(
            fresh.sum(stage="applied") / served_n * 1000.0, 3) \
            if served_n else 0.0
        sim.metrics["incident_bundles"] = \
            len(recorder.captures) if recorder is not None else 0
        for stats in last.partitions:
            prefix = f"p{stats.partition}"
            sim.metrics[f"{prefix}_committed_offset"] = \
                stats.committed_offset
            sim.metrics[f"{prefix}_worker_crashes"] = \
                stats.worker_crashes
    except Exception as exc:  # noqa: BLE001 - the report must survive
        sim.status = "failed"
        sim.error = f"{type(exc).__name__}: {exc}"
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return sim
