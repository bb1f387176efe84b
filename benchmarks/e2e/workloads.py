"""The five workloads, driven through the program's public API only.

Corpus and batch sizes are fixed; only repetition counts follow
``--seconds`` (``plan``), through rates calibrated once on the 2-core
review box, so a given ``--seconds`` always does the same work and two
runs of one seed can be compared count for count.

The seed reaches the generators in this file and nothing else: the
program sees generated inputs, never the seed or the workload name.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import threading
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import (ArticleRanker, exponential_decay,
                        time_weight_edges, time_weighted_pagerank)
from repro.data import ScholarlyDataset
from repro.data.generator import aminer_like_config, generate_dataset
from repro.engine import (BlockEngine, LiveRanker, ParallelBlockEngine,
                          UpdateBatch)
from repro.graph import range_partition
from repro.ingest import JsonlSource, PartitionedIngestPipeline
from repro.obs import SolverTelemetry
from repro.query import RankIndex
from repro.ranking import gauss_seidel_pagerank
from repro.serve import ShardedGateway

clock = time.perf_counter

BATCH_ARTICLES = 50
SHARDS = 2
TOP_K = 10
PAGE = 20
PAGE_SPAN = 2000
WARM_READS = 200
READ_CHUNKS = 10
PARITY_K = 100


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile of raw samples (``p`` in 0..100)."""
    ordered = sorted(samples)
    return ordered[max(0, ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int, cap: float = 95.0) -> float:
    """The highest percentile, at most ``cap``, that still has ten
    samples beyond it; the median when ``count`` supports no tail."""
    return max(50.0, min(cap, 100.0 * (1.0 - 10.0 / count)))


def digest(ids: List[int]) -> str:
    return hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()


@dataclass
class Run:
    """What the runner hands a workload."""

    seed: int
    seconds: float
    scale_div: int
    workdir: Path
    _dirs: int = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"setup-{self._dirs}"
        path.mkdir()
        return path

    def count(self, per_second: float, minimum: int = 1) -> int:
        """Repetitions for this run length (``--seconds 0`` = minimum)."""
        return max(minimum, round(self.seconds * per_second))


@dataclass
class Outcome:
    """Raw samples and the correctness ledger of one measured run."""

    #: input unit handed over -> served, one sample per unit (ms).
    served_ms: List[float] = field(default_factory=list)
    #: seconds the write path was busy, and records it made servable.
    busy_s: float = 0.0
    records: int = 0
    #: (op, start, seconds, ok) per read, in issue order, and the
    #: consecutive chunks ``(wall seconds, first, end)`` they fall in:
    #: every read metric is a median over chunks, so a transient that
    #: slows one stretch of reads does not set the result.
    reads: List[Tuple[str, float, float, bool]] = field(
        default_factory=list)
    read_chunks: List[Tuple[float, int, int]] = field(
        default_factory=list)
    #: [start, end] of every publish that ran beside the reads.
    publishes: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    top100_digest: str = ""
    layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str, count: int = 1) -> None:
        """Count ``count`` operations; ``ok=False`` fails all of them."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(message)


# ----------------------------------------------------------------------
# generated inputs

def make_corpus(scale: int, seed: int, holdout: int
                ) -> Tuple[ScholarlyDataset, list]:
    """An AMiner-like corpus with its ``holdout`` newest articles held
    back as arrivals (ids are publication-ordered, references point
    backward in time, so every arrival cites only the base)."""
    full = generate_dataset(aminer_like_config(scale=scale, seed=seed))
    ids = sorted(full.articles)
    split = len(ids) - holdout
    base = ScholarlyDataset(name=f"{full.name}@base")
    base.venues.update(full.venues)
    base.authors.update(full.authors)
    for article_id in ids[:split]:
        base.articles[article_id] = full.articles[article_id]
    return base, [full.articles[article_id] for article_id in ids[split:]]


def batches_of(arrivals: list) -> List[UpdateBatch]:
    return [UpdateBatch(articles=tuple(arrivals[i:i + BATCH_ARTICLES]))
            for i in range(0, len(arrivals), BATCH_ARTICLES)]


def article_record(article) -> Dict[str, object]:
    return {"kind": "article", "id": article.id, "title": article.title,
            "year": article.year, "refs": list(article.references)}


def make_feed(rng: random.Random, arrivals: list, base_ids: List[int],
              total: int) -> Tuple[List[dict], List[int],
                                   List[Tuple[int, int]], int]:
    """``total`` raw records: held-out articles, every 5th a late cite
    from a delivered article to the base, every 9th a verbatim
    duplicate. Returns ``(feed, article ids, cite pairs, duplicates)``."""
    feed: List[dict] = []
    delivered: List[int] = []
    cites: List[Tuple[int, int]] = []
    known = {article.id: set(article.references) for article in arrivals}
    pending = iter(arrivals)
    duplicates = 0
    for position in range(total):
        if position % 9 == 8:
            feed.append(dict(rng.choice(feed)))
            duplicates += 1
        elif position % 5 == 4 and delivered:
            citing = rng.choice(delivered)
            cited = rng.choice(base_ids)
            while cited in known[citing]:
                cited = rng.choice(base_ids)
            known[citing].add(cited)
            cites.append((citing, cited))
            feed.append({"kind": "cite", "citing": citing,
                         "cited": cited})
        else:
            article = next(pending)
            delivered.append(article.id)
            feed.append(article_record(article))
    return feed, delivered, cites, duplicates


class ReadMix:
    """Seeded 60/20/10/10 mix of top / venue top / page / rank_of.

    Stratified, so that the seed decides order and targets but not the
    amount of work: every block of ten reads holds exactly 6/2/1/1 ops
    in a seeded order, and page offsets sweep ``[0, span)`` in
    ``STRATA`` equal strata (a page read costs ``offset + PAGE`` entries
    per shard, by far the dearest op of the mix).
    """

    BLOCK = ("top",) * 6 + ("venue_top",) * 2 + ("page", "rank_of")
    STRATA = 20

    def __init__(self, seed: int, dataset: ScholarlyDataset) -> None:
        self._rng = random.Random(seed)
        sizes = Counter(article.venue_id
                        for article in dataset.articles.values())
        self._venues = sorted(venue for venue, size in sizes.items()
                              if venue is not None and size >= TOP_K)
        self._ids = sorted(dataset.articles)
        self._span = max(1, min(PAGE_SPAN, len(self._ids) - PAGE))
        self._block: List[str] = []
        self._strata: List[int] = []

    def _refill(self, pool: List, items) -> None:
        pool.extend(items)
        self._rng.shuffle(pool)

    def next(self) -> Tuple[str, Optional[int]]:
        if not self._block:
            self._refill(self._block, self.BLOCK)
        op = self._block.pop()
        if op == "top":
            return op, None
        if op == "venue_top":
            return op, self._rng.choice(self._venues)
        if op == "rank_of":
            return op, self._rng.choice(self._ids)
        if not self._strata:
            self._refill(self._strata, range(self.STRATA))
        width = self._span / self.STRATA
        return op, int((self._strata.pop() + self._rng.random()) * width)


Calls = Dict[str, Callable[[Optional[int]], object]]


def gateway_calls(gateway: ShardedGateway) -> Calls:
    return {
        "top": lambda _: gateway.top_sync(TOP_K),
        "venue_top": lambda venue: gateway.top_sync(TOP_K,
                                                    venue_id=venue),
        "page": lambda offset: gateway.page_sync(offset, PAGE),
        "rank_of": gateway.rank_of,
    }


def index_calls(index: RankIndex) -> Calls:
    return {
        "top": lambda _: index.top(TOP_K),
        "venue_top": lambda venue: index.top(TOP_K, venue_id=venue),
        "page": lambda offset: index.page(offset, PAGE),
        "rank_of": index.rank_of,
    }


def _valid(op: str, result: object) -> bool:
    if op == "rank_of":
        return result >= 1
    entries = getattr(result, "entries", result)
    return getattr(result, "complete", True) \
        and len(entries) == (PAGE if op == "page" else TOP_K)


def run_reads(calls: Calls, mix: ReadMix, out: Outcome,
              count: Optional[int] = None,
              stop: Optional[threading.Event] = None) -> None:
    """Closed-loop reader: ``count`` reads, or until ``stop`` is set.
    Every sample is kept; a raised or incomplete read is a failure."""
    done = 0
    while (count is None or done < count) \
            and not (stop is not None and stop.is_set()):
        op, argument = mix.next()
        start = clock()
        try:
            ok = _valid(op, calls[op](argument))
            error = "incomplete or short result"
        except Exception as exc:  # noqa: BLE001 - the reader must go on
            ok, error = False, repr(exc)
        out.reads.append((op, start, clock() - start, ok))
        out.check(ok, f"read {op}({argument}): {error}")
        done += 1


# ----------------------------------------------------------------------
# workloads

class Workload:
    """set-up -> warm-up -> measured window -> reads -> verification."""

    name = ""
    articles = 0
    setup_repeats = 1
    #: reads of the quiet burst after the write window.
    quiet_reads = 2000

    def __init__(self, run: Run) -> None:
        self.run = run
        self.scale = max(self.articles // run.scale_div, 1000)
        self.plan()

    def plan(self) -> None:
        """Fix the repetition counts for ``run.seconds``."""

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Undo :meth:`setup` (processes, shared memory)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def measure(self, out: Outcome) -> None:
        raise NotImplementedError

    def read_calls(self) -> Calls:
        raise NotImplementedError

    def read_dataset(self) -> ScholarlyDataset:
        raise NotImplementedError

    def read_phase(self, out: Outcome) -> None:
        """Quiet closed-loop reads of what the window left served."""
        mix = ReadMix(self.run.seed, self.read_dataset())
        count = self.quiet_reads if self.run.seconds else WARM_READS
        calls = self.read_calls()
        for _ in range(READ_CHUNKS):
            first, start = len(out.reads), clock()
            run_reads(calls, mix, out, count=count // READ_CHUNKS)
            out.read_chunks.append((clock() - start, first,
                                    len(out.reads)))

    def verify(self, out: Outcome, traced: bool) -> None:
        raise NotImplementedError


class GatewayWorkload(Workload):
    """A LiveRanker behind a 2-shard gateway, fed held-out arrivals."""

    mode = "inline"
    holdout = 0
    #: 500 a chunk: 25 samples beyond each chunk's p95, not a bare 10.
    quiet_reads = 5000

    def live_ranker(self, base: ScholarlyDataset) -> LiveRanker:
        return LiveRanker(base)

    def setup(self) -> None:
        self.base, self.arrivals = make_corpus(
            self.scale, self.run.seed, self.holdout)
        self.live = self.live_ranker(self.base)
        self.gateway = ShardedGateway(self.live, SHARDS, mode=self.mode)
        self.published = self.quarantined = 0

    def close(self) -> None:
        self.gateway.close()

    def read_calls(self) -> Calls:
        return gateway_calls(self.gateway)

    def read_dataset(self) -> ScholarlyDataset:
        return self.base

    def ingest(self, batch: UpdateBatch):
        report = self.gateway.ingest(batch)
        self.published += report.published
        self.quarantined += report.quarantined
        return report

    def check_served(self, report, out: Outcome, count: int = 1) -> None:
        """The batch was published and every shard serves its epoch."""
        epochs = [shard["epoch"]
                  for shard in self.gateway.health()["shards"]]
        out.check(report.status == "published"
                  and epochs == [self.gateway.board_epoch] * SHARDS,
                  f"batch {report.status}, shard epochs {epochs} vs "
                  f"board {self.gateway.board_epoch}", count)

    def verify(self, out: Outcome, traced: bool) -> None:
        served = [entry.article_id for entry in
                  self.gateway.top_sync(PARITY_K).entries]
        reference = RankIndex(self.live.dataset,
                              self.live.result.by_id())
        out.check(served == [entry.article_id
                             for entry in reference.top(PARITY_K)],
                  "gateway top-100 differs from one RankIndex over "
                  "live.result")
        out.top100_digest = digest(served)
        out.layer["serve.service.published"] = self.published
        out.layer["serve.service.quarantined"] = self.quarantined
        for op in ("top", "venue_top", "page", "rank_of"):
            out.layer[f"serve.gateway.{op}_p50_ms"] = statistics.median(
                seconds for name, _, seconds, _ in out.reads
                if name == op) * 1e3
        if traced:
            out.layer["engine.incremental.drift_l1"] = \
                self.live.prestige_error_vs_exact()


class Update200k(GatewayWorkload):
    name = "update_200k"
    articles = 200_000

    def plan(self) -> None:
        self.batches = self.run.count(0.3)
        self.holdout = (1 + self.batches) * BATCH_ARTICLES

    def setup(self) -> None:
        super().setup()
        self.warm, *self.feed = batches_of(self.arrivals)

    def warm_up(self) -> None:
        self.gateway.ingest(self.warm)

    def measure(self, out: Outcome) -> None:
        out.info["batches"] = len(self.feed)
        for batch in self.feed:
            start = clock()
            report = self.ingest(batch)
            seconds = clock() - start
            out.served_ms.append(seconds * 1e3)
            out.busy_s += seconds
            out.records += batch.num_articles
            self.check_served(report, out)


class _Sink:
    """The pipeline's sink: ``gateway.ingest`` plus raw samples. The
    report goes back unchanged, so the pipeline behaves as in
    production."""

    def __init__(self, workload: GatewayWorkload) -> None:
        self.workload = workload
        self.out: Optional[Outcome] = None  # set when the window opens
        self.queue_wait_ms: List[float] = []

    def ingest(self, batch: UpdateBatch):
        arrivals = batch.provenance.arrivals
        start = clock()
        report = self.workload.ingest(batch)
        served = clock()
        self.queue_wait_ms.extend((start - at) * 1e3 for at in arrivals)
        self.out.served_ms.extend((served - at) * 1e3
                                  for at in arrivals)
        self.workload.check_served(report, self.out, len(arrivals))
        return report


class StreamDurable20k(GatewayWorkload):
    name = "stream_durable_20k"
    articles = 20_000
    setup_repeats = 3
    #: small enough that archive compaction has sealed segments to move.
    segment_records = 64
    warm_records = 16

    def plan(self) -> None:
        self.records = self.run.count(20.0, minimum=160)
        self.holdout = self.warm_records + self.records

    def live_ranker(self, base: ScholarlyDataset) -> LiveRanker:
        return LiveRanker(base, checkpoint_dir=self.dir / "checkpoints")

    def pipeline(self, name: str, records: List[dict], sink
                 ) -> PartitionedIngestPipeline:
        feed = self.dir / f"{name}.jsonl"
        feed.write_text("".join(json.dumps(record) + "\n"
                                for record in records))
        return PartitionedIngestPipeline(
            self.live, JsonlSource(feed), self.dir / f"{name}-journal",
            2, compaction="archive", sink=sink,
            segment_records=self.segment_records, wall_clock=clock)

    def setup(self) -> None:
        self.dir = self.run.fresh_dir()
        super().setup()
        warm = self.arrivals[:self.warm_records]
        self.feed, self.articles_fed, self.cites_fed, self.duplicates = \
            make_feed(random.Random(self.run.seed),
                      self.arrivals[self.warm_records:],
                      sorted(self.base.articles), self.records)
        self.sink = _Sink(self)
        self.warm_pipeline = self.pipeline(
            "warm", [article_record(article) for article in warm],
            self.gateway)
        self.measured = self.pipeline("feed", self.feed, self.sink)

    def close(self) -> None:
        super().close()
        for pipeline in (self.warm_pipeline, self.measured):
            for worker in pipeline.workers:
                worker.journal.close()

    def warm_up(self) -> None:
        self.warm_pipeline.run()

    def measure(self, out: Outcome) -> None:
        self.sink.out = out
        start = clock()
        report = self.measured.run()
        out.busy_s = clock() - start
        out.records = report.records_pulled
        self.report = report
        out.info["records"] = len(self.feed)

    def verify(self, out: Outcome, traced: bool) -> None:
        report = self.report
        corpus = self.live.dataset.articles
        lost = sum(article_id not in corpus
                   for article_id in self.articles_fed) \
            + sum(cited not in corpus[citing].references
                  for citing, cited in self.cites_fed if citing in corpus)
        miscounted = abs(report.articles_applied
                         - len(self.articles_fed)) \
            + abs(report.citations_applied - len(self.cites_fed)) \
            + abs(report.duplicates_skipped - self.duplicates) \
            + abs(report.records_pulled - len(self.feed)) \
            + report.quarantined
        out.check(lost == 0 and miscounted == 0,
                  f"{lost} records lost, {miscounted} miscounted "
                  f"against the generated feed: {report.as_metrics()}",
                  max(1, lost + miscounted))
        journaled = [part.records_journaled for part in report.partitions]
        out.layer.update({
            "ingest.journal.segments_archived": report.segments_archived,
            "ingest.journal.reclaimed_bytes":
                report.segments_reclaimed_bytes,
            "ingest.partition.skew":
                max(journaled) / statistics.mean(journaled),
            "ingest.pipeline.duplicates_skipped":
                report.duplicates_skipped,
            "ingest.pipeline.quarantined": report.quarantined,
            "ingest.pipeline.backpressure_pauses":
                report.backpressure_pauses,
            "ingest.coalescer.batches": report.batches_applied,
            "ingest.coalescer.batch_size_mean":
                (report.articles_applied + report.citations_applied)
                / report.batches_applied,
            "ingest.coalescer.peak_queue": report.peak_queue,
            "ingest.coalescer.queue_wait_p50_ms":
                statistics.median(self.sink.queue_wait_ms),
        })
        super().verify(out, traced)


class ReadChurn50k(GatewayWorkload):
    name = "read_churn_50k"
    articles = 50_000
    setup_repeats = 2
    mode = "process"
    period_s = 2.0

    def plan(self) -> None:
        self.window_s = max(self.run.seconds, 1.0)
        self.publishes = max(1, int(self.window_s // self.period_s))
        self.holdout = (1 + self.publishes) * BATCH_ARTICLES

    def setup(self) -> None:
        super().setup()
        self.warm, *self.feed = batches_of(self.arrivals)

    def warm_up(self) -> None:
        self.gateway.ingest(self.warm)
        run_reads(self.read_calls(), ReadMix(self.run.seed, self.base),
                  Outcome(), count=WARM_READS)

    def measure(self, out: Outcome) -> None:
        """One closed-loop reader thread beside an open-loop publisher:
        batch ``i`` is due at ``(i + 1/4) * period`` and its latency is
        taken from when it was due, so a late publish is not hidden."""
        out.info["publishes"] = len(self.feed)
        stop = threading.Event()
        reads = Outcome()  # the reader's own ledger, merged after join
        reader = threading.Thread(
            target=run_reads, name="reader",
            args=(self.read_calls(), ReadMix(self.run.seed, self.base),
                  reads), kwargs={"stop": stop})
        lags = []
        start = clock()
        reader.start()
        try:
            for position, batch in enumerate(self.feed):
                due = start + (position + 0.25) * self.period_s
                time.sleep(max(0.0, due - clock()))
                began = clock()
                report = self.ingest(batch)
                ended = clock()
                lags.append(began - due)
                out.publishes.append((began, ended))
                out.served_ms.append((ended - due) * 1e3)
                out.busy_s += ended - began
                out.records += batch.num_articles
                self.check_served(report, out)
            time.sleep(max(0.0, start + self.window_s - clock()))
        finally:  # a publisher that raised must not leave the reader spinning
            stop.set()
            reader.join(timeout=30.0)
        out.check(not reader.is_alive(), "reader thread did not stop")
        out.reads = reads.reads
        # One chunk per publish period: each holds one publish.
        chunk_s = self.window_s / len(self.feed)
        starts = [read[1] for read in out.reads]
        edges = [bisect_left(starts, start + position * chunk_s)
                 for position in range(len(self.feed))] + [len(starts)]
        out.read_chunks = [(chunk_s, first, end)
                           for first, end in zip(edges, edges[1:])]
        out.attempted += reads.attempted
        out.failed += reads.failed
        out.failures += reads.failures
        out.layer["serve.gateway.publish_lag_s"] = max(lags)

    def read_phase(self, out: Outcome) -> None:
        """The reads ran beside the writes."""


class ColdWorkload(Workload):
    """A whole corpus, no live state; reads go straight to the
    ``RankIndex`` (``self.index``) the window produced."""

    articles = 200_000
    #: microsecond reads straight on the index: more of them for a tail.
    quiet_reads = 20_000

    def setup(self) -> None:
        self.dataset = generate_dataset(
            aminer_like_config(scale=self.scale, seed=self.run.seed))

    def read_calls(self) -> Calls:
        return index_calls(self.index)

    def read_dataset(self) -> ScholarlyDataset:
        return self.dataset


class BatchCold200k(ColdWorkload):
    name = "batch_cold_200k"

    def plan(self) -> None:
        self.ranks = self.run.count(0.2)

    def rank_and_index(self):
        result = ArticleRanker().rank(self.dataset)
        return result, RankIndex(self.dataset, result.by_id())

    def warm_up(self) -> None:
        self.rank_and_index()

    def measure(self, out: Outcome) -> None:
        out.info["ranks"] = self.ranks
        for _ in range(self.ranks):
            start = clock()
            self.result, self.index = self.rank_and_index()
            seconds = clock() - start
            out.served_ms.append(seconds * 1e3)
            out.busy_s += seconds
            out.records += len(self.index)
            diagnostics = self.result.diagnostics
            out.check(bool(diagnostics["twpr_converged"]
                           and diagnostics["venue_converged"]),
                      "cold rank did not converge")

    def verify(self, out: Outcome, traced: bool) -> None:
        served = [entry.article_id
                  for entry in self.index.top(PARITY_K)]
        out.check(served == [article_id for article_id, _
                             in self.result.top(PARITY_K)],
                  "RankIndex top-100 differs from RankingResult.top")
        out.top100_digest = digest(served)
        if traced:
            self.kernels_side_by_side(out)

    def kernels_side_by_side(self, out: Outcome) -> None:
        """The two level-sweep kernels (ROADMAP item 3b) on one graph
        with the same time-decayed edge weights."""
        graph = self.dataset.citation_csr()
        years = self.dataset.article_years(graph)
        decay = exponential_decay(ArticleRanker().config.prestige_decay)
        start = clock()
        twpr = time_weighted_pagerank(graph, years, decay=decay)
        out.layer["core.twpr.solve_s"] = clock() - start
        out.layer["core.twpr.iterations"] = twpr.iterations
        weights = time_weight_edges(graph, years, decay)
        start = clock()
        sweeps = gauss_seidel_pagerank(graph, edge_weights=weights)
        out.layer["ranking.gauss_seidel.solve_s"] = clock() - start
        out.layer["ranking.gauss_seidel.sweeps"] = sweeps.iterations
        out.check(twpr.converged and sweeps.converged,
                  "a level-sweep kernel did not converge")


class BlockSolve200k(ColdWorkload):
    name = "block_solve_200k"
    blocks = 8
    workers = 2

    def plan(self) -> None:
        self.solves = self.run.count(0.4)

    def setup(self) -> None:
        super().setup()
        self.graph = self.dataset.citation_csr()
        self.partition = range_partition(self.graph, self.blocks)

    def solve(self, **engine_kwargs):
        return ParallelBlockEngine(
            self.graph, self.partition, num_workers=self.workers,
            **engine_kwargs).run()

    def warm_up(self) -> None:
        self.solve()

    def measure(self, out: Outcome) -> None:
        out.info["solves"] = self.solves
        for _ in range(self.solves):
            start = clock()
            self.result = self.solve()
            seconds = clock() - start
            out.served_ms.append(seconds * 1e3)
            out.busy_s += seconds
            out.records += self.graph.num_nodes
            out.check(self.result.converged,
                      "parallel block solve did not converge")

    def read_phase(self, out: Outcome) -> None:
        self.index = RankIndex(self.dataset, dict(zip(
            self.graph.node_ids.tolist(), self.result.scores.tolist())))
        super().read_phase(out)

    def verify(self, out: Outcome, traced: bool) -> None:
        scores = self.result.scores
        start = clock()
        engine = BlockEngine(self.graph, self.partition)
        built = clock()
        serial = engine.run()
        out.layer.update({
            "engine.blocks.build_s": built - start,
            "engine.blocks.run_s": clock() - built,
            "engine.blocks.supersteps": serial.supersteps,
            "engine.blocks.local_iterations": serial.local_iterations,
            "engine.blocks.messages": serial.messages,
            "engine.blocks.blocks_skipped": serial.blocks_skipped,
            "engine.parallel.supersteps": self.result.supersteps,
        })
        out.check(serial.converged
                  and np.array_equal(serial.scores, scores),
                  "serial BlockEngine and ParallelBlockEngine scores "
                  "are not bit-identical")
        order = np.lexsort((self.graph.node_ids, -scores))[:PARITY_K]
        served = [entry.article_id
                  for entry in self.index.top(PARITY_K)]
        out.check(served == self.graph.node_ids[order].tolist(),
                  "RankIndex top-100 differs from the solved scores")
        out.top100_digest = digest(served)
        if traced:
            self.planes_side_by_side(out)

    def planes_side_by_side(self, out: Outcome) -> None:
        """Both IPC planes explicitly: the shm/pickle crossover nobody
        measured (ROADMAP item 3)."""
        for plane, shared in (("shm", True), ("pickle", False)):
            telemetry = SolverTelemetry("parallel")
            start = clock()
            result = ParallelBlockEngine(
                self.graph, self.partition, num_workers=self.workers,
                shared_memory=shared).run(telemetry=telemetry)
            out.layer[f"engine.parallel.{plane}_run_s"] = clock() - start
            out.layer[f"engine.parallel.bytes_shipped_{plane}"] = \
                telemetry.bytes_shipped
            out.check(np.array_equal(result.scores, self.result.scores),
                      f"{plane} plane scores differ from the default "
                      f"plane")


WORKLOADS = {cls.name: cls for cls in (
    Update200k, StreamDurable20k, ReadChurn50k, BatchCold200k,
    BlockSolve200k)}
