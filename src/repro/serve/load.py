"""`repro serve-load`: readers vs a faultable feed on the serving tier.

The one serve harness. Reader threads hammer scatter-gather queries
against a :class:`~repro.serve.gateway.ShardedGateway` (``--shards 1``
is the single-process tier) while the feed ingests arrival batches —
every publish rewrites the score board and refreshes every shard.
:class:`repro.resilience.FaultPlan` can crash or NaN-poison chosen
*batches* (the update path: guardrail veto, quarantine, breaker) and
crash or poison one *shard* (the read tier: per-shard degradation).
After the feed the pipeline is pumped until the breaker's half-open
probe drains the backlog, one health-timeline tick per step. The report
carries that timeline, sustained QPS and p50/p99 latency, the
degradation observed while a shard fault was live, and — the
hard-gated part — merge parity: after the run settles, the gateway's
merged top-k must be **bit-identical** (ids, scores, tie order) to the
published ranking's own order. The :meth:`LoadReport.to_report`
RunReport is what CI diffs against
``benchmarks/baselines/serve_load_smoke.json``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Tuple)

from repro.errors import OverloadError, ServeError
from repro.data.schema import Article
from repro.engine.live import LiveRanker
from repro.engine.updates import BatchProvenance, UpdateBatch
from repro.obs.metrics import (FRESHNESS_BUCKETS, FRESHNESS_HELP,
                               FRESHNESS_METRIC)
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.gateway import ShardedGateway

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.data.schema import ScholarlyDataset
    from repro.obs.handle import Observability
    from repro.obs.report import RunReport


#: Short breaker cooldowns so a harness run recovers in wall-clock
#: milliseconds, not the production default's seconds.
SIM_COOLDOWN = RetryPolicy(max_retries=1_000_000, base_delay=0.01,
                           max_delay=0.05, jitter=0.0)
#: Update failures that trip the harness's breaker.
FAILURE_THRESHOLD = 2
#: Pump passes allowed to drain the backlog after the feed.
MAX_RECOVERY_TICKS = 40


def synthetic_batch(base_ids: List[int], next_id: int, size: int,
                    year: int, rng: random.Random) -> UpdateBatch:
    """``size`` fresh articles (ids from ``next_id``) citing the base.

    Ids are handed out by the caller's monotonic counter, *not* derived
    from the current dataset: a deferred or quarantined batch must not
    cause a later batch to reuse its ids.
    """
    articles = tuple(
        Article(id=next_id + offset,
                title=f"synthetic-arrival-{next_id + offset}",
                year=year, venue_id=None, author_ids=(),
                references=tuple(rng.sample(base_ids,
                                            min(3, len(base_ids)))))
        for offset in range(size))
    return UpdateBatch(articles=articles)


def _percentile(sorted_values: List[float], quantile: float) -> float:
    if not sorted_values:
        return 0.0
    position = int(quantile * (len(sorted_values) - 1))
    return sorted_values[position]


@dataclass
class LoadReport:
    """Everything one ``serve-load`` run measured."""

    num_shards: int = 0
    mode: str = "inline"
    readers: int = 0
    batches: int = 0
    queries_total: int = 0
    queries_failed: int = 0
    queries_partial: int = 0
    reads_shed: int = 0
    wall_s: float = 0.0
    qps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    avg_latency_ms: float = 0.0
    board_epoch: int = -1
    merge_mismatches: int = 0
    shards_missing: int = 0
    degraded_during: List[int] = field(default_factory=list)
    #: one tick per fed batch (``phase="ingest"``) and per post-feed
    #: pump (``phase="recover"``): the update path's health over time.
    timeline: List[Dict[str, object]] = field(default_factory=list)
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    health: Dict[str, object] = field(default_factory=dict)
    freshness_served_count: int = 0
    freshness_served_mean_ms: float = 0.0
    incident_bundles: int = 0
    slo_breaches: List[str] = field(default_factory=list)
    #: "ok" | "degraded" (the run ended with batches still behind, e.g.
    #: a breaker that stayed tripped) | "failed" (the run raised). The
    #: timeline up to that point is always preserved so the artifact is
    #: never silently missing.
    status: str = "ok"
    error: Optional[str] = None

    def render(self) -> str:
        lines = [
            f"# serve-load: {self.num_shards} shard(s) [{self.mode}], "
            f"{self.readers} reader(s), {self.batches} batch(es)",
            "# tick  phase    status       epoch  behind  breaker"
            "    quarantined  shed"]
        for entry in self.timeline:
            lines.append(
                f"{entry['tick']:6d}  {entry['phase']:<7}  "
                f"{entry['status']:<11}  {entry['epoch']:5d}  "
                f"{entry['batches_behind']:6d}  "
                f"{entry['breaker']:<9}  "
                f"{entry['quarantined_total']:11d}  "
                f"{entry['shed_total']:4d}")
        for record in self.quarantined:
            lines.append(f"# quarantined batch {record['index']}: "
                         + "; ".join(record["reasons"]))
        lines += [
            f"queries      {self.queries_total} "
            f"({self.queries_partial} partial, "
            f"{self.queries_failed} failed, {self.reads_shed} shed)",
            f"throughput   {self.qps:.0f} qps over {self.wall_s:.2f}s",
            f"latency      p50 {self.p50_ms:.3f} ms, "
            f"p99 {self.p99_ms:.3f} ms, "
            f"avg {self.avg_latency_ms:.3f} ms",
            f"board epoch  {self.board_epoch}",
            f"parity       {self.merge_mismatches} merged-entry "
            f"mismatch(es) vs the published ranking",
            f"degraded     shards {self.degraded_during or '[]'} during "
            f"faults; {self.shards_missing} still missing after repair",
            f"freshness    {self.freshness_served_count} publish(es), "
            f"mean {self.freshness_served_mean_ms:.3f} ms "
            f"arrival→published",
            f"incidents    {self.incident_bundles} bundle(s)"
            + (f", SLO breaches {self.slo_breaches}"
               if self.slo_breaches else ""),
            f"final health {self.health.get('status')!r}",
        ]
        if self.status != "ok":
            lines.append(f"# run {self.status}"
                         + (f": {self.error}" if self.error else ""))
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        payload = dict(self.__dict__)
        return json.dumps(payload, indent=indent, default=str)

    def to_report(self, name: str = "serve_load_smoke") -> "RunReport":
        """A ``RunReport`` for ``benchmarks/compare.py`` gating.

        Correctness metrics (``merge_mismatches``, ``queries_failed``,
        ``shards_missing``, ``num_shards``) are deterministic — CI
        hard-gates them; the latency metrics are wall-clock noise on
        shared runners and stay soft.
        """
        from repro.obs.report import RunReport

        report = RunReport(name)
        report.record_metric("num_shards", self.num_shards)
        report.record_metric("merge_mismatches", self.merge_mismatches)
        report.record_metric("queries_failed", self.queries_failed)
        report.record_metric("shards_missing", self.shards_missing)
        report.record_metric("board_epoch", self.board_epoch)
        report.record_metric("queries_total", self.queries_total)
        report.record_metric("p50_ms", round(self.p50_ms, 3))
        report.record_metric("p99_ms", round(self.p99_ms, 3))
        report.record_metric("avg_latency_ms",
                             round(self.avg_latency_ms, 3))
        report.record_metric("freshness_served_count",
                             self.freshness_served_count)
        report.record_metric("freshness_served_mean_ms",
                             round(self.freshness_served_mean_ms, 3))
        report.record_metric("incident_bundles", self.incident_bundles)
        report.record_metric("status", self.status)
        return report


def _parity_mismatches(gateway: ShardedGateway, live: LiveRanker,
                       k: int) -> int:
    """Merged-vs-published mismatch count (bit-exact compare).

    The reference is the published ranking's own order
    (:meth:`RankingResult.top`: score descending, ties by ascending
    id), filtered and renumbered here — independent of every shard
    index and of the merge.
    """
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


def run_load(dataset: "ScholarlyDataset", *,
             num_shards: int = 2, mode: str = "inline",
             batches: int = 4, batch_size: int = 16,
             readers: int = 4, queries: int = 50, top: int = 10,
             crash_batch: Optional[int] = None,
             poison_batch: Optional[int] = None,
             crash_shard: Optional[int] = None,
             poison_shard: Optional[int] = None,
             fault_epoch: int = 1,
             auto_respawn: bool = False,
             seed: int = 0,
             obs: Optional["Observability"] = None,
             bundle_dir: Optional[Path] = None) -> LoadReport:
    """Drive concurrent readers against a faultable feed over K shards.

    ``crash_batch`` / ``poison_batch`` arm one injected update-path
    crash / one NaN poisoning at that 0-based batch index; after the
    feed the pipeline is pumped until it drains or
    :data:`MAX_RECOVERY_TICKS` elapse — with batch faults armed this is
    where the breaker's open → half-open → closed recovery shows up in
    the timeline. ``crash_shard`` / ``poison_shard`` arm one injected
    shard fault at board epoch ``fault_epoch`` — with ``auto_respawn``
    off (the default here) the degradation stays *visible* in
    ``health()`` until the post-run :meth:`ShardedGateway.repair`,
    which is exactly what the acceptance check wants to see.

    When no ``obs`` handle is passed the load run builds its own with
    a flight recorder attached: each synthetic batch is stamped with a
    :class:`~repro.engine.updates.BatchProvenance` arrival wall-clock,
    the report carries arrival→published freshness from the shared
    freshness histogram, and one :class:`~repro.obs.slo.SLOMonitor`
    tick while an injected shard fault is still visible captures an
    incident bundle (written under ``bundle_dir`` when given).
    """
    from repro.obs import FlightRecorder, Observability, SLOMonitor

    recorder = getattr(obs, "recorder", None)
    if obs is None:
        recorder = FlightRecorder(bundle_dir=bundle_dir)
        obs = Observability("serve-load", recorder=recorder)
    monitor = SLOMonitor(obs.metrics, recorder=recorder)

    fault_plan = FaultPlan(seed=seed)
    if crash_batch is not None:
        fault_plan.crash_batch(crash_batch)
    if poison_batch is not None:
        fault_plan.poison_batch(poison_batch)
    if crash_shard is not None:
        fault_plan.crash_shard(crash_shard, fault_epoch)
    if poison_shard is not None:
        fault_plan.poison_shard(poison_shard, fault_epoch)

    report = LoadReport(num_shards=num_shards, mode=mode,
                        readers=readers, batches=batches)
    live = LiveRanker(dataset, obs=obs)
    breaker = CircuitBreaker(failure_threshold=FAILURE_THRESHOLD,
                             cooldown=SIM_COOLDOWN, obs=obs)
    gateway = ShardedGateway(
        live, num_shards, mode=mode, breaker=breaker, obs=obs,
        fault_plan=fault_plan, auto_respawn=auto_respawn,
        shard_cooldown=SIM_COOLDOWN, max_inflight=max(64, 4 * readers))
    latencies: List[float] = []
    lock = threading.Lock()
    stop = threading.Event()

    def _reader(worker: int) -> None:
        rng = random.Random(seed * 1000 + worker)
        low, high = dataset.year_range()
        for query in range(queries):
            if stop.is_set():
                break
            started = time.perf_counter()
            try:
                if query % 3 == 2:
                    result = gateway.top_sync(
                        top, year_range=(low, rng.randint(low, high)))
                elif query % 3 == 1:
                    result = gateway.page_sync(offset=top, limit=top)
                else:
                    result = gateway.top_sync(top)
            except OverloadError:
                with lock:
                    report.reads_shed += 1
                continue
            except ServeError:
                with lock:
                    report.queries_failed += 1
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                report.queries_total += 1
                if not result.complete:
                    report.queries_partial += 1

    def _tick(phase: str, status: str) -> None:
        health = gateway.service.health()
        report.timeline.append({
            "tick": len(report.timeline), "phase": phase,
            "status": status, "epoch": health["epoch"],
            "batches_behind": health["batches_behind"],
            "breaker": health["breaker"],
            "quarantined_total": health["quarantined_total"],
            "shed_total": report.reads_shed,
        })

    threads = [threading.Thread(target=_reader, args=(worker,),
                                daemon=True)
               for worker in range(readers)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()

    try:
        rng = random.Random(seed)
        base_ids = sorted(dataset.articles)
        next_id = base_ids[-1] + 1
        _, year = dataset.year_range()
        for _ in range(batches):
            batch = synthetic_batch(base_ids, next_id, batch_size,
                                    year, rng)
            # Stamp the arrival wall-clock so the publish path's
            # freshness histogram sees arrival→published latency.
            batch = replace(batch, provenance=BatchProvenance(
                arrivals=(time.time(),) * len(batch.articles)))
            next_id += batch_size
            _tick("ingest", gateway.ingest(batch).status)
        for _ in range(MAX_RECOVERY_TICKS):
            if not gateway.service.batches_behind():
                break
            time.sleep(breaker.cooldown_remaining)
            published, quarantined = gateway.pump()
            _tick("recover", "published" if published else (
                "quarantined" if quarantined else "waiting"))
        if gateway.service.batches_behind():
            # Still behind (e.g. the breaker stayed tripped past the
            # recovery budget) — degraded, not lost.
            report.status = "degraded"
    except Exception as exc:  # noqa: BLE001 - artifact must survive
        report.status = "failed"
        report.error = f"{type(exc).__name__}: {exc}"
    finally:
        if report.status == "failed":
            stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
        stop.set()
        report.wall_s = time.perf_counter() - started

    try:
        # Degradation while the fault is live, *before* repair. An SLO
        # tick here sees the degraded-shards gauge while it is still
        # raised, so an injected fault breaches gateway-degradation
        # and freezes an incident bundle.
        during = gateway.health()
        report.degraded_during = list(during["degraded_shards"])
        if recorder is not None:
            recorder.record_health(during)
        for status in monitor.tick():
            if status.breaching:
                report.slo_breaches.append(status.name)
        gateway.repair()
        report.board_epoch = gateway.board_epoch
        report.health = gateway.health()
        report.shards_missing = len(report.health["degraded_shards"])
        report.quarantined = [record.report() for record
                              in gateway.service.quarantined]
        report.merge_mismatches = _parity_mismatches(gateway, live, top)
        if latencies:
            latencies.sort()
            report.qps = len(latencies) / max(report.wall_s, 1e-9)
            report.p50_ms = _percentile(latencies, 0.50) * 1e3
            report.p99_ms = _percentile(latencies, 0.99) * 1e3
            report.avg_latency_ms = \
                sum(latencies) / len(latencies) * 1e3
        fresh = obs.metrics.histogram(
            FRESHNESS_METRIC, FRESHNESS_HELP,
            buckets=FRESHNESS_BUCKETS, labels=("stage",))
        report.freshness_served_count = fresh.count(stage="publish")
        if report.freshness_served_count:
            report.freshness_served_mean_ms = round(
                fresh.sum(stage="publish")
                / report.freshness_served_count * 1000.0, 3)
        if recorder is not None:
            report.incident_bundles = len(recorder.captures)
    except Exception as exc:  # noqa: BLE001 - artifact must survive
        if report.status != "failed":
            report.status = "failed"
            report.error = f"{type(exc).__name__}: {exc}"
    finally:
        gateway.close()
    return report
