"""The serving tier: K shards behind one scatter-gather front door.

:class:`ShardedGateway` is the one read tier and the one publish path.
A single process is ``ShardedGateway(live, 1, mode="inline")``; more
shards and ``mode="process"`` scale the same object out.

* **Update path (single updater)** — a composed
  :class:`~repro.serve.service.RankingService` owns the live engine,
  the publish guardrails, quarantine, and the update breaker. Whenever
  it publishes a new snapshot, the gateway writes the full
  ``(ids, scores)`` state to the shared-memory
  :class:`~repro.engine.shm.ScoreBoardWriter` (append-only ids, one
  epoch bump) and scatters a ``refresh`` command to every shard. Each
  shard then performs its *own* guardrailed swap from the board and
  builds the only serving index there is — a poisoned or crashed shard
  degrades alone.
* **Read path (scatter-gather)** — ``top_sync``/``page_sync``/
  ``rank_of`` call every shard in turn and merge with
  :func:`~repro.serve.merge.merge_top_entries`, which reproduces the
  order of one :class:`~repro.query.RankIndex` over the whole corpus
  bit-identically. A shard that cannot answer (dead worker, timeout)
  is skipped and reported as degraded in the result and in
  :meth:`health` — the query still answers from the remaining shards;
  a shard gate shedding a read surfaces as a typed
  :class:`~repro.errors.OverloadError`.

The degradation ladder: **fresh** → **stale** (update path failing or
breaker open, last good snapshot serving; ``health()["service"]``) /
**lagging** (one shard's refresh vetoed or deferred, its last good
shard snapshot serving) → **tripped** (shard breaker open) → **down**
(process dead / pipe broken) / **shed** (gate full). :meth:`repair`
respawns dead shards and re-refreshes lagging ones; :meth:`health`
reports every rung without ever taking a shard's lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Tuple, Union)

import numpy as np

from repro.errors import (ConfigError, OverloadError, ServeError,
                          ShardUnavailableError)
from repro.core.columns import positions_in
from repro.data.schema import Article
from repro.engine.shm import ScoreBoardWriter
from repro.obs.handle import maybe_span
from repro.query import RankEntry
from repro.resilience.policy import Deadline, RetryPolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.guardrails import GuardrailPolicy
from repro.serve.merge import merge_page_entries, merge_top_entries
from repro.serve.service import IngestReport, RankingService
from repro.serve.shard import (InlineShardHandle, ProcessShardHandle,
                               ShardConfig, ShardSpec, shard_of)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.live import LiveRanker
    from repro.engine.updates import UpdateBatch
    from repro.obs.handle import Observability
    from repro.resilience.faults import FaultPlan

ShardHandle = Union[InlineShardHandle, ProcessShardHandle]


@dataclass(frozen=True)
class GatewayReadResult:
    """Merged entries plus which shards actually answered."""

    entries: List[RankEntry]
    #: freshness floor: the lowest board epoch among answering shards.
    epoch: int
    shards_total: int
    shards_answered: int
    degraded: Tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        return self.shards_answered == self.shards_total


class ShardedGateway:
    """K shards behind one scatter-gather front door.

    Args:
        live: bootstrapped :class:`LiveRanker` (the global update path).
        num_shards: partitions of the article id space
            (``article_id % num_shards``).
        mode: ``"process"`` (worker process per shard, scores via shm)
            or ``"inline"`` (same-process shards; with ``num_shards=1``
            this is the single-process tier).
        guardrails: shared policy for the service publish *and* each
            shard's slice validation.
        breaker: the update path's circuit breaker (default: a fresh
            :class:`CircuitBreaker`).
        obs: observability handle — per-shard
            ``repro_gateway_*`` metrics and a ``gateway.publish`` span
            per board publish (single-updater path only).
        fault_plan: deterministic chaos — batch faults hit the service,
            shard faults hit shard refreshes.
        board_capacity: score board slots (default: 4x the bootstrap
            corpus, headroom for arrivals).
        call_timeout: per-shard pipe call budget in seconds.
        auto_respawn: respawn a dead shard during refresh (reads never
            respawn — they degrade; :meth:`repair` does the rest).
        trace_reads: open a ``gateway.read`` span per read. The tracer
            is a single-threaded context stack, so enable this only
            for single-threaded use; the publish/refresh path is
            always traced (it has exactly one updater).
    """

    def __init__(self, live: "LiveRanker", num_shards: int = 2, *,
                 mode: str = "process",
                 guardrails: Optional[GuardrailPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 obs: Optional["Observability"] = None,
                 fault_plan: Optional["FaultPlan"] = None,
                 board_capacity: Optional[int] = None,
                 shard_failure_threshold: int = 3,
                 shard_cooldown: Optional[RetryPolicy] = None,
                 max_inflight: int = 64, max_waiting: int = 0,
                 call_timeout: float = 10.0,
                 auto_respawn: bool = True,
                 max_refresh_attempts: int = 3,
                 max_batch_attempts: int = 3,
                 trace_reads: bool = False) -> None:
        if num_shards <= 0:
            raise ConfigError(
                f"num_shards must be positive, got {num_shards}")
        if mode not in ("process", "inline"):
            raise ConfigError(
                f"mode must be 'process' or 'inline', got {mode!r}")
        if max_refresh_attempts <= 0:
            raise ConfigError("max_refresh_attempts must be positive")
        self.num_shards = num_shards
        self.mode = mode
        self._obs = obs
        self._call_timeout = call_timeout
        self._auto_respawn = auto_respawn
        self._max_refresh_attempts = max_refresh_attempts
        self._trace_reads = trace_reads
        self._stats_lock = threading.Lock()
        self._closed = False

        self._service = RankingService(
            live, guardrails=guardrails, breaker=breaker, obs=obs,
            fault_plan=fault_plan, max_batch_attempts=max_batch_attempts)
        self._shard_config = ShardConfig(
            guardrails=self._service._guardrails,
            max_inflight=max_inflight, max_waiting=max_waiting,
            failure_threshold=shard_failure_threshold,
            cooldown=shard_cooldown, fault_plan=fault_plan)

        articles = live.dataset.articles
        capacity = board_capacity if board_capacity is not None \
            else max(4 * len(articles), 4096)
        self._writer = ScoreBoardWriter(capacity)
        self._board_epoch = -1
        #: article ids in board slot order (append-only).
        self._board_ids = np.zeros(0, dtype=np.int64)
        self._last_published_snapshot = None

        # Cumulative per-shard ownership (the source of truth for
        # respawns) and the arrivals each shard has yet to absorb.
        self._owned: List[Dict[int, Article]] = [
            {} for _ in range(num_shards)]
        self._unsynced: List[List[Article]] = [
            [] for _ in range(num_shards)]
        #: (shard, epoch) -> attempts, for the current board epoch.
        self._refresh_attempts: Dict[Tuple[int, int], int] = {}
        self._shard_status: List[Dict[str, object]] = [
            {"shard": shard, "status": "fresh"}
            for shard in range(num_shards)]
        self._respawns_total = 0

        self._handles: List[ShardHandle] = []
        try:
            self._handles = [self._spawn(shard)
                             for shard in range(num_shards)]
            self._maybe_publish()
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # shard lifecycle

    def _spawn(self, shard: int) -> ShardHandle:
        spec = ShardSpec(shard=shard, num_shards=self.num_shards)
        articles = list(self._owned[shard].values())
        self._unsynced[shard] = []
        if self.mode == "inline":
            return InlineShardHandle(spec, self._writer.layout, articles,
                                     self._shard_config)
        return ProcessShardHandle(spec, self._writer.layout, articles,
                                  self._shard_config,
                                  timeout=self._call_timeout)

    def _respawn(self, shard: int) -> None:
        try:
            self._handles[shard].stop()
        except Exception:  # noqa: BLE001 - it is already sick
            pass
        self._handles[shard] = self._spawn(shard)
        self._respawns_total += 1
        self._count_shard(shard, "respawn")

    # ------------------------------------------------------------------
    # update path (single updater)

    def ingest(self, batch: "UpdateBatch") -> IngestReport:
        """Feed one arrival batch through the composed service, then
        propagate any new snapshot to the board and every shard."""
        report = self._service.ingest(batch)
        self._maybe_publish()
        return report

    def pump(self) -> Tuple[int, int]:
        """Drain deferred service batches (breaker recovery), then
        propagate. Returns the service's ``(published, quarantined)``."""
        outcome = self._service.pump()
        self._maybe_publish()
        return outcome

    def _maybe_publish(self) -> None:
        """Board publish + shard scatter iff the snapshot moved."""
        snapshot = self._service.snapshot()
        if snapshot is self._last_published_snapshot:
            return
        with maybe_span(self._obs, "gateway.publish",
                        service_epoch=snapshot.epoch,
                        board_epoch=self._board_epoch + 1):
            self._partition_new_articles(self._publish_board(snapshot))
            for shard in range(self.num_shards):
                self._shard_status[shard] = self._refresh_shard(shard)

    def _publish_board(self, snapshot) -> np.ndarray:
        """Write the snapshot's scores in board slot order; returns the
        ids that took new slots."""
        node_ids, scores = snapshot.ranking.node_ids, snapshot.ranking.scores
        slots = positions_in(node_ids, self._board_ids)
        if (slots < 0).any():
            # Articles are never removed; a shrink means the snapshot
            # and the board disagree about the corpus.
            raise ServeError(
                f"published corpus shrank: board has "
                f"{len(self._board_ids)} ids, snapshot has "
                f"{len(node_ids)}")
        slots = np.concatenate([  # board order, then the arrivals
            slots, np.delete(np.arange(len(node_ids)), slots)])
        epoch = self._board_epoch + 1
        try:
            self._writer.publish(node_ids[slots], scores[slots], epoch)
        except ValueError as exc:
            raise ServeError(f"score board publish failed: {exc}") \
                from exc
        self._board_epoch = epoch
        self._refresh_attempts.clear()  # they counted the old epoch
        new_ids = node_ids[slots[len(self._board_ids):]]
        self._board_ids = node_ids[slots]
        self._last_published_snapshot = snapshot
        return new_ids

    def _partition_new_articles(self, new_ids: np.ndarray) -> None:
        articles = self._service._live.dataset.articles
        for article_id in new_ids.tolist():
            shard = shard_of(article_id, self.num_shards)
            self._owned[shard][article_id] = articles[article_id]
            self._unsynced[shard].append(articles[article_id])

    def _refresh_shard(self, shard: int) -> Dict[str, object]:
        """Delta-sync metadata and refresh one shard to the board
        epoch, respawning a dead worker up to the attempt budget.

        Runs only on the single updater thread, so the ``gateway.
        refresh`` span (nested under ``gateway.publish`` during a
        scatter, a root during :meth:`repair`) is safe to open."""
        epoch = self._board_epoch
        with maybe_span(self._obs, "gateway.refresh", shard=shard,
                        epoch=epoch) as span:
            report = self._refresh_shard_attempts(shard, epoch)
            if span is not None and hasattr(span, "attributes"):
                span.attributes["status"] = report.get("status")
            return report

    def _refresh_shard_attempts(self, shard: int,
                                epoch: int) -> Dict[str, object]:
        key = (shard, epoch)
        while True:
            attempt = self._refresh_attempts.get(key, 0)
            if attempt >= self._max_refresh_attempts:
                return {"shard": shard, "status": "down",
                        "epoch": -1,
                        "error": "refresh attempts exhausted"}
            self._refresh_attempts[key] = attempt + 1
            handle = self._handles[shard]
            try:
                if self._unsynced[shard]:
                    handle.call("absorb", articles=self._unsynced[shard])
                    self._unsynced[shard] = []
                report = handle.call("refresh", epoch=epoch,
                                     attempt=attempt)
            except ShardUnavailableError as exc:
                self._count_shard(shard, "unavailable")
                if self._auto_respawn:
                    self._respawn(shard)
                    continue
                return {"shard": shard, "status": "down", "epoch": -1,
                        "error": str(exc)}
            self._count_shard(shard, str(report.get("status")))
            return report

    def repair(self) -> List[Dict[str, object]]:
        """Respawn dead shards and re-refresh non-fresh ones.

        The per-(shard, epoch) attempt counter keeps advancing across
        repairs, so a scripted fault with ``times=t`` stops firing once
        its budget is spent — deterministic recovery.
        """
        for shard in range(self.num_shards):
            status = self._shard_status[shard].get("status")
            if not self._handles[shard].alive:
                self._respawn(shard)
                status = "down"
            if status != "refreshed":
                self._shard_status[shard] = self._refresh_shard(shard)
        self._set_degraded_gauge()
        return list(self._shard_status)

    # ------------------------------------------------------------------
    # read path (scatter-gather)

    def _scatter(self, method: str, **kwargs: object
                 ) -> Tuple[List[Tuple[int, object]], List[int]]:
        """Call every shard serially; returns (answers, degraded)."""
        answers: List[Tuple[int, object]] = []
        degraded: List[int] = []
        for shard, handle in enumerate(self._handles):
            try:
                answers.append((shard, handle.call(method, **kwargs)))
            except ShardUnavailableError:
                self._count_shard(shard, "unavailable")
                degraded.append(shard)
        return answers, degraded

    def _merged_top(self, k: int,
                    merge: Callable[[List[List[RankEntry]]],
                                    List[RankEntry]],
                    **kwargs: object) -> GatewayReadResult:
        """Each shard's best ``k``, merged; degraded shards skipped."""
        answers, degraded = self._scatter("top", k=k, **kwargs)
        if not answers:
            self._count_query("failed")
            raise ServeError(
                f"no shard answered (all {self.num_shards} degraded)")
        epochs = [epoch for _, (epoch, _) in answers]
        entries = merge([shard_entries
                         for _, (_, shard_entries) in answers])
        self._count_query("merged" if not degraded else "partial")
        return GatewayReadResult(
            entries=entries, epoch=min(epochs),
            shards_total=self.num_shards,
            shards_answered=len(answers),
            degraded=tuple(degraded))

    def _read(self, op: str, fn: Callable[[], object]) -> object:
        """One read with the accounting the SLOs watch: latency of
        admitted reads, a shed count where a shard gate's
        :class:`OverloadError` surfaces, and (``trace_reads``) a
        ``gateway.read`` span."""
        if self._obs is None:
            return fn()
        started = time.perf_counter()
        shed = False
        try:
            with maybe_span(self._obs if self._trace_reads else None,
                            "gateway.read", op=op,
                            board_epoch=self._board_epoch):
                return fn()
        except OverloadError:
            shed = True
            raise
        finally:
            if shed:
                self._count_query("shed")
            else:
                elapsed = time.perf_counter() - started
                with self._stats_lock:
                    self._obs.metrics.histogram(
                        "repro_gateway_read_latency_seconds",
                        "Wall-clock duration of admitted scatter-"
                        "gather reads.").observe(elapsed)

    def top_sync(self, k: int = 10, venue_id: Optional[int] = None,
                 author_id: Optional[int] = None,
                 year_range: Optional[Tuple[int, int]] = None,
                 deadline: Optional[Deadline] = None
                 ) -> GatewayReadResult:
        """Merged best ``k``; degraded shards are skipped, not fatal."""
        return self._read("top", lambda: self._merged_top(
            k, lambda entries: merge_top_entries(entries, k),
            venue_id=venue_id, author_id=author_id,
            year_range=year_range, deadline=deadline))

    def page_sync(self, offset: int, limit: int,
                  deadline: Optional[Deadline] = None
                  ) -> GatewayReadResult:
        """Merged global slice ``[offset, offset+limit)``."""
        return self._read("page", lambda: self._merged_top(
            offset + limit,
            lambda entries: merge_page_entries(entries, offset, limit),
            deadline=deadline))

    def rank_of(self, article_id: int,
                deadline: Optional[Deadline] = None) -> int:
        """1-based global rank — needs *every* shard, so a degraded
        shard raises :class:`ShardUnavailableError` (an exact rank over
        a partial corpus would be a lie)."""
        def _run() -> int:
            owner = shard_of(article_id, self.num_shards)
            _, score = self._handles[owner].call(
                "score_of", article_id=article_id, deadline=deadline)
            total = 1
            for handle in self._handles:
                _, ahead = handle.call("count_above", score=score,
                                       article_id=article_id,
                                       deadline=deadline)
                total += ahead
            self._count_query("merged")
            return total

        return self._read("rank_of", _run)

    # ------------------------------------------------------------------
    # health

    def health(self) -> Dict[str, object]:
        """Tier health: the composed service plus every shard's rung."""
        shards: List[Dict[str, object]] = []
        for shard, handle in enumerate(self._handles):
            if not handle.alive:
                shards.append({"shard": shard, "status": "down",
                               "epoch": -1})
                continue
            try:
                shards.append(handle.call("health"))
            except Exception:  # noqa: BLE001 - a sick shard is "down"
                shards.append({"shard": shard, "status": "down",
                               "epoch": -1})
        degraded = [int(report["shard"]) for report in shards
                    if report.get("status") != "fresh"]
        service_health = self._service.health()
        if len(degraded) == self.num_shards:
            status = "down"
        elif degraded or service_health["status"] != "fresh":
            status = "degraded"
        else:
            status = "fresh"
        self._set_degraded_gauge(len(degraded))
        return {
            "status": status,
            "mode": self.mode,
            "num_shards": self.num_shards,
            "board_epoch": self._board_epoch,
            "degraded_shards": degraded,
            "respawns_total": self._respawns_total,
            "shards": shards,
            "service": service_health,
        }

    def readiness(self) -> Dict[str, object]:
        """Can the tier take traffic? Ready while any shard answers."""
        health = self.health()
        return {
            "ready": health["status"] != "down",
            "degraded": health["status"] != "fresh",
            "board_epoch": self._board_epoch,
            "degraded_shards": health["degraded_shards"],
        }

    # ------------------------------------------------------------------
    # observability (the metrics registry is caller-locked)

    def _count_shard(self, shard: int, outcome: str) -> None:
        if self._obs is None:
            return
        with self._stats_lock:
            self._obs.metrics.counter(
                "repro_gateway_shard_events_total",
                "Per-shard refresh/degradation events by outcome.",
                labels=("shard", "outcome")).inc(shard=str(shard),
                                                 outcome=outcome)

    def _count_query(self, outcome: str) -> None:
        if self._obs is None:
            return
        with self._stats_lock:
            self._obs.metrics.counter(
                "repro_gateway_queries_total",
                "Scatter-gather queries by outcome "
                "(merged/partial/failed/shed).",
                labels=("outcome",)).inc(outcome=outcome)
            if outcome == "shed":
                self._obs.metrics.counter(
                    "repro_gateway_shed_total",
                    "Reads shed by a shard's admission gate.").inc()

    def _set_degraded_gauge(self, value: Optional[int] = None) -> None:
        if self._obs is None:
            return
        if value is None:
            value = sum(1 for report in self._shard_status
                        if report.get("status") not in ("refreshed",
                                                        "fresh"))
        with self._stats_lock:
            self._obs.metrics.gauge(
                "repro_gateway_degraded_shards",
                "Shards not serving the current board epoch.").set(value)

    # ------------------------------------------------------------------

    @property
    def service(self) -> RankingService:
        """The composed single-updater service (parity/monitoring)."""
        return self._service

    @property
    def board_epoch(self) -> int:
        return self._board_epoch

    def close(self) -> None:
        """Stop every shard and tear the board down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.stop()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._writer.close()

    def __enter__(self) -> "ShardedGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
