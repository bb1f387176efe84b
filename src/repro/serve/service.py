"""`RankingService`: the single-updater publish path of the serving tier.

The service owns everything between an arrival batch and a published
ranking — and nothing else. Reads are not its business: every reader
goes through :class:`~repro.serve.gateway.ShardedGateway`, which
composes one service and serves from per-shard indexes (the
single-process tier is ``ShardedGateway(live, 1, mode="inline")``).

One updater drives :class:`repro.engine.live.LiveRanker` batches. Every
candidate ranking must pass the publish guardrails
(:func:`~repro.serve.guardrails.validate_candidate`) before the swap of
the immutable :class:`~repro.serve.snapshot.Snapshot`; a vetoed or
crashing batch rolls the engine back to the last good state and is
quarantined (:class:`repro.data.quarantine.QuarantinedBatch`), while the
previous snapshot stays published — stale but correct. A
:class:`~repro.serve.breaker.CircuitBreaker` stops a persistently
failing update pipeline from being hammered; deferred batches are
tracked as *batches behind* until the breaker's half-open probe
recovers. :meth:`RankingService.health` reports the rung: **fresh**
(updates publishing) or **stale** (update path failing/open, last good
snapshot published).

The update path is an exception firewall by design: it catches *all*
exceptions from ``LiveRanker.apply`` (including injected test crashes)
— a poisoned batch must never take the published snapshot down with it.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, ServeError
from repro.data.quarantine import QuarantinedBatch
from repro.serve.breaker import CircuitBreaker
from repro.serve.guardrails import GuardrailPolicy, validate_candidate
from repro.serve.snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.model import RankingResult
    from repro.engine.live import LiveRanker
    from repro.engine.updates import UpdateBatch
    from repro.obs.handle import Observability
    from repro.resilience.faults import FaultPlan


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one :meth:`RankingService.ingest` call."""

    #: "published" | "deferred" | "quarantined"
    status: str
    epoch: int
    batches_behind: int
    published: int
    quarantined: int
    breaker_state: str
    reasons: Tuple[str, ...] = ()


@dataclass
class _PendingBatch:
    index: int
    batch: "UpdateBatch"
    attempts: int = 0
    reasons: List[str] = field(default_factory=list)


class _EngineGuard:
    """Rollback token for one update attempt.

    ``LiveRanker.apply`` replaces (never mutates) the engine's state
    arrays, so capturing the references and restoring them on failure
    is an exact, O(1) rollback — even when the apply died halfway
    through and left the attributes mutually inconsistent.
    """

    _ENGINE_ATTRS = ("dataset", "graph", "columns", "years",
                     "_edge_weights", "scores", "_structure_cache")
    #: ``_sealed`` / ``_unsaved``: a vetoed batch must leave the corpus
    #: log's next append exactly as a batch that never arrived.
    _LIVE_ATTRS = ("_result", "_batches_applied", "_sealed", "_unsaved")

    def __init__(self, live: "LiveRanker") -> None:
        self._live = live
        engine = live._engine
        self._engine_state = {name: getattr(engine, name)
                              for name in self._ENGINE_ATTRS}
        self._live_state = {name: getattr(live, name)
                            for name in self._LIVE_ATTRS}

    def restore(self) -> None:
        for name, value in self._engine_state.items():
            setattr(self._live._engine, name, value)
        for name, value in self._live_state.items():
            setattr(self._live, name, value)


class RankingService:
    """Owns the engine, the guardrailed snapshot swap, and the breaker.

    Args:
        live: the bootstrapped :class:`LiveRanker` to update.
        guardrails: publish-time validation policy.
        breaker: update-path circuit breaker.
        obs: optional observability handle (``serve.publish`` /
            ``serve.breaker`` spans and ``repro_serve_*`` metrics).
        fault_plan: deterministic chaos hook — consult
            :class:`repro.resilience.FaultPlan` batch faults at the
            exact points a real feed fails.
        max_batch_attempts: apply attempts before a crash-looping batch
            is quarantined instead of retried.
    """

    def __init__(self, live: "LiveRanker", *,
                 guardrails: Optional[GuardrailPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 obs: Optional["Observability"] = None,
                 fault_plan: Optional["FaultPlan"] = None,
                 max_batch_attempts: int = 3) -> None:
        if max_batch_attempts <= 0:
            raise ConfigError(
                f"max_batch_attempts must be positive, "
                f"got {max_batch_attempts}")
        self._live = live
        self._guardrails = guardrails if guardrails is not None \
            else GuardrailPolicy()
        self._breaker = breaker if breaker is not None \
            else CircuitBreaker(obs=obs)
        self._obs = obs
        self._fault_plan = fault_plan
        self._max_batch_attempts = max_batch_attempts

        self._pending: Deque[_PendingBatch] = deque()
        self._next_batch_index = 0
        self._quarantined: List[QuarantinedBatch] = []
        self._publishes_total = 0
        self._update_failures_total = 0

        bootstrap = live.result
        violations = validate_candidate(self._guardrails, live.dataset,
                                        bootstrap, previous=None)
        if violations:
            raise ServeError(
                "bootstrap ranking failed publish guardrails: "
                + "; ".join(violations))
        self._snapshot = Snapshot(
            ranking=bootstrap, epoch=0,
            batches_applied=live.batches_applied,
            published_at=time.time())
        self._set_stale_gauge()

    # ------------------------------------------------------------------
    # update path (single updater)

    def ingest(self, batch: "UpdateBatch") -> IngestReport:
        """Accept one arrival batch and pump the update pipeline.

        The batch is appended to the pending queue, then as many
        pending batches as the breaker allows are applied, validated,
        and published. Returns what happened to *this* call's pipeline
        pass; the batch itself may have been published, deferred
        (breaker open), or quarantined.
        """
        entry = _PendingBatch(index=self._next_batch_index, batch=batch)
        self._next_batch_index += 1
        self._pending.append(entry)
        self._set_stale_gauge()
        published, quarantined = self.pump()
        # The queue drains head-first and this batch went in last, so a
        # non-empty queue still contains it.
        status = "deferred" if self._pending else "published"
        reasons: Tuple[str, ...] = ()
        for record in self._quarantined[-quarantined:] if quarantined \
                else ():
            if record.index == entry.index:
                status = "quarantined"
                reasons = record.reasons
        return IngestReport(
            status=status, epoch=self._snapshot.epoch,
            batches_behind=len(self._pending), published=published,
            quarantined=quarantined,
            breaker_state=self._breaker.state, reasons=reasons)

    def pump(self) -> Tuple[int, int]:
        """Drain pending batches while the breaker allows.

        Returns ``(published, quarantined)`` counts for this pass.
        Call it again after a cooldown to let the half-open probe
        through (``ingest`` pumps automatically).
        """
        published = 0
        quarantined = 0
        while self._pending and self._breaker.allow():
            entry = self._pending[0]
            outcome = self._attempt(entry)
            if outcome == "published":
                self._pending.popleft()
                published += 1
            elif outcome == "quarantined":
                self._pending.popleft()
                quarantined += 1
            # "failed": the entry stays queued; the loop exits when the
            # breaker trips, otherwise the next iteration retries.
        self._set_stale_gauge()
        return published, quarantined

    def _attempt(self, entry: _PendingBatch) -> str:
        """One apply+validate+publish attempt for the head batch."""
        live = self._live
        guard = _EngineGuard(live)
        attempt = entry.attempts
        entry.attempts += 1
        span = self._obs.span("serve.publish", batch=entry.index,
                              attempt=attempt) \
            if self._obs is not None else nullcontext()
        with span:
            try:
                fault = self._fault_plan.fire(
                    "batch", (entry.index,), attempt) \
                    if self._fault_plan is not None else None
                result, _ = live.apply(entry.batch)
                if fault is not None:  # "nan": poison the candidate
                    poisoned = np.asarray(result.scores,
                                          dtype=np.float64).copy()
                    poisoned[:: max(1, len(poisoned) // 7)] = np.nan
                    result = replace(result, scores=poisoned)
            except Exception as exc:  # noqa: BLE001 - exception firewall
                guard.restore()
                self._record_update_failure()
                entry.reasons.append(
                    f"update path raised {type(exc).__name__}: {exc}")
                self._breaker.record_failure()
                if entry.attempts >= self._max_batch_attempts:
                    self._quarantine(entry)
                    return "quarantined"
                return "failed"

            violations = validate_candidate(
                self._guardrails, live.dataset, result,
                previous=self._snapshot)
            if violations:
                guard.restore()
                self._record_update_failure()
                entry.reasons.extend(violations)
                self._breaker.record_failure()
                # Bad data is deterministic: retrying cannot fix it.
                self._quarantine(entry)
                return "quarantined"

            self._publish(result)
            self._breaker.record_success()
            self._observe_publish_freshness(entry.batch)
            return "published"

    def _publish(self, result: "RankingResult") -> None:
        # One reference store: the gateway sees either the old or the
        # new complete snapshot.
        self._snapshot = Snapshot(
            ranking=result, epoch=self._snapshot.epoch + 1,
            batches_applied=self._live.batches_applied,
            published_at=time.time())
        self._publishes_total += 1
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_serve_publishes_total",
                "Snapshots published (guardrails passed).").inc()

    def _observe_publish_freshness(self, batch: "UpdateBatch") -> None:
        """Arrival→publish wall-clock seconds for a provenance-stamped
        batch (``stage="publish"``): the records are now in the
        published snapshot."""
        if self._obs is None:
            return
        provenance = getattr(batch, "provenance", None)
        if provenance is None or not provenance.arrivals:
            return
        from repro.obs.metrics import (FRESHNESS_BUCKETS, FRESHNESS_HELP,
                                       FRESHNESS_METRIC)

        freshness = self._obs.metrics.histogram(
            FRESHNESS_METRIC, FRESHNESS_HELP,
            buckets=FRESHNESS_BUCKETS, labels=("stage",))
        now = time.time()
        for arrived_wall in provenance.arrivals:
            if arrived_wall > 0.0:
                freshness.observe(max(0.0, now - arrived_wall),
                                  stage="publish")

    def _quarantine(self, entry: _PendingBatch) -> None:
        record = QuarantinedBatch(
            index=entry.index, reasons=tuple(entry.reasons),
            attempts=entry.attempts,
            num_articles=entry.batch.num_articles,
            num_citations=entry.batch.num_citations,
            batch=entry.batch)
        self._quarantined.append(record)
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_serve_quarantined_total",
                "Update batches quarantined by the publish "
                "guardrails or crash-loop cap.").inc()
            self._obs.event("serve.quarantine", batch=entry.index,
                            reasons="; ".join(entry.reasons))

    def _record_update_failure(self) -> None:
        self._update_failures_total += 1
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_serve_update_failures_total",
                "Failed update attempts (crash or guardrail veto).").inc()

    def _set_stale_gauge(self) -> None:
        if self._obs is not None:
            self._obs.metrics.gauge(
                "repro_serve_stale_batches",
                "Accepted batches not yet reflected in the published "
                "snapshot.").set(len(self._pending))

    # ------------------------------------------------------------------
    # health

    def snapshot(self) -> Snapshot:
        """The currently published snapshot."""
        return self._snapshot

    @property
    def quarantined(self) -> List[QuarantinedBatch]:
        """Quarantined batches, oldest first (triage queue)."""
        return list(self._quarantined)

    def batches_behind(self) -> int:
        """Accepted batches the published snapshot does not reflect."""
        return len(self._pending)

    def health(self) -> Dict[str, object]:
        """Full health report: the degradation ladder made observable."""
        snap = self._snapshot
        breaker_state = self._breaker.state
        behind = len(self._pending)
        if breaker_state == "closed" and behind == 0:
            status = "fresh"
        else:
            status = "stale"
        return {
            "status": status,
            "epoch": snap.epoch,
            "batches_applied": snap.batches_applied,
            "batches_behind": behind,
            "published_at": snap.published_at,
            "breaker": breaker_state,
            "breaker_opened_total": self._breaker.opened_total,
            "breaker_cooldown_remaining":
                self._breaker.cooldown_remaining,
            "publishes_total": self._publishes_total,
            "update_failures_total": self._update_failures_total,
            "quarantined_total": len(self._quarantined),
        }

    def readiness(self) -> Dict[str, object]:
        """Is a validated snapshot published, and at which rung?

        ``ready`` is true whenever a validated snapshot exists — a
        stale snapshot still serves (that is the point). ``degraded``
        flags the stale rung so orchestration can alert without
        draining traffic.
        """
        behind = len(self._pending)
        breaker_state = self._breaker.state
        degraded = behind > 0 or breaker_state != "closed"
        return {
            "ready": True,
            "degraded": degraded,
            "epoch": self._snapshot.epoch,
            "batches_behind": behind,
            "breaker": breaker_state,
        }

