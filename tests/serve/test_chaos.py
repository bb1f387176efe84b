"""Deterministic chaos: poison + crash through a full breaker cycle.

The acceptance scenario for the serving layer: batch N is NaN-poisoned,
batch N+1 crashes the update path. The service must never publish an
invalid snapshot, the snapshot published during the incident must be
the last good epoch bit-identical to the fault-free run, the breaker
must open and then recover through its half-open probe, and the
poisoned batch must land in quarantine with a usable report.
"""

import random
from itertools import islice

import numpy as np
import pytest

from repro.drill import arrival_batches
from repro.engine.live import LiveRanker
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import CircuitBreaker, RankingService

pytestmark = [pytest.mark.serve, pytest.mark.faults]

COOLDOWN = RetryPolicy(max_retries=1_000, base_delay=0.1, max_delay=30.0,
                       jitter=0.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def stream(small_dataset):
    # Independent arrival batches: every article cites only the base
    # dataset, so quarantining one batch can never make a later batch
    # reference articles/authors the service never ingested (yearly
    # cohorts DO cross-reference, which would re-trip the breaker
    # during recovery and muddy the scenario under test).
    return small_dataset, list(islice(
        arrival_batches(small_dataset, 25, random.Random(7)), 4))


@pytest.fixture(scope="module")
def reference_epochs(stream):
    """Fault-free per-epoch scores: epoch N = batches 0..N-1 applied."""
    base, batches = stream
    live = LiveRanker(base)
    epochs = {0: live.result.scores.copy()}
    for number, batch in enumerate(batches[:4], start=1):
        result, _ = live.apply(batch)
        epochs[number] = result.scores.copy()
    return epochs


def test_poison_then_crash_full_incident(stream, reference_epochs):
    base, batches = stream
    clock = FakeClock()
    plan = FaultPlan.of("batch:nan:1", "batch:crash:2")
    breaker = CircuitBreaker(failure_threshold=2, cooldown=COOLDOWN,
                             clock=clock)
    service = RankingService(LiveRanker(base), breaker=breaker,
                             fault_plan=plan)

    # Batch 0 publishes normally.
    assert service.ingest(batches[0]).status == "published"
    assert np.array_equal(service.snapshot().ranking.scores,
                          reference_epochs[1])

    # Batch 1 is poisoned: guardrails veto it, it is quarantined, the
    # epoch-1 snapshot keeps serving (failure 1 of 2 — breaker closed).
    report = service.ingest(batches[1])
    assert report.status == "quarantined"
    assert service.snapshot().epoch == 1
    assert breaker.state == "closed"

    # Batch 2 crashes the update path: failure 2 trips the breaker.
    report = service.ingest(batches[2])
    assert report.status == "deferred"
    assert breaker.state == "open"
    assert breaker.opened_total == 1

    # Batch 3 arrives mid-incident and queues behind the breaker.
    assert service.ingest(batches[3]).status == "deferred"
    assert service.batches_behind() == 2

    # During the incident the last good epoch stays published,
    # bit-identical to the fault-free run's epoch 1, and every score
    # finite (the invalid candidate never swapped in).
    assert service.snapshot().epoch == 1
    assert np.array_equal(service.snapshot().ranking.scores,
                          reference_epochs[1])
    assert np.all(np.isfinite(service.snapshot().ranking.scores))
    health = service.health()
    assert health["status"] == "stale"
    assert health["breaker"] == "open"

    # Cooldown elapses; the half-open probe (batch 2, attempt 1 — its
    # fault fired only on attempt 0) succeeds, closes the breaker, and
    # the backlog drains.
    clock.advance(0.11)
    assert breaker.state == "half_open"
    published, quarantined = service.pump()
    assert published == 2
    assert quarantined == 0
    assert breaker.state == "closed"
    assert service.batches_behind() == 0

    # Post-recovery state: exactly "batch 1 skipped", verified
    # bit-identical against a clean run that never saw it.
    reference = LiveRanker(base)
    for batch in (batches[0], batches[2], batches[3]):
        reference.apply(batch)
    assert np.array_equal(service.snapshot().ranking.scores,
                          reference.result.scores)
    assert service.snapshot().epoch == 3  # 3 publishes, 1 quarantine

    # Quarantine triage: the poisoned batch, with the offending batch
    # object attached and a JSON-able report.
    records = service.quarantined
    assert len(records) == 1
    assert records[0].index == 1
    assert records[0].batch is batches[1]
    assert any("non-finite" in reason for reason in records[0].reasons)
    payload = records[0].report()
    assert payload["index"] == 1
    assert payload["num_articles"] == batches[1].num_articles
    assert "batch" not in payload
    assert health["quarantined_total"] == 1


def test_probe_failure_reopens_then_recovers(stream):
    base, batches = stream
    clock = FakeClock()
    plan = FaultPlan.of("batch:crash:0x3")
    breaker = CircuitBreaker(failure_threshold=1, cooldown=COOLDOWN,
                             clock=clock)
    service = RankingService(LiveRanker(base), breaker=breaker,
                             fault_plan=plan, max_batch_attempts=10)

    # Attempt 0 crashes; threshold 1 opens the breaker immediately.
    assert service.ingest(batches[0]).status == "deferred"
    assert breaker.opened_total == 1

    # First probe (attempt 1) crashes again: re-open, longer cooldown.
    clock.advance(0.11)
    assert service.pump() == (0, 0)
    assert breaker.state == "open"
    assert breaker.opened_total == 2
    assert breaker.cooldown_remaining == pytest.approx(0.2)

    # Second probe (attempt 2) still crashes (times=3).
    clock.advance(0.21)
    assert service.pump() == (0, 0)
    assert breaker.opened_total == 3

    # Third probe (attempt 3) is past the fault: publish, close, drain.
    clock.advance(0.41)
    assert service.pump() == (1, 0)
    assert breaker.state == "closed"
    assert service.batches_behind() == 0
    assert service.snapshot().epoch == 1
    reference = LiveRanker(base)
    reference.apply(batches[0])
    assert np.array_equal(service.snapshot().ranking.scores,
                          reference.result.scores)


def test_open_breaker_never_attempts(stream):
    base, batches = stream
    clock = FakeClock()
    plan = FaultPlan.of("batch:crash:0x100")
    breaker = CircuitBreaker(failure_threshold=1, cooldown=COOLDOWN,
                             clock=clock)
    service = RankingService(LiveRanker(base), breaker=breaker,
                             fault_plan=plan, max_batch_attempts=100)
    service.ingest(batches[0])
    failures_after_trip = service.health()["update_failures_total"]
    # Pumping while open is a no-op: no attempts, no new failures.
    for _ in range(5):
        assert service.pump() == (0, 0)
    assert service.health()["update_failures_total"] \
        == failures_after_trip
