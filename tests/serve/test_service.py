"""The serving tier's two halves.

Update-path cases (guardrail veto, rollback, quarantine, breaker)
target :class:`RankingService` directly; read-path cases run on the
single-process tier, a 1-shard inline :class:`ShardedGateway`.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, NodeNotFoundError, OverloadError
from repro.engine.live import LiveRanker
from repro.engine.updates import yearly_updates
from repro.obs import Observability
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import (CircuitBreaker, GuardrailPolicy,
                         RankingService, ShardedGateway)

pytestmark = pytest.mark.serve

#: Instant-recovery cooldowns so tests never sleep.
FAST = RetryPolicy(max_retries=1_000, base_delay=0.0, max_delay=0.0,
                   jitter=0.0)


@pytest.fixture(scope="module")
def stream(small_dataset):
    base, batches = yearly_updates(small_dataset, from_year=2011)
    assert len(batches) >= 4
    return base, batches


def make_service(base, **kwargs):
    live = LiveRanker(base)
    kwargs.setdefault("breaker",
                      CircuitBreaker(failure_threshold=2, cooldown=FAST))
    return RankingService(live, **kwargs)


def make_gateway(base, **kwargs):
    """The single-process tier."""
    return ShardedGateway(LiveRanker(base), 1, mode="inline", **kwargs)


def hold_slot(gateway):
    """Occupy one in-flight slot of the (only) shard's gate."""
    return gateway._handles[0]._server._gate.admit(None)


class TestValidation:
    def test_max_batch_attempts_must_be_positive(self, stream):
        base, _ = stream
        with pytest.raises(ConfigError, match="max_batch_attempts"):
            make_service(base, max_batch_attempts=0)


class TestBootstrap:
    def test_bootstrap_snapshot_is_epoch_zero(self, stream):
        base, _ = stream
        service = make_service(base)
        snap = service.snapshot()
        assert snap.epoch == 0
        assert snap.batches_applied == 0
        assert snap.num_articles == base.num_articles

    def test_health_starts_fresh(self, stream):
        base, _ = stream
        service = make_service(base)
        health = service.health()
        assert health["status"] == "fresh"
        assert health["epoch"] == 0
        assert health["batches_behind"] == 0
        assert health["breaker"] == "closed"
        readiness = service.readiness()
        assert readiness["ready"] is True
        assert readiness["degraded"] is False


class TestReadPath:
    def test_top_returns_entries_with_epoch(self, stream):
        base, _ = stream
        with make_gateway(base) as gateway:
            result = gateway.top_sync(5)
            assert len(result.entries) == 5
            assert result.epoch == 0
            assert result.complete
            assert gateway.health()["service"]["batches_behind"] == 0
            scores = [entry.score for entry in result.entries]
            assert scores == sorted(scores, reverse=True)

    def test_filters_and_pagination(self, stream):
        base, _ = stream
        with make_gateway(base) as gateway:
            venue_id = next(iter(base.venues))
            filtered = gateway.top_sync(3, venue_id=venue_id)
            for entry in filtered.entries:
                assert base.articles[entry.article_id].venue_id \
                    == venue_id
            page = gateway.page_sync(2, 4)
            assert [e.rank for e in page.entries] == [3, 4, 5, 6]
            best = gateway.top_sync(1).entries[0]
            assert gateway.rank_of(best.article_id) == 1
            with pytest.raises(NodeNotFoundError):
                gateway.rank_of(-42)

    def test_requests_counted(self, stream):
        base, _ = stream
        obs = Observability("serve-test")
        with make_gateway(base, obs=obs) as gateway:
            gateway.top_sync(3)
            gateway.page_sync(0, 3)
            gateway.rank_of(next(iter(base.articles)))
        counter = obs.metrics.counter("repro_gateway_queries_total",
                                      labels=("outcome",))
        assert counter.value(outcome="merged") == 3
        assert obs.metrics.histogram(
            "repro_gateway_read_latency_seconds").count() == 3

    def test_shed_when_gate_full(self, stream):
        base, _ = stream
        obs = Observability("serve-test")
        with make_gateway(base, obs=obs, max_inflight=1) as gateway:
            with hold_slot(gateway):
                with pytest.raises(OverloadError):
                    gateway.top_sync(3)
            counter = obs.metrics.counter("repro_gateway_queries_total",
                                          labels=("outcome",))
            assert counter.value(outcome="shed") == 1
            assert obs.metrics.counter(
                "repro_gateway_shed_total").value() == 1
            assert gateway.health()["shards"][0][
                "requests_shed_total"] == 1
            # Capacity recovered once the slot was released.
            assert gateway.top_sync(3).epoch == 0


class TestUpdatePath:
    def test_publish_advances_epoch(self, stream):
        base, batches = stream
        service = make_service(base)
        report = service.ingest(batches[0])
        assert report.status == "published"
        assert report.epoch == 1
        assert report.batches_behind == 0
        snap = service.snapshot()
        assert snap.epoch == 1
        assert snap.batches_applied == 1
        assert snap.num_articles == base.num_articles \
            + batches[0].num_articles

    def test_published_matches_plain_live_ranker(self, stream):
        base, batches = stream
        service = make_service(base)
        reference = LiveRanker(base)
        for batch in batches[:2]:
            service.ingest(batch)
            reference.apply(batch)
        assert np.array_equal(service.snapshot().ranking.scores,
                              reference.result.scores)

    def test_poisoned_batch_quarantined_snapshot_keeps_serving(
            self, stream):
        base, batches = stream
        plan = FaultPlan().poison_batch(0)
        service = make_service(base, fault_plan=plan)
        before = service.snapshot()
        report = service.ingest(batches[0])
        assert report.status == "quarantined"
        assert "non-finite" in report.reasons[0]
        assert service.snapshot() is before  # last good snapshot intact
        records = service.quarantined
        assert len(records) == 1
        assert records[0].index == 0
        assert records[0].batch is batches[0]
        assert records[0].report()["num_articles"] \
            == batches[0].num_articles
        # The engine rolled back: the next batch applies cleanly against
        # the pre-poison state.
        next_report = service.ingest(batches[1])
        assert next_report.status == "published"
        reference = LiveRanker(base)
        reference.apply(batches[1])
        assert np.array_equal(service.snapshot().ranking.scores,
                              reference.result.scores)

    def test_transient_crash_retried_within_pump(self, stream):
        base, batches = stream
        plan = FaultPlan().crash_batch(0, times=1)
        service = make_service(
            base, fault_plan=plan,
            breaker=CircuitBreaker(failure_threshold=5, cooldown=FAST))
        report = service.ingest(batches[0])
        # Attempt 0 crashed, attempt 1 went through — one pump call.
        assert report.status == "published"
        assert report.epoch == 1
        assert service.health()["update_failures_total"] == 1
        assert service.quarantined == []

    def test_crash_looping_batch_quarantined_at_attempt_cap(self,
                                                            stream):
        base, batches = stream
        plan = FaultPlan().crash_batch(0, times=100)
        service = make_service(
            base, fault_plan=plan, max_batch_attempts=3,
            breaker=CircuitBreaker(failure_threshold=50, cooldown=FAST))
        report = service.ingest(batches[0])
        assert report.status == "quarantined"
        assert service.quarantined[0].attempts == 3
        assert "InjectedCrash" in service.quarantined[0].reasons[0]

    def test_breaker_open_defers_batches(self, stream):
        base, batches = stream
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown=RetryPolicy(max_retries=10, base_delay=3600.0,
                                 max_delay=3600.0, jitter=0.0))
        plan = FaultPlan().crash_batch(0, times=100)
        service = make_service(base, fault_plan=plan, breaker=breaker,
                               max_batch_attempts=5)
        first = service.ingest(batches[0])
        assert first.status == "deferred"
        assert first.breaker_state == "open"
        second = service.ingest(batches[1])
        assert second.status == "deferred"
        assert service.batches_behind() == 2
        health = service.health()
        assert health["status"] == "stale"
        assert health["batches_behind"] == 2
        assert service.readiness()["degraded"] is True
        # The last good epoch stays published.
        assert service.snapshot().epoch == 0


class TestObservabilityWiring:
    def test_publish_spans_and_metrics(self, stream):
        base, batches = stream
        obs = Observability("serve-test")
        service = make_service(base, obs=obs)
        service.ingest(batches[0])
        spans = [span["name"] for span in obs.tracer.export()]
        assert "serve.publish" in spans
        assert obs.metrics.counter(
            "repro_serve_publishes_total").value() == 1
        assert obs.metrics.gauge(
            "repro_serve_stale_batches").value() == 0

    def test_trace_reads_opt_in(self, stream):
        base, _ = stream
        obs = Observability("serve-test")
        with make_gateway(base, obs=obs, trace_reads=True) as gateway:
            gateway.top_sync(3)
        read_spans = [span for span in obs.tracer.export()
                      if span["name"] == "gateway.read"]
        assert len(read_spans) == 1
        assert read_spans[0]["attributes"]["op"] == "top"
        assert read_spans[0]["attributes"]["board_epoch"] == 0

    def test_reads_not_traced_by_default(self, stream):
        base, _ = stream
        obs = Observability("serve-test")
        with make_gateway(base, obs=obs) as gateway:
            gateway.top_sync(3)
        assert not [span for span in obs.tracer.export()
                    if span["name"] == "gateway.read"]

    def test_quarantine_event_and_counter(self, stream):
        base, batches = stream
        obs = Observability("serve-test")
        plan = FaultPlan().poison_batch(0)
        service = make_service(base, obs=obs, fault_plan=plan)
        service.ingest(batches[0])
        assert obs.metrics.counter(
            "repro_serve_quarantined_total").value() == 1


class TestGuardrailIntegration:
    def test_strict_churn_policy_vetoes_legitimate_update(self, stream):
        # A zero-churn policy on a small corpus quarantines even an
        # honest batch — proving the guardrail, not the fault plan,
        # controls publishing.
        base, batches = stream
        service = make_service(
            base,
            guardrails=GuardrailPolicy(churn_top_k=100, max_churn=0.0))
        report = service.ingest(batches[0])
        if report.status == "quarantined":
            assert any("churn" in reason for reason in report.reasons)
            assert service.snapshot().epoch == 0
        else:  # the batch genuinely moved nothing in the top-100
            assert report.status == "published"
