"""Threaded stress: concurrent readers vs snapshot publishes.

The core atomicity claim, on the single-process tier (a 1-shard inline
gateway): N reader threads hammering ``top_sync(k)`` while the updater
publishes M snapshots must only ever observe *complete* shard snapshots
— every read's entries must exactly match the published ranking of the
epoch the read reports, never a mix of two epochs.
"""

import threading

import pytest

from repro.errors import OverloadError
from repro.engine.live import LiveRanker
from repro.engine.updates import yearly_updates
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import CircuitBreaker, RankingService, ShardedGateway

pytestmark = pytest.mark.serve

READERS = 6
TOP_K = 10


@pytest.fixture(scope="module")
def stream(small_dataset):
    base, batches = yearly_updates(small_dataset, from_year=2011)
    assert len(batches) >= 4
    return base, batches


def make_gateway(base, **kwargs):
    return ShardedGateway(LiveRanker(base), 1, mode="inline", **kwargs)


def shard_health(gateway):
    return gateway.health()["shards"][0]


def seen(result):
    return tuple((e.article_id, e.score) for e in result.entries)


def test_no_torn_reads_across_publishes(stream):
    base, batches = stream

    # Reference pass: the exact top-k every epoch must serve.
    with make_gateway(base) as reference:
        expected = {0: seen(reference.top_sync(TOP_K))}
        for number, batch in enumerate(batches[:4], start=1):
            assert reference.ingest(batch).status == "published"
            expected[number] = seen(reference.top_sync(TOP_K))

    stop = threading.Event()
    torn = []
    observations = []
    lock = threading.Lock()

    with make_gateway(base) as gateway:
        def reader():
            local = []
            while not stop.is_set():
                result = gateway.top_sync(TOP_K)
                if seen(result) != expected.get(result.epoch):
                    torn.append((result.epoch, seen(result)))
                    return
                local.append(result.epoch)
            with lock:
                observations.extend(local)

        threads = [threading.Thread(target=reader)
                   for _ in range(READERS)]
        for thread in threads:
            thread.start()
        for batch in batches[:4]:
            assert gateway.ingest(batch).status == "published"
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "reader deadlocked"

        assert torn == [], f"torn reads observed: {torn[:3]}"
        assert observations, "readers never completed a read"
        assert set(observations) <= set(expected)
        # The last published epoch must be observable after the run.
        assert gateway.top_sync(TOP_K).epoch == 4


def test_shed_requests_typed_and_counted_exactly(stream):
    base, _ = stream
    with make_gateway(base, max_inflight=1) as gateway:
        gate = gateway._handles[0]._server._gate
        shed = []
        with gate.admit(None):  # occupy the only slot
            for _ in range(7):
                with pytest.raises(OverloadError) as info:
                    gateway.top_sync(TOP_K)
                shed.append(info.value)
        assert all(error.capacity == 1 for error in shed)
        assert all(error.inflight == 1 for error in shed)
        assert shard_health(gateway)["requests_shed_total"] == 7
        # The slot freed: reads flow again and the counter stays exact.
        gateway.top_sync(TOP_K)
        assert shard_health(gateway)["requests_shed_total"] == 7


def test_concurrent_overload_counts_are_exact(stream):
    base, _ = stream
    attempts_per_thread = 50
    served = []
    shed = []
    lock = threading.Lock()

    with make_gateway(base, max_inflight=2) as gateway:
        def reader():
            local_served = 0
            local_shed = 0
            for _ in range(attempts_per_thread):
                try:
                    gateway.top_sync(TOP_K)
                    local_served += 1
                except OverloadError:
                    local_shed += 1
            with lock:
                served.append(local_served)
                shed.append(local_shed)

        threads = [threading.Thread(target=reader)
                   for _ in range(READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()

        total = READERS * attempts_per_thread
        assert sum(served) + sum(shed) == total
        health = shard_health(gateway)
        assert health["requests_admitted_total"] == sum(served)
        assert health["requests_shed_total"] == sum(shed)


def test_batches_behind_tracks_queue_exactly(stream):
    base, batches = stream
    breaker = CircuitBreaker(
        failure_threshold=1,
        cooldown=RetryPolicy(max_retries=10, base_delay=3600.0,
                             max_delay=3600.0, jitter=0.0))
    plan = FaultPlan.of("batch:crash:0x100")
    service = RankingService(LiveRanker(base), breaker=breaker,
                             fault_plan=plan, max_batch_attempts=100)
    for number, batch in enumerate(batches[:3], start=1):
        service.ingest(batch)
        assert service.batches_behind() == number
        assert service.health()["batches_behind"] == number
    assert service.snapshot().epoch == 0
