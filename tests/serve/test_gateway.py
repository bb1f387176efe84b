"""ShardedGateway: cross-process parity and per-shard degradation.

The acceptance suite for the serving tier: K-shard scatter-gather
results must be **bit-identical** (ids, scores, tie order, ranks) to
one :class:`RankIndex` over the whole published corpus — including
filtered queries — and a crash/poisoned shard must degrade alone (last
good shard snapshot serving, reported in ``health()``) while every
other shard stays fresh.
"""

import random
from itertools import islice

import numpy as np
import pytest

from repro.errors import ConfigError, NodeNotFoundError, ServeError
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.drill import arrival_batches
from repro.engine.live import LiveRanker
from repro.obs import Observability
from repro.query import RankIndex
from repro.resilience import (WORKER_CRASH_EXIT_CODE, FaultPlan,
                              RetryPolicy)
from repro.serve import ShardedGateway

pytestmark = pytest.mark.serve

#: Instant shard-breaker recovery so tests never sleep.
FAST = RetryPolicy(max_retries=1_000, base_delay=0.0, max_delay=0.0,
                   jitter=0.0)


@pytest.fixture(scope="module")
def gateway_dataset():
    config = GeneratorConfig(num_articles=180, num_venues=6,
                             num_authors=50, start_year=2000,
                             end_year=2010, seed=13)
    return generate_dataset(config)


def make_gateway(dataset, num_shards=3, **kwargs):
    kwargs.setdefault("mode", "inline")
    kwargs.setdefault("shard_cooldown", FAST)
    return ShardedGateway(LiveRanker(dataset), num_shards, **kwargs)


def single_index(gateway):
    """One RankIndex over everything the update path has published."""
    live = gateway.service._live
    return RankIndex(live.dataset, live.result.by_id())


def feed(gateway, dataset, batches, batch_size=12, seed=0):
    for batch in islice(arrival_batches(dataset, batch_size,
                                        random.Random(seed)), batches):
        gateway.ingest(batch)


class TestValidation:
    def test_num_shards_must_be_positive(self, gateway_dataset):
        with pytest.raises(ConfigError, match="num_shards"):
            make_gateway(gateway_dataset, num_shards=0)

    def test_mode_is_checked(self, gateway_dataset):
        with pytest.raises(ConfigError, match="mode"):
            make_gateway(gateway_dataset, mode="thread")


class TestParity:
    """Gateway merges must be bit-identical to the single index."""

    def test_top_k_bit_identical_after_churn(self, gateway_dataset):
        with make_gateway(gateway_dataset) as gateway:
            feed(gateway, gateway_dataset, batches=2)
            index = single_index(gateway)
            for k in (1, 10, 50):
                result = gateway.top_sync(k)
                assert result.complete
                # Dataclass equality compares floats exactly: ids,
                # scores, tie order, and ranks all bit-identical.
                assert result.entries == index.top(k)

    def test_filtered_queries_bit_identical(self, gateway_dataset):
        with make_gateway(gateway_dataset) as gateway:
            feed(gateway, gateway_dataset, batches=1)
            index = single_index(gateway)
            venue = next(iter(gateway_dataset.venues))
            author = next(iter(gateway_dataset.authors))
            assert gateway.top_sync(10, venue_id=venue).entries \
                == index.top(10, venue_id=venue)
            assert gateway.top_sync(10, author_id=author).entries \
                == index.top(10, author_id=author)
            assert gateway.top_sync(
                10, year_range=(2003, 2008)).entries \
                == index.top(10, year_range=(2003, 2008))

    def test_page_bit_identical(self, gateway_dataset):
        with make_gateway(gateway_dataset) as gateway:
            index = single_index(gateway)
            assert gateway.page_sync(0, 10).entries == index.page(0, 10)
            assert gateway.page_sync(25, 10).entries \
                == index.page(25, 10)

    def test_rank_of_matches_single_process(self, gateway_dataset):
        with make_gateway(gateway_dataset) as gateway:
            index = single_index(gateway)
            for article_id in list(gateway_dataset.articles)[:25]:
                assert gateway.rank_of(article_id) \
                    == index.rank_of(article_id)

    def test_rank_of_unknown_article_raises(self, gateway_dataset):
        with make_gateway(gateway_dataset) as gateway:
            with pytest.raises(NodeNotFoundError):
                gateway.rank_of(10_000_000)

    def test_single_shard_degenerate_case(self, gateway_dataset):
        with make_gateway(gateway_dataset, num_shards=1) as gateway:
            index = single_index(gateway)
            assert gateway.top_sync(20).entries == index.top(20)


    @pytest.mark.faults
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_parity_after_faulted_feed(self, gateway_dataset,
                                       num_shards):
        # Batch 1 is NaN-poisoned (quarantined), batch 2 crashes once
        # (retried): every read must still equal one RankIndex over
        # what the update path ended up publishing, entry for entry.
        plan = FaultPlan.of("batch:nan:1", "batch:crash:2")
        with make_gateway(gateway_dataset, num_shards=num_shards,
                          fault_plan=plan) as gateway:
            feed(gateway, gateway_dataset, batches=4)
            service = gateway.health()["service"]
            assert service["quarantined_total"] == 1
            assert service["batches_behind"] == 0
            assert gateway.board_epoch == 3
            index = single_index(gateway)
            assert gateway.top_sync(30).entries == index.top(30)
            assert gateway.top_sync(
                10, year_range=(2003, 2008)).entries \
                == index.top(10, year_range=(2003, 2008))
            assert gateway.page_sync(7, 15).entries == index.page(7, 15)
            for article_id in list(gateway_dataset.articles)[:15]:
                assert gateway.rank_of(article_id) \
                    == index.rank_of(article_id)


class TestWorkCount:
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_one_ingest_builds_one_index_per_shard(
            self, gateway_dataset, num_shards, monkeypatch):
        # Every RankIndex built anywhere in the process is counted:
        # the shards' refreshes are the only builders left.
        built = []
        build = RankIndex.__init__

        def counting_build(index, *args, **kwargs):
            built.append(index)
            build(index, *args, **kwargs)

        monkeypatch.setattr(RankIndex, "__init__", counting_build)
        with make_gateway(gateway_dataset,
                          num_shards=num_shards) as gateway:
            assert len(built) == num_shards  # bootstrap publish
            feed(gateway, gateway_dataset, batches=1)
            assert len(built) == 2 * num_shards


    def test_refresh_attempt_counters_do_not_accumulate(
            self, gateway_dataset):
        """One counter per shard for the current board epoch; it used
        to keep one per shard per publish, forever."""
        plan = FaultPlan.of("shard:poison:1,20")
        arrivals = arrival_batches(gateway_dataset, 2, random.Random(0))
        with make_gateway(gateway_dataset, num_shards=3,
                          fault_plan=plan,
                          auto_respawn=False) as gateway:
            for publish in range(50):
                gateway.ingest(next(arrivals))
                assert gateway.board_epoch == publish + 1
                assert len(gateway._refresh_attempts) <= 3
                if gateway.board_epoch == 20:
                    # The scripted fault fired once; repair() retries
                    # the same epoch past its budget, as before.
                    assert gateway.health()["degraded_shards"] == [1]
                    gateway.repair()
                    assert gateway._refresh_attempts[1, 20] == 2
                assert gateway.health()["status"] == "fresh"


class TestPublishSpan:
    def test_refused_board_publish_marks_span_error(
            self, gateway_dataset):
        obs = Observability("gateway-test")
        with make_gateway(gateway_dataset, num_shards=2, obs=obs,
                          board_capacity=185) as gateway:
            # 12 arrivals overflow the 185-slot board: the service
            # publishes, the board refuses.
            with pytest.raises(ServeError,
                               match="score board publish failed"):
                feed(gateway, gateway_dataset, batches=1)
        publishes = [span for span in obs.tracer.export()
                     if span["name"] == "gateway.publish"]
        assert [span["status"] for span in publishes] == ["ok", "error"]


class TestFloat32Serving:
    """The score board serves float64, full stop."""

    def test_float64_default_unchanged(self, gateway_dataset):
        with make_gateway(gateway_dataset) as gateway:
            assert gateway._writer._scores.dtype == np.float64


class TestProcessMode:
    def test_cross_process_parity_and_health(self, gateway_dataset):
        with make_gateway(gateway_dataset, num_shards=2,
                          mode="process",
                          call_timeout=60.0) as gateway:
            feed(gateway, gateway_dataset, batches=2)
            index = single_index(gateway)
            result = gateway.top_sync(25)
            assert result.complete
            assert result.entries == index.top(25)
            health = gateway.health()
            assert health["status"] == "fresh"
            assert [s["status"] for s in health["shards"]] \
                == ["fresh", "fresh"]


class TestChaos:
    pytestmark = [pytest.mark.serve, pytest.mark.faults]

    def test_poisoned_shard_degrades_alone_and_recovers(
            self, gateway_dataset):
        plan = FaultPlan.of("shard:poison:1,1")
        with make_gateway(gateway_dataset, num_shards=3,
                          fault_plan=plan,
                          auto_respawn=False) as gateway:
            before = gateway.top_sync(10)
            feed(gateway, gateway_dataset, batches=1)
            health = gateway.health()
            assert health["status"] == "degraded"
            assert health["degraded_shards"] == [1]
            statuses = {s["shard"]: s["status"]
                        for s in health["shards"]}
            assert statuses[1] == "lagging"
            assert statuses[0] == statuses[2] == "fresh"
            # The lagging shard still answers from its last good
            # snapshot: queries stay complete, freshness floor drops.
            during = gateway.top_sync(10)
            assert during.complete
            assert during.epoch == before.epoch
            # repair() re-attempts past the fault's times budget.
            gateway.repair()
            health = gateway.health()
            assert health["status"] == "fresh"
            assert gateway.top_sync(10).entries \
                == single_index(gateway).top(10)

    def test_crashed_worker_process_detected_and_respawned(
            self, gateway_dataset):
        plan = FaultPlan.of("shard:crash:0,1")
        with make_gateway(gateway_dataset, num_shards=2,
                          mode="process", fault_plan=plan,
                          auto_respawn=False,
                          call_timeout=60.0) as gateway:
            feed(gateway, gateway_dataset, batches=1)
            health = gateway.health()
            assert health["status"] == "degraded"
            assert health["degraded_shards"] == [0]
            # The worker died with the recognizable chaos exit code.
            assert gateway._handles[0].exit_code \
                == WORKER_CRASH_EXIT_CODE
            # Queries degrade per-shard: answered from the survivor.
            result = gateway.top_sync(10)
            assert not result.complete
            assert result.degraded == (0,)
            assert result.shards_answered == 1
            gateway.repair()
            health = gateway.health()
            assert health["status"] == "fresh"
            assert health["respawns_total"] == 1
            assert gateway.top_sync(10).entries \
                == single_index(gateway).top(10)

    def test_auto_respawn_recovers_within_the_publish(
            self, gateway_dataset):
        plan = FaultPlan.of("shard:crash:1,1")
        with make_gateway(gateway_dataset, num_shards=2,
                          mode="process", fault_plan=plan,
                          auto_respawn=True,
                          call_timeout=60.0) as gateway:
            feed(gateway, gateway_dataset, batches=1)
            health = gateway.health()
            assert health["status"] == "fresh"
            assert health["respawns_total"] == 1
            assert gateway.top_sync(10).entries \
                == single_index(gateway).top(10)

    def test_all_shards_down_raises_typed_error(self, gateway_dataset):
        plan = FaultPlan.of("shard:crash:0,0x10", "shard:crash:1,0x10")
        with make_gateway(gateway_dataset, num_shards=2,
                          fault_plan=plan,
                          auto_respawn=False) as gateway:
            with pytest.raises(ServeError, match="no shard answered"):
                gateway.top_sync(5)
            readiness = gateway.readiness()
            assert readiness["ready"] is False
