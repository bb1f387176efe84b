"""ShardServer: per-shard refresh, slice guardrails, gated reads."""

import numpy as np
import pytest

from repro.errors import ConfigError, ServeError
from repro.data.schema import Article
from repro.engine.shm import ScoreBoardWriter
from repro.resilience import FaultPlan
from repro.serve.shard import (ShardConfig, ShardServer, ShardSpec,
                               shard_of)

pytestmark = pytest.mark.serve


def make_articles(count):
    return [Article(id=article_id, title=f"a{article_id}",
                    year=2000 + article_id % 5, venue_id=None,
                    author_ids=(), references=())
            for article_id in range(count)]


@pytest.fixture()
def board():
    writer = ScoreBoardWriter(capacity=64)
    yield writer
    writer.close()


def publish(writer, count, epoch=0, scale=1.0):
    ids = np.arange(count, dtype=np.int64)
    scores = (ids.astype(np.float64) + 1.0) * scale / count
    writer.publish(ids, scores, epoch)
    return ids, scores


class TestShardSpec:
    def test_validation(self):
        with pytest.raises(ConfigError, match="num_shards"):
            ShardSpec(shard=0, num_shards=0)
        with pytest.raises(ConfigError, match="shard"):
            ShardSpec(shard=2, num_shards=2)

    def test_modulo_ownership(self):
        spec = ShardSpec(shard=1, num_shards=3)
        assert spec.owns(1) and spec.owns(4) and not spec.owns(3)
        assert shard_of(10, 3) == 1


class TestRefresh:
    def test_refresh_builds_owned_slice(self, board):
        articles = make_articles(10)
        publish(board, 10)
        spec = ShardSpec(shard=0, num_shards=2)
        server = ShardServer(spec, board.layout,
                             [a for a in articles if spec.owns(a.id)])
        report = server.refresh(epoch=0)
        assert report["status"] == "refreshed"
        assert report["articles"] == 5
        epoch, entries = server.top(5)
        assert epoch == 0
        assert all(entry.article_id % 2 == 0 for entry in entries)
        server.close()

    def test_misrouted_article_rejected(self, board):
        spec = ShardSpec(shard=0, num_shards=2)
        with pytest.raises(ServeError, match="does not belong"):
            ShardServer(spec, board.layout, make_articles(2))

    def test_query_before_refresh_raises(self, board):
        spec = ShardSpec(shard=0, num_shards=2)
        server = ShardServer(spec, board.layout, [])
        with pytest.raises(ServeError, match="no refreshed snapshot"):
            server.top(3)
        server.close()

    def test_coverage_mismatch_vetoes(self, board):
        """Board missing an owned article: the slice must not swap."""
        articles = make_articles(12)
        publish(board, 10)  # articles 10, 11 not on the board yet
        spec = ShardSpec(shard=0, num_shards=2)
        server = ShardServer(spec, board.layout,
                             [a for a in articles if spec.owns(a.id)])
        report = server.refresh(epoch=0)
        assert report["status"] == "vetoed"
        assert any("coverage" in v for v in report["violations"])
        server.close()

    def test_poison_fault_vetoed_and_previous_snapshot_serves(self,
                                                              board):
        articles = make_articles(10)
        publish(board, 10, epoch=0)
        spec = ShardSpec(shard=1, num_shards=2)
        plan = FaultPlan.of("shard:poison:1,1")
        server = ShardServer(
            spec, board.layout,
            [a for a in articles if spec.owns(a.id)],
            ShardConfig(fault_plan=plan))
        assert server.refresh(epoch=0)["status"] == "refreshed"
        before = server.top(3)
        publish(board, 10, epoch=1, scale=1.5)
        report = server.refresh(epoch=1, attempt=0)
        assert report["status"] == "vetoed"
        assert any("non-finite" in v for v in report["violations"])
        # Last good snapshot keeps answering, stale but correct.
        assert server.top(3) == before
        assert server.health()["status"] == "lagging"
        # The fault's times budget is spent: the retry succeeds.
        assert server.refresh(epoch=1, attempt=1)["status"] \
            == "refreshed"
        assert server.health()["status"] == "fresh"
        server.close()

    def test_health_reports_counters(self, board):
        articles = make_articles(4)
        publish(board, 4)
        spec = ShardSpec(shard=0, num_shards=1)
        server = ShardServer(spec, board.layout, articles)
        server.refresh(epoch=0)
        server.top(2)
        health = server.health()
        assert health["status"] == "fresh"
        assert health["refreshes_total"] == 1
        assert health["vetoes_total"] == 0
        assert health["requests_admitted_total"] == 1
        server.close()


class TestCountAbove:
    def test_count_above_matches_global_rank(self, board):
        """Summing per-shard counts reconstructs the global rank."""
        from repro.query import RankIndex
        from repro.data.schema import ScholarlyDataset

        articles = make_articles(10)
        ids, scores = publish(board, 10)
        servers = []
        for shard in range(2):
            spec = ShardSpec(shard=shard, num_shards=2)
            server = ShardServer(
                spec, board.layout,
                [a for a in articles if spec.owns(a.id)])
            server.refresh(epoch=0)
            servers.append(server)
        dataset = ScholarlyDataset(name="all")
        for article in articles:
            dataset.articles[article.id] = article
        index = RankIndex(dataset, dict(zip(ids.tolist(),
                                            scores.tolist())))
        for article in articles:
            _, score = servers[article.id % 2].score_of(article.id)
            ahead = sum(server.count_above(score, article.id)[1]
                        for server in servers)
            assert ahead + 1 == index.rank_of(article.id)
        for server in servers:
            server.close()
