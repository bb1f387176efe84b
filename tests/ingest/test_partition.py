"""Partitioned ingestion: routing, fan-in order, crash isolation."""

import pytest

from repro.core.model import ArticleRanker, RankerConfig
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.engine.live import LiveRanker
from repro.engine.updates import apply_update
from repro.errors import IngestError
from repro.ingest import (
    Coalescer,
    IngestJournal,
    PartitionedIngestPipeline,
    SyntheticSource,
    fault_free_reference,
    partition_of,
    partition_route,
    route_key,
    run_ingest_sim,
)
from repro.ingest.partition import Envelope, FanIn
from repro.ingest.sim import datasets_equal
from repro.resilience.faults import FaultPlan
from repro.serve.shard import shard_of

pytestmark = pytest.mark.ingest


@pytest.fixture(scope="module")
def base_dataset():
    return generate_dataset(GeneratorConfig(
        num_articles=80, num_venues=4, num_authors=25,
        start_year=2000, end_year=2013, seed=9))


def chaos_source(dataset, records=90, seed=2):
    return SyntheticSource(sorted(dataset.articles), records,
                           seed=seed, duplicate_every=7,
                           mangle_every=11, cite_every=5)


def run_partitioned(dataset, source, root, num_partitions,
                    **kwargs):
    live = LiveRanker(dataset, checkpoint_dir=root / "ckpt")
    pipeline = PartitionedIngestPipeline(
        live, source, root / "journal", num_partitions,
        coalescer=Coalescer(max_queue=48, min_batch=8, max_batch=32),
        **kwargs)
    return pipeline, pipeline.run()


def cold_oracle(dataset, source):
    """The corpus one fault-free batch of the whole feed produces."""
    return apply_update(dataset, fault_free_reference(source, dataset))


def shared_metrics(report):
    """``as_metrics()`` minus the keys that name K or one partition."""
    per_partition = tuple(f"p{i}_" for i in range(report.num_partitions))
    return {key: value for key, value in report.as_metrics().items()
            if key != "num_partitions"
            and not key.startswith(per_partition)}


class TestRouting:
    def test_partition_of_matches_serving_shards(self):
        # Ingest partitions and serving shards must slice the corpus
        # identically, so operators chase one partition + one shard.
        for record_id in range(200):
            for k in (1, 2, 3, 5, 8):
                assert partition_of(record_id, k) == \
                    shard_of(record_id, k)

    def test_route_key_follows_the_mutated_entity(self):
        assert route_key({"kind": "article", "id": 42,
                          "year": 2020}) == 42
        assert route_key({"kind": "cite", "citing": 7,
                          "cited": 3}) == 7

    def test_unroutable_payload_routes_deterministically(self):
        mangled = {"kind": "article", "title": "no-id", "year": 2020}
        key = route_key(mangled)
        assert isinstance(key, int)
        assert route_key(dict(mangled)) == key
        for k in (2, 4):
            assert 0 <= partition_route(mangled, k) < k

    def test_bool_id_is_not_a_route_key(self):
        # bool is an int subclass; a feed saying {"id": true} must not
        # route as partition 1.
        by_crc = route_key({"kind": "article", "id": True,
                            "year": 2020})
        assert by_crc != 1


class TestFanIn:
    def envelope(self, seq, partition=0, offset=0):
        return Envelope(seq=seq, partition=partition, offset=offset,
                        item=None)

    def test_releases_in_canonical_order(self):
        fan_in = FanIn(3)
        # Delivered out of order across partitions.
        fan_in.deliver(self.envelope(2, partition=1, offset=0))
        fan_in.deliver(self.envelope(0, partition=2, offset=0))
        fan_in.deliver(self.envelope(1, partition=0, offset=5))
        fan_in.advance(2)
        order = [(e.seq, e.partition) for e in fan_in.drain()]
        assert order == [(0, 2), (1, 0), (2, 1)]

    def test_holds_envelopes_past_the_watermark(self):
        fan_in = FanIn(2)
        fan_in.deliver(self.envelope(5, partition=0))
        fan_in.deliver(self.envelope(3, partition=1))
        fan_in.advance(3)
        assert [e.seq for e in fan_in.drain()] == [3]
        assert len(fan_in) == 1  # seq 5 still buffered
        fan_in.advance(5)
        assert [e.seq for e in fan_in.drain()] == [5]

    def test_ties_break_by_partition_then_offset(self):
        fan_in = FanIn(3)
        fan_in.deliver(self.envelope(4, partition=2, offset=0))
        fan_in.deliver(self.envelope(4, partition=0, offset=9))
        fan_in.deliver(self.envelope(4, partition=0, offset=1))
        fan_in.advance(4)
        order = [(e.partition, e.offset) for e in fan_in.drain()]
        assert order == [(0, 1), (0, 9), (2, 0)]

    def test_rejects_foreign_partition(self):
        with pytest.raises(IngestError):
            FanIn(2).deliver(self.envelope(0, partition=5))


class TestBitIdentical:
    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 4, 5])
    def test_matches_single_worker_pipeline(self, base_dataset,
                                            tmp_path,
                                            num_partitions):
        source = chaos_source(base_dataset)
        oracle = cold_oracle(base_dataset, source)
        partitioned, report = run_partitioned(
            base_dataset, source, tmp_path / "multi", num_partitions)
        # Same corpus and same exact ranking as the cold batch...
        assert datasets_equal(partitioned.live.dataset, oracle)
        config = RankerConfig()
        assert ArticleRanker(config).rank(
            partitioned.live.dataset).by_id() == ArticleRanker(
            config).rank(oracle).by_id()
        # ...and every counter K does not name equals the K=1 run's.
        _, single_report = run_partitioned(
            base_dataset, source, tmp_path / "single", 1)
        assert shared_metrics(report) == shared_metrics(single_report)

    def test_every_record_journaled_in_its_home_partition(
            self, base_dataset, tmp_path):
        source = chaos_source(base_dataset, records=40)
        partitioned, report = run_partitioned(
            base_dataset, source, tmp_path, 3)
        assert sum(s.records_journaled
                   for s in report.partitions) == 40
        for worker in partitioned.workers:
            for record in worker.journal.replay(0):
                assert partition_route(record.payload, 3) == \
                    worker.partition


class TestCrashIsolation:
    def test_other_partitions_untouched_by_a_crash(self, base_dataset,
                                                   tmp_path):
        plan = FaultPlan.of("partition:crash:0,20", "partition:tear:0")
        source = chaos_source(base_dataset)
        partitioned, report = run_partitioned(
            base_dataset, source, tmp_path, 3, fault_plan=plan)
        # Only partition 0 died and recovered.
        assert [w.incarnation for w in partitioned.workers] == \
            [1, 0, 0]
        assert [s.worker_crashes for s in report.partitions] == \
            [1, 0, 0]
        # The bystanders never tore or replayed.
        assert report.partitions[1].torn_records_dropped == 0
        assert report.partitions[2].torn_records_dropped == 0
        # And the run still lost nothing: at the end every journal
        # offset is durably committed (the torn record was re-
        # delivered, so its partition journaled one extra append but
        # the offset space is contiguous and fully covered).
        assert report.records_pulled == len(source)
        for worker in partitioned.workers:
            assert worker.journal.committed == \
                worker.journal.next_offset

    def test_simultaneous_crashes_with_tears_recover(self,
                                                     base_dataset,
                                                     tmp_path):
        plan = FaultPlan.of("partition:crash:0,30", "partition:crash:1,30",
                            "partition:tear:0", "partition:tear:1")
        source = chaos_source(base_dataset)
        partitioned, report = run_partitioned(
            base_dataset, source, tmp_path / "multi", 4,
            fault_plan=plan)
        assert report.worker_crashes == 2
        assert datasets_equal(partitioned.live.dataset,
                              cold_oracle(base_dataset, source))

    def test_stalled_partition_does_not_block_others(self,
                                                     base_dataset,
                                                     tmp_path):
        plan = FaultPlan.of("partition:stall:1,10@0.001")
        source = chaos_source(base_dataset, records=40)
        partitioned, report = run_partitioned(
            base_dataset, source, tmp_path, 3, fault_plan=plan)
        assert report.records_pulled == 40
        assert report.worker_crashes == 0


class TestResumeAndCursors:
    def test_per_partition_cursors_cover_their_journals(
            self, base_dataset, tmp_path):
        source = chaos_source(base_dataset, records=60)
        partitioned, report = run_partitioned(
            base_dataset, source, tmp_path, 3)
        for worker in partitioned.workers:
            # Tombstones (mangled records) advance the cursor too:
            # at the end every journaled offset is committed.
            assert worker.journal.committed == \
                worker.stats.records_journaled

    def test_resume_from_committed_journals_is_idempotent(
            self, base_dataset, tmp_path):
        source = chaos_source(base_dataset, records=60)
        first, report = run_partitioned(base_dataset, source,
                                        tmp_path, 3)
        for worker in first.workers:
            worker.journal.close()
        resumed = PartitionedIngestPipeline.resume(
            tmp_path / "ckpt", tmp_path / "journal", source, 3,
            coalescer=Coalescer(max_queue=48, min_batch=8,
                                max_batch=32))
        resumed_report = resumed.run()
        # Fully committed journals: nothing replays, the re-pulled
        # feed is absorbed as duplicates, the corpus is unchanged.
        assert resumed_report.records_replayed == 0
        assert datasets_equal(first.live.dataset,
                              resumed.live.dataset)

    def test_trailing_duplicates_advance_cursors_without_a_rotation(
            self, base_dataset, tmp_path):
        # 40 articles cut into five batches of 8, then 6 verbatim
        # re-deliveries: handled, journaled, without effect. The final
        # forced commit must move the cursors past them and leave the
        # rotations alone — it used to rewrite ckpt-00000005.
        from repro.engine.live import checkpoint_rotations
        from repro.obs import Observability

        first_id = max(base_dataset.articles) + 1
        feed = [{"kind": "article", "id": first_id + i, "year": 2014,
                 "refs": [first_id + i - 1]} for i in range(40)]
        feed += feed[:6]

        class Feed:
            def get(self, position):
                return feed[position] if position < len(feed) else None

        obs = Observability("trailing-duplicates")
        live = LiveRanker(base_dataset, checkpoint_dir=tmp_path / "ckpt",
                          obs=obs)
        checkpoints = []
        write = live.checkpoint
        live.checkpoint = lambda: checkpoints.append(
            live.batches_applied) or write()
        pipeline = PartitionedIngestPipeline(
            live, Feed(), tmp_path / "journal", 2, obs=obs,
            coalescer=Coalescer(min_batch=8, max_batch=8))
        report = pipeline.run()

        assert report.batches_applied == 5
        assert report.duplicates_skipped == 6
        assert checkpoints == [1, 2, 3, 4, 5]
        written = obs.metrics.snapshot()["repro_checkpoints_total"]
        assert written["values"][0]["value"] == report.batches_applied
        for worker in pipeline.workers:
            assert worker.journal.committed == \
                worker.stats.records_journaled
            assert worker.journal.cursor_extra["batches_applied"] == 5
            worker.journal.close()
        assert checkpoint_rotations(tmp_path / "ckpt")[0].name == \
            "ckpt-00000005"

        resumed = PartitionedIngestPipeline.resume(
            tmp_path / "ckpt", tmp_path / "journal", Feed(), 2,
            coalescer=Coalescer(min_batch=8, max_batch=8))
        again = resumed.run()
        assert again.records_replayed == 0
        assert again.batches_applied == 0
        assert datasets_equal(live.dataset, resumed.live.dataset)

    def test_a_feed_without_effect_still_leaves_one_rotation(
            self, base_dataset, tmp_path):
        # Cursors may only name offsets a durable rotation covers, so
        # the very first commit writes one even with nothing applied.
        known = sorted(base_dataset.articles)[:4]
        feed = [{"kind": "cite", "citing": known[0], "cited": known[0]},
                {"kind": "article", "title": "no id", "year": 2014}]

        class Feed:
            def get(self, position):
                return feed[position] if position < len(feed) else None

        live = LiveRanker(base_dataset, checkpoint_dir=tmp_path / "ckpt")
        pipeline = PartitionedIngestPipeline(
            live, Feed(), tmp_path / "journal", 2)
        report = pipeline.run()
        assert report.batches_applied == 0
        assert sum(w.journal.committed for w in pipeline.workers) == 2
        assert LiveRanker.resume(tmp_path / "ckpt").batches_applied == 0

    def test_resume_keyword_knobs_round_trip(self, base_dataset,
                                             tmp_path):
        source = chaos_source(base_dataset, records=30)
        first, _ = run_partitioned(base_dataset, source, tmp_path, 2,
                                   segment_records=8,
                                   compaction="archive")
        for worker in first.workers:
            worker.journal.close()
        resumed = PartitionedIngestPipeline.resume(
            tmp_path / "ckpt", tmp_path / "journal", source, 2,
            segment_records=8, compaction="archive",
            coalescer=Coalescer(max_queue=48, min_batch=8,
                                max_batch=32))
        resumed.run()
        assert datasets_equal(first.live.dataset,
                              resumed.live.dataset)


class TestJournalLayout:
    def fill_unstamped(self, directory, records=6):
        with IngestJournal(directory) as journal:
            for position in range(records):
                journal.append({"kind": "article", "id": 9000 + position,
                                "year": 2020, "refs": []})

    def test_flat_journal_root_is_refused_with_the_fix(
            self, base_dataset, tmp_path):
        self.fill_unstamped(tmp_path / "journal")
        with pytest.raises(IngestError, match="mkdir partition-0000"):
            PartitionedIngestPipeline(
                LiveRanker(base_dataset), None, tmp_path / "journal", 1)
        assert not (tmp_path / "journal" / "partition-0000").exists()

    def test_unstamped_journal_replays_by_offset_at_k1(
            self, base_dataset, tmp_path):
        # A flat journal moved under partition-0000/: its records carry
        # no arrival seq, and at K=1 the local offset *is* the seq.
        self.fill_unstamped(tmp_path / "journal" / "partition-0000")
        source = SyntheticSource(sorted(base_dataset.articles), 10,
                                 seed=1)
        pipeline, report = run_partitioned(base_dataset, source,
                                           tmp_path, 1)
        # The six journaled records replay; the feed resumes after them.
        assert report.records_replayed == 6
        assert report.records_pulled == 4
        assert report.articles_applied == 10
        assert 9005 in pipeline.live.dataset.articles

    def test_unstamped_journal_is_an_error_past_k1(
            self, base_dataset, tmp_path):
        self.fill_unstamped(tmp_path / "journal" / "partition-0000")
        source = chaos_source(base_dataset, records=0)
        with pytest.raises(IngestError, match="no arrival seq"):
            run_partitioned(base_dataset, source, tmp_path, 2)


class TestSimAgainstColdOracle:
    @pytest.mark.parametrize("num_partitions", [1, 3])
    def test_poison_crash_and_tear_hold(self, base_dataset, tmp_path,
                                        num_partitions):
        sim = run_ingest_sim(
            base_dataset, records=80, seed=3, duplicate_every=7,
            mangle_every=11, cite_every=5, partitions=num_partitions,
            fault_plan=FaultPlan.of("parse:crash:40x10", "ingest:crash:1",
                                    "partition:tear:0"),
            workdir=tmp_path / "sim")
        assert sim.crashed and sim.resumed
        assert sim.contract_held, sim.render()
        assert sim.metrics["partitions"] == num_partitions


class TestValidation:
    def test_rejects_bad_partition_count(self, base_dataset,
                                         tmp_path):
        live = LiveRanker(base_dataset)
        with pytest.raises(IngestError):
            PartitionedIngestPipeline(live, None, tmp_path, 0)

    def test_rejects_bad_compaction_mode(self, base_dataset,
                                         tmp_path):
        live = LiveRanker(base_dataset)
        with pytest.raises(IngestError):
            PartitionedIngestPipeline(live, None, tmp_path, 2,
                                      compaction="shred")
