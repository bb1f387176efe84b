"""Pipeline stages at K=1: dedup tiers, backpressure, quarantine."""

import json

import pytest

from repro.data.generator import GeneratorConfig, generate_dataset
from repro.engine.live import LiveRanker
from repro.engine.updates import apply_update
from repro.ingest import (
    Coalescer,
    PartitionedIngestPipeline,
    SyntheticSource,
    fault_free_reference,
)
from repro.ingest.sim import datasets_equal
from repro.resilience.faults import FaultPlan

pytestmark = pytest.mark.ingest


@pytest.fixture(scope="module")
def base_dataset():
    return generate_dataset(GeneratorConfig(
        num_articles=60, num_venues=4, num_authors=20,
        start_year=2000, end_year=2012, seed=7))


class ListSource:
    """Seekable feed over an explicit record list (test double)."""

    def __init__(self, records):
        self._records = list(records)

    def __len__(self):
        return len(self._records)

    def get(self, position):
        if position >= len(self._records):
            return None
        return json.loads(json.dumps(self._records[position]))


def make_pipeline(dataset, source, tmp_path, **kwargs):
    live = LiveRanker(dataset, checkpoint_dir=tmp_path / "ckpt")
    return PartitionedIngestPipeline(live, source, tmp_path / "journal",
                                     1, **kwargs)


class TestHappyPath:
    def test_feed_lands_and_commits(self, base_dataset, tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 30,
                                 seed=1)
        pipeline = make_pipeline(base_dataset, source, tmp_path)
        report = pipeline.run()
        assert report.records_pulled == 30
        assert report.articles_applied == 30
        assert report.quarantined == 0
        # Every pulled record is durably committed at the end.
        assert report.committed_offset == 30
        reference = apply_update(
            base_dataset, fault_free_reference(source, base_dataset))
        assert datasets_equal(pipeline.live.dataset, reference)

    def test_non_durable_pipeline_never_commits(self, base_dataset,
                                                tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 10,
                                 seed=1)
        live = LiveRanker(base_dataset)  # no checkpoint_dir
        report = PartitionedIngestPipeline(
            live, source, tmp_path / "journal", 1).run()
        assert report.articles_applied == 10
        assert report.committed_offset == 0


class TestDedupTiers:
    def test_duplicate_storm_applies_once(self, base_dataset, tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 40,
                                 seed=2, duplicate_every=3)
        pipeline = make_pipeline(base_dataset, source, tmp_path)
        report = pipeline.run()
        assert report.duplicates_skipped > 0
        reference = apply_update(
            base_dataset, fault_free_reference(source, base_dataset))
        assert datasets_equal(pipeline.live.dataset, reference)

    def test_conflicting_redelivery_first_write_wins(self, base_dataset,
                                                     tmp_path):
        new_id = max(base_dataset.articles) + 1
        source = ListSource([
            {"kind": "article", "id": new_id, "title": "first",
             "year": 2020, "refs": []},
            {"kind": "article", "id": new_id, "title": "second",
             "year": 2021, "refs": []},
        ])
        pipeline = make_pipeline(base_dataset, source, tmp_path)
        report = pipeline.run()
        assert report.conflicts_quarantined == 1
        assert report.quarantined == 1
        assert pipeline.live.dataset.articles[new_id].title == "first"

    def test_replay_after_commit_is_skipped(self, base_dataset,
                                            tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 12,
                                 seed=3)
        pipeline = make_pipeline(base_dataset, source, tmp_path)
        pipeline.run()
        # Second incarnation over the same journal + drained source:
        # replays nothing past the cursor, applies nothing twice.
        resumed = PartitionedIngestPipeline.resume(
            tmp_path / "ckpt", tmp_path / "journal", source, 1,
            incarnation=1)
        report = resumed.run()
        assert report.articles_applied == 0
        assert report.citations_applied == 0
        assert len(resumed.live.dataset.articles) == \
            len(base_dataset.articles) + 12


class TestQuarantine:
    def test_mangled_records_quarantined_with_location(self,
                                                       base_dataset,
                                                       tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 20,
                                 seed=4, mangle_every=5)
        pipeline = make_pipeline(base_dataset, source, tmp_path)
        report = pipeline.run()
        assert report.quarantined == 4  # positions 1, 6, 11, 16
        assert "record 1" in report.parse_report.locations
        assert "[record 1]" in report.parse_report.summary()

    def test_citation_with_unknown_endpoint_is_poison(self,
                                                      base_dataset,
                                                      tmp_path):
        known = min(base_dataset.articles)
        source = ListSource([
            {"kind": "cite", "citing": known, "cited": 999999},
        ])
        pipeline = make_pipeline(base_dataset, source, tmp_path)
        report = pipeline.run()
        assert report.quarantined == 1
        assert report.citations_applied == 0

    def test_poison_record_exhausts_parse_attempts(self, base_dataset,
                                                   tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 10,
                                 seed=5)
        plan = FaultPlan.of("parse:crash:4x10")
        pipeline = make_pipeline(base_dataset, source, tmp_path,
                                 fault_plan=plan, parse_attempts=3)
        report = pipeline.run()
        assert report.parse_crashes == 3
        assert report.quarantined == 1
        assert report.articles_applied == 9

    def test_flaky_parser_recovers_within_budget(self, base_dataset,
                                                 tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 10,
                                 seed=5)
        plan = FaultPlan.of("parse:crash:4")
        pipeline = make_pipeline(base_dataset, source, tmp_path,
                                 fault_plan=plan, parse_attempts=2)
        report = pipeline.run()
        assert report.parse_crashes == 1
        assert report.quarantined == 0
        assert report.articles_applied == 10


class TestResilience:
    def test_transient_source_error_is_retried(self, base_dataset,
                                               tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 10,
                                 seed=6)
        plan = FaultPlan.of("source:error:3x2")
        pipeline = make_pipeline(base_dataset, source, tmp_path,
                                 fault_plan=plan)
        report = pipeline.run()
        assert report.source_retries == 2
        assert report.records_pulled == 10
        assert report.articles_applied == 10


class TestBackpressure:
    def test_tight_queue_pauses_and_stays_bounded(self, base_dataset,
                                                  tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 60,
                                 seed=8, cite_every=4)
        # min_batch above the high watermark (0.75 * 12 = 9): the pull
        # loop hits PAUSE and must drain before it may pull again.
        pipeline = make_pipeline(
            base_dataset, source, tmp_path,
            coalescer=Coalescer(max_queue=12, min_batch=10,
                                max_batch=10))
        report = pipeline.run()
        assert report.backpressure_pauses > 0
        assert 0 < report.peak_queue <= 12
        reference = apply_update(
            base_dataset, fault_free_reference(source, base_dataset))
        assert datasets_equal(pipeline.live.dataset, reference)

    def test_peak_counts_the_depth_a_shed_offer_found(self):
        # Regression: a producer that only ever collides with a full
        # queue used to leave peak at the pre-saturation depth — the
        # SHED rejection must register the depth it found so the gauge
        # reflects saturation.
        from repro.errors import IngestError
        from repro.ingest.source import ParsedItem

        coalescer = Coalescer(max_queue=4, min_batch=1, max_batch=4)
        for offset in range(4):
            coalescer.offer(ParsedItem(
                offset=offset, kind="cite", fingerprint=offset,
                citation=(offset, offset + 1)))
        with pytest.raises(IngestError):
            coalescer.offer(ParsedItem(
                offset=4, kind="cite", fingerprint=4,
                citation=(4, 5)))
        assert coalescer.peak == 4
        assert len(coalescer) == 4  # nothing was enqueued

    def test_freshness_accounting_is_populated(self, base_dataset,
                                               tmp_path):
        source = SyntheticSource(sorted(base_dataset.articles), 30,
                                 seed=9)
        pipeline = make_pipeline(base_dataset, source, tmp_path)
        report = pipeline.run()
        assert report.freshness_samples == 30
        assert report.freshness_max_records >= \
            report.freshness_mean_records > 0
