"""Journal segment archival: compaction, manifests, archive replay."""

import json
import shutil

import pytest

from repro.errors import StorageError
from repro.ingest import (IngestJournal, PartitionedIngestPipeline,
                          SyntheticSource)
from repro.ingest.coalescer import Coalescer
from repro.ingest.journal import ARCHIVE_DIR, ARCHIVE_FILE
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.engine.live import LiveRanker

pytestmark = pytest.mark.ingest


def _payloads(n, start=0):
    return [{"kind": "article", "id": i, "year": 2020, "refs": []}
            for i in range(start, start + n)]


def fill(journal, n, start=0):
    for payload in _payloads(n, start):
        journal.append(payload)


class TestCompaction:
    def test_archives_sealed_covered_segments(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 14)
            j.commit(12)
            report = j.compact(retention="archive")
        assert report.segments_archived == 3
        assert report.segments_deleted == 0
        assert report.bytes_reclaimed > 0
        assert report.archived_through == 12
        archive = tmp_path / "j" / ARCHIVE_DIR
        assert len(list(archive.glob("segment-*.jsonl"))) == 3
        # The hot tier keeps only the active segment.
        assert not list((tmp_path / "j").glob("segment-*.jsonl"))

    def test_delete_retention_removes_files(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 10)
            j.commit(8)
            report = j.compact(retention="delete")
        assert report.segments_deleted == 2
        assert report.segments_archived == 0
        assert not (tmp_path / "j" / ARCHIVE_DIR).exists()

    def test_uncovered_segments_stay(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 12)
            j.commit(5)  # covers segment 0 only (offsets 0..3)
            report = j.compact()
        assert report.segments_archived == 1
        assert report.archived_through == 4
        remaining = sorted(p.name for p in
                           (tmp_path / "j").glob("segment-*.jsonl"))
        assert remaining == ["segment-00000001.jsonl",
                             "segment-00000002.jsonl"]

    def test_cursor_exactly_at_segment_boundary(self, tmp_path):
        # commit(4) with 4-record segments: segment 0 holds offsets
        # 0..3, all strictly below the cursor — covered exactly, no
        # off-by-one in either direction.
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 8)
            j.commit(4)
            report = j.compact()
            assert report.segments_archived == 1
            assert report.archived_through == 4
            # One record short of the next boundary: not covered.
            j.commit(7)
            assert j.compact().segments_archived == 0
            # At the boundary: covered.
            j.commit(8)
            assert j.compact().segments_archived == 1

    def test_never_touches_the_active_segment(self, tmp_path):
        # Compaction racing an in-flight rotation: the cursor covers
        # every record, including those in the .open tail, but only
        # sealed segments are reclaimed — the active file stays.
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 10)  # two sealed + a 2-record active tail
            j.commit(10)
            report = j.compact()
            assert report.segments_archived == 2
            assert len(list((tmp_path / "j").glob("*.open"))) == 1
            # Appends continue seamlessly after the reclaim, and the
            # segment sealed next waits for the next pass.
            fill(j, 2, start=10)  # seals segment 2
            assert j.append(_payloads(1, 12)[0]) == 12
            j.commit(13)
            assert j.compact().segments_archived == 1

    def test_segment_names_never_reused_after_archival(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=2) as j:
            fill(j, 4)
            j.commit(4)
            j.compact()
        # Reopen with the hot tier empty: the next sealed segment must
        # not collide with an archived name.
        with IngestJournal(tmp_path / "j", segment_records=2) as j:
            fill(j, 2, start=4)
        names = {p.name for p in
                 (tmp_path / "j").glob("segment-*.jsonl")}
        archived = {p.name for p in
                    (tmp_path / "j" / ARCHIVE_DIR).iterdir()}
        assert not names & archived

    def test_compact_is_idempotent(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 9)
            j.commit(8)
            assert j.compact().segments_archived == 2
            again = j.compact()
        assert again.segments_archived == 0
        assert again.bytes_reclaimed == 0
        assert again.archived_through == 8

    def test_rejects_unknown_retention(self, tmp_path):
        with IngestJournal(tmp_path / "j") as j:
            with pytest.raises(StorageError):
                j.compact(retention="shred")


class TestArchiveReplay:
    def test_replay_from_zero_reads_the_archive_tier(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 10)
            j.commit(8)
            j.compact()
            offsets = [r.offset for r in j.replay(0)]
        assert offsets == list(range(10))

    def test_replay_from_cursor_never_opens_the_archive(self,
                                                        tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 10)
            j.commit(8)
            j.compact()
        # Archive deleted out from under the manifest: resume-path
        # replay (>= archived_through) must not notice.
        shutil.rmtree(tmp_path / "j" / ARCHIVE_DIR)
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            assert [r.offset for r in j.replay()] == [8, 9]
            assert j.next_offset == 10

    def test_replay_below_boundary_without_archive_is_fatal(
            self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 10)
            j.commit(8)
            j.compact(retention="delete")
            with pytest.raises(StorageError) as excinfo:
                list(j.replay(0))
        # The error names the earliest offset that still replays.
        assert "earliest replayable offset is 8" in str(excinfo.value)

    def test_archived_corruption_is_fatal(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 8)
            j.commit(8)
            j.compact()
        victim = next(iter(sorted(
            (tmp_path / "j" / ARCHIVE_DIR).iterdir())))
        lines = victim.read_text(encoding="utf-8").splitlines(True)
        lines[1] = lines[1].replace('"kind"', '"kinX"', 1)
        victim.write_text("".join(lines), encoding="utf-8")
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            with pytest.raises(StorageError):
                list(j.replay(0))


class TestManifestRepair:
    def test_interrupted_move_finishes_on_open(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 10)
            j.commit(8)
            j.compact()
        # Simulate a crash between the manifest write and the move:
        # put one archived segment back in the hot directory.
        archive = tmp_path / "j" / ARCHIVE_DIR
        stray = sorted(archive.iterdir())[0]
        shutil.move(str(stray), tmp_path / "j" / stray.name)
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            assert [r.offset for r in j.replay(0)] == list(range(10))
        assert not (tmp_path / "j" / stray.name).exists()
        assert (archive / stray.name).exists()

    def test_unreadable_manifest_is_fatal(self, tmp_path):
        with IngestJournal(tmp_path / "j", segment_records=4) as j:
            fill(j, 8)
            j.commit(8)
            j.compact()
        (tmp_path / "j" / ARCHIVE_FILE).write_text("{broken",
                                                   encoding="utf-8")
        with pytest.raises(StorageError):
            IngestJournal(tmp_path / "j")


class TestPipelineResumeFromCompactedJournal:
    @pytest.fixture(scope="class")
    def archive_dataset(self):
        return generate_dataset(GeneratorConfig(
            num_articles=60, num_venues=4, num_authors=20,
            start_year=2000, end_year=2012, seed=13))

    def test_resume_never_reads_archived_segments(self,
                                                  archive_dataset,
                                                  tmp_path):
        source = SyntheticSource(sorted(archive_dataset.articles), 60,
                                 seed=5, cite_every=6)
        live = LiveRanker(archive_dataset,
                          checkpoint_dir=tmp_path / "ckpt")
        pipeline = PartitionedIngestPipeline(
            live, source, tmp_path / "journal", 1, segment_records=8,
            coalescer=Coalescer(max_queue=48, min_batch=8,
                                max_batch=16),
            compaction="archive")
        report = pipeline.run()
        assert report.segments_archived > 0
        journal = pipeline.workers[0].journal
        journal.close()
        # Delete the archive tier entirely: a resume replays from the
        # committed cursor, above archived_through, and must succeed
        # without ever opening an archived file.
        shutil.rmtree(journal.directory / ARCHIVE_DIR)
        resumed = PartitionedIngestPipeline.resume(
            tmp_path / "ckpt", tmp_path / "journal", source, 1,
            segment_records=8,
            coalescer=Coalescer(max_queue=48, min_batch=8,
                                max_batch=16))
        resumed_report = resumed.run()
        # Fully committed journal: nothing replays, the re-pulled feed
        # dedups away, and the corpus is unchanged.
        assert resumed_report.records_replayed == 0
        assert len(resumed.live.dataset.articles) == \
            len(pipeline.live.dataset.articles)

    def test_pipeline_reports_archival_metrics(self, archive_dataset,
                                               tmp_path):
        from repro.obs import Observability

        obs = Observability("archive-test")
        source = SyntheticSource(sorted(archive_dataset.articles), 40,
                                 seed=6)
        live = LiveRanker(archive_dataset,
                          checkpoint_dir=tmp_path / "ckpt")
        pipeline = PartitionedIngestPipeline(
            live, source, tmp_path / "journal", 1, segment_records=8,
            coalescer=Coalescer(max_queue=48, min_batch=8,
                                max_batch=16),
            compaction="delete", obs=obs)
        report = pipeline.run()
        assert report.segments_archived > 0
        assert report.segments_reclaimed_bytes > 0
        exported = obs.metrics.to_prometheus()
        assert "repro_ingest_segments_archived" in exported
        assert "repro_ingest_segments_reclaimed_bytes" in exported
        metrics = report.as_metrics()
        assert metrics["segments_archived"] == report.segments_archived
