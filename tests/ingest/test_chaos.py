"""Chaos harness: crash-resume exactly-once, full-fault contract runs."""

import json

import pytest

from repro.cli import main
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.schema import Article, ScholarlyDataset
from repro.ingest import run_ingest_sim
from repro.ingest.sim import delivery_diff
from repro.resilience import FaultPlan

pytestmark = pytest.mark.ingest


@pytest.fixture(scope="module")
def chaos_dataset():
    return generate_dataset(GeneratorConfig(
        num_articles=100, num_venues=5, num_authors=30,
        start_year=2000, end_year=2014, seed=21))


class TestContract:
    def test_fault_free_run_holds(self, chaos_dataset):
        sim = run_ingest_sim(chaos_dataset, records=40, seed=1)
        assert sim.status == "ok"
        assert not sim.crashed
        assert sim.contract_held
        assert sim.metrics["records_lost"] == 0
        assert sim.metrics["duplicates_applied"] == 0
        assert sim.metrics["bit_identical"] is True

    def test_everything_at_once_holds(self, chaos_dataset, tmp_path):
        sim = run_ingest_sim(
            chaos_dataset, records=80, seed=2,
            duplicate_every=7, mangle_every=11, cite_every=5,
            fault_plan=FaultPlan.of(
                "source:stall:10@0.001", "source:error:20",
                "parse:crash:30", "parse:crash:40x10", "ingest:crash:2",
                "partition:tear:0"),
            workdir=tmp_path / "sim")
        assert sim.status == "ok"
        assert sim.crashed and sim.resumed
        assert sim.contract_held, sim.render()
        assert sim.metrics["quarantined"] > 0  # mangled + poison
        assert sim.metrics["duplicates_skipped"] > 0
        assert sim.metrics["source_retries"] > 0
        assert sim.metrics["parse_crashes"] > 0


class TestGrading:
    def test_loss_and_duplication_do_not_cancel_out(self):
        # The chaos corpus misses article 3 but holds an extra article
        # 4: same article and citation counts, one loss, one duplicate.
        reference = ScholarlyDataset(name="reference")
        chaos = ScholarlyDataset(name="chaos")
        for dataset, extra in ((reference, 3), (chaos, 4)):
            dataset.add_article(Article(id=1, title="a", year=2000))
            dataset.add_article(Article(id=2, title="b", year=2001,
                                        references=(1,)))
            dataset.add_article(Article(id=extra, title="c", year=2001))
        assert delivery_diff(chaos, reference) == (1, 1)
        assert delivery_diff(reference, reference) == (0, 0)


class TestCrashResume:
    def test_mid_batch_kill_is_exactly_once(self, chaos_dataset):
        """Satellite: kill the worker mid-batch, resume from the
        journal, assert exactly-once application and a bit-identical
        final ranking."""
        sim = run_ingest_sim(chaos_dataset, records=60, seed=3,
                             duplicate_every=6,
                             fault_plan=FaultPlan.of("ingest:crash:1"))
        assert sim.crashed and sim.resumed
        # The resumed run replayed the journal tail...
        assert sim.resume_pipeline.records_replayed > 0
        # ...and exactly-once held: nothing lost, nothing applied twice,
        # final ranking identical to the fault-free single-batch run.
        assert sim.metrics["records_lost"] == 0
        assert sim.metrics["duplicates_applied"] == 0
        assert sim.metrics["bit_identical"] is True
        assert sim.contract_held, sim.render()

    def test_crash_before_first_checkpoint(self, chaos_dataset):
        # Batch ordinal 0: the worker dies before any rotation exists,
        # so resume re-bootstraps from the base corpus and replays the
        # journal from offset 0.
        sim = run_ingest_sim(chaos_dataset, records=40, seed=4,
                             fault_plan=FaultPlan.of("ingest:crash:0"))
        assert sim.crashed and sim.resumed
        assert sim.contract_held, sim.render()

    def test_lagged_checkpoint_replays_full_journal(self,
                                                    chaos_dataset):
        # Checkpoint every 3 batches, crash at ordinal 2: no rotation
        # ever landed, so the two applied batches are lost with the
        # worker and the resume re-bootstraps the base corpus and
        # replays the whole journal from offset 0. Every record still
        # lands exactly once — via replay or via fresh pull.
        sim = run_ingest_sim(chaos_dataset, records=60, seed=5,
                             fault_plan=FaultPlan.of("ingest:crash:2"),
                             checkpoint_batches=3)
        assert sim.crashed and sim.resumed
        assert sim.resume_pipeline.records_replayed > 0
        assert (sim.resume_pipeline.records_replayed
                + sim.resume_pipeline.records_pulled) == 60
        assert sim.contract_held, sim.render()

    def test_torn_journal_tail_is_absorbed(self, chaos_dataset):
        sim = run_ingest_sim(chaos_dataset, records=50, seed=6,
                             fault_plan=FaultPlan.of("ingest:crash:1",
                                                     "partition:tear:0"))
        assert sim.crashed and sim.resumed
        assert sim.metrics["torn_records_dropped"] >= 1
        assert sim.contract_held, sim.render()


class TestBackpressureUnderChaos:
    def test_tight_queue_stays_bounded(self, chaos_dataset):
        sim = run_ingest_sim(chaos_dataset, records=60, seed=7,
                             cite_every=4, min_batch=10, max_batch=10,
                             max_queue=12)
        assert sim.contract_held, sim.render()
        assert sim.metrics["backpressure_pauses"] > 0
        assert sim.metrics["peak_queue"] <= sim.metrics["queue_bound"]


class TestObservability:
    def test_metrics_and_spans_export(self, chaos_dataset):
        from repro.obs.handle import Observability

        obs = Observability("ingest-chaos")
        sim = run_ingest_sim(chaos_dataset, records=40, seed=8,
                             duplicate_every=9,
                             fault_plan=FaultPlan.of("ingest:crash:1"),
                             obs=obs)
        assert sim.contract_held, sim.render()
        exported = obs.metrics.to_prometheus()
        for name in ("repro_ingest_records_total",
                     "repro_ingest_duplicates_total",
                     "repro_ingest_batches_total",
                     "repro_ingest_commits_total",
                     "repro_ingest_queue_depth",
                     "repro_ingest_committed_offset",
                     "repro_ingest_visible_latency_records"):
            assert name in exported, name
        span_names = {span.name for span in obs.tracer.finished}
        assert {"ingest.run", "ingest.batch",
                "ingest.commit"} <= span_names


class TestPartitionedChaos:
    def test_acceptance_full_fault_plan_holds(self, chaos_dataset,
                                              tmp_path):
        # The acceptance run: K=4 with one stalled partition, two
        # partitions crashing at the same arrival seq with torn tails,
        # a duplicate storm straddling partitions, and a poison record
        # — with archival reclaiming segments while the chaos runs.
        sim = run_ingest_sim(
            chaos_dataset, records=100, seed=12,
            duplicate_every=6, mangle_every=13, cite_every=5,
            partitions=4,
            fault_plan=FaultPlan.of(
                "parse:crash:44x10", "partition:crash:0,30",
                "partition:crash:2,30", "partition:tear:0",
                "partition:tear:2", "partition:stall:1,15@0.001"),
            segment_records=8, compaction="archive",
            workdir=tmp_path / "sim")
        assert sim.status == "ok"
        assert sim.contract_held, sim.render()
        assert sim.metrics["records_lost"] == 0
        assert sim.metrics["duplicates_applied"] == 0
        assert sim.metrics["bit_identical"] is True
        assert sim.metrics["partitions"] == 4
        assert sim.metrics["worker_crashes"] == 2
        assert sim.metrics["segments_archived"] > 0

    def test_coordinator_crash_resumes_partitioned(self,
                                                   chaos_dataset,
                                                   tmp_path):
        # The coordinator itself dies mid-run (on top of a worker
        # tear): resume picks up all K journals and finishes with the
        # same corpus the cold oracle produces.
        sim = run_ingest_sim(
            chaos_dataset, records=80, seed=13,
            duplicate_every=7, partitions=3,
            fault_plan=FaultPlan.of("ingest:crash:1", "partition:tear:0"),
            workdir=tmp_path / "sim")
        assert sim.crashed and sim.resumed
        assert sim.contract_held, sim.render()
        assert sim.metrics["bit_identical"] is True

    def test_per_partition_metrics_exported(self, chaos_dataset):
        sim = run_ingest_sim(chaos_dataset, records=40, seed=14,
                             partitions=3)
        assert sim.contract_held, sim.render()
        for partition in range(3):
            assert f"p{partition}_committed_offset" in sim.metrics
            assert sim.metrics[f"p{partition}_worker_crashes"] == 0


class TestCli:
    def test_ingest_sim_command(self, tmp_path, capsys):
        json_path = tmp_path / "sim.json"
        report_path = tmp_path / "report.json"
        assert main(["ingest-sim", "--records", "40", "--seed", "1",
                     "--duplicate-every", "8", "--fault", "ingest:crash:1",
                     "--json", str(json_path),
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "delivery contract: HELD" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["contract_held"] is True
        assert payload["crashed"] is True
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["metrics"]["records_lost"] == 0

    def test_ingest_sim_exit_code_on_bad_dataset(self, tmp_path):
        # A sim that cannot even load its corpus fails loudly.
        bad_dataset = tmp_path / "corrupt.jsonl"
        bad_dataset.write_text("{not json\n", encoding="utf-8")
        assert main(["ingest-sim", str(bad_dataset)]) == 1

    def test_ingest_sim_partitioned_flags(self, tmp_path, capsys):
        json_path = tmp_path / "sim.json"
        assert main(["ingest-sim", "--records", "60", "--seed", "2",
                     "--partitions", "4",
                     "--fault", "partition:crash:0,20",
                     "--fault", "partition:tear:0",
                     "--fault", "partition:stall:1,10@0.01",
                     "--segment-records", "8",
                     "--compaction", "archive",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "delivery contract: HELD" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["contract_held"] is True
        assert payload["metrics"]["partitions"] == 4
        assert payload["metrics"]["worker_crashes"] == 1
        assert payload["metrics"]["segments_archived"] > 0

    def test_json_lists_the_faults_in_arming_order(self, tmp_path,
                                                   capsys):
        json_path = tmp_path / "sim.json"
        specs = ["source:error:5", "parse:crash:9x2", "ingest:crash:1",
                 "partition:tear:0"]
        argv = ["ingest-sim", "--records", "30", "--seed", "3",
                "--json", str(json_path)]
        for spec in specs:
            argv += ["--fault", spec]
        assert main(argv) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["faults"] == specs
        assert payload["crashed"] is True

    @pytest.mark.parametrize("spec", ["batch:crash:1", "shard:crash:0,1",
                                      "write:crash:3"])
    def test_fault_at_an_unconsulted_site_is_a_usage_error(self, spec,
                                                           capsys):
        with pytest.raises(SystemExit) as info:
            main(["ingest-sim", "--records", "20", "--fault", spec])
        assert info.value.code == 2
        assert spec in capsys.readouterr().err

    def test_ingest_sim_rejects_malformed_partition_fault(self):
        with pytest.raises(SystemExit):
            main(["ingest-sim", "--partitions", "2",
                  "--fault", "partition:crash:zero,ten"])

    def test_ingest_compact_command(self, tmp_path, capsys):
        from repro.ingest import IngestJournal

        with IngestJournal(tmp_path / "journal",
                           segment_records=4) as journal:
            for offset in range(10):
                journal.append({"kind": "article", "id": offset,
                                "year": 2020, "refs": []})
            journal.commit(8)
        json_path = tmp_path / "compact.json"
        assert main(["ingest-compact", str(tmp_path / "journal"),
                     "--retention", "archive",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "archived 2 segment(s)" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["segments_archived"] == 2
        assert payload["bytes_reclaimed"] > 0

    def test_ingest_compact_on_a_journal_root(self, tmp_path, capsys):
        from repro.ingest import IngestJournal

        root = tmp_path / "journal"
        for partition in range(2):
            with IngestJournal(root / f"partition-{partition:04d}",
                               segment_records=4) as journal:
                for offset in range(10):
                    journal.append({"kind": "article", "id": offset,
                                    "year": 2020, "refs": []})
                journal.commit(8)
        json_path = tmp_path / "compact.json"
        assert main(["ingest-compact", str(root),
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "partition-0000: archived 2 segment(s)" in out
        assert "partition-0001: archived 2 segment(s)" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["segments_archived"] == 4
        # Nothing but the partition directories lives in the root.
        assert sorted(path.name for path in root.iterdir()) == \
            ["partition-0000", "partition-0001"]

    def test_ingest_compact_on_missing_journal_fails(self, tmp_path):
        assert main(["ingest-compact",
                     str(tmp_path / "nope" / "journal")]) == 1

    def test_ingest_compact_on_a_journal_free_directory_fails(
            self, tmp_path, capsys):
        assert main(["ingest-compact", str(tmp_path)]) == 1
        assert "no journal at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
