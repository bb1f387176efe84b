"""serve-load: the drill with an arrival feed (readers vs a faultable
feed on K shards) + CLI.

The single-process, batch-faulted scenarios live in ``test_sim.py``.
"""

import json

import pytest

from repro.cli import main
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.drill import ArrivalFeed, render, run_drill
from repro.resilience import FaultPlan

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def load_dataset():
    config = GeneratorConfig(num_articles=150, num_venues=5,
                             num_authors=40, start_year=2000,
                             end_year=2010, seed=17)
    return generate_dataset(config)


def run_load(dataset, *, num_shards, batches, batch_size, readers,
             queries, fault_plan=None):
    """The serve-load drill; returns its RunReport."""
    return run_drill(dataset, ArrivalFeed(batches=batches,
                                          batch_size=batch_size,
                                          shards=num_shards),
                     readers=readers, queries=queries,
                     fault_plan=fault_plan)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-load") / "ds.jsonl"
    assert main(["generate", str(path), "--articles", "150",
                 "--venues", "5", "--authors", "40", "--seed", "17"]) == 0
    return path


class TestRunLoad:
    def test_clean_run_is_bit_exact_and_healthy(self, load_dataset):
        report = run_load(load_dataset, num_shards=3, batches=3,
                          batch_size=10, readers=2, queries=15).metrics
        assert report["status"] == "ok"
        assert report["merge_mismatches"] == 0
        assert report["queries_failed"] == 0
        assert report["shards_missing"] == 0
        assert report["queries_total"] == 30
        assert report["board_epoch"] == 3
        assert report["health"]["status"] == "fresh"
        assert report["qps"] > 0
        # 30 samples leave ten beyond p66.7, not beyond p99.
        assert report["tail_pct"] == pytest.approx(100 * (1 - 10 / 30))
        assert report["tail_ms"] >= report["p50_ms"] >= 0
        # The cold-oracle grade: every batch served, none twice.
        assert report["records_lost"] == 0
        assert report["duplicates_applied"] == 0
        assert report["bit_identical"] == 1
        assert report["contract_held"] == 1

    def test_faulted_run_degrades_then_repairs(self, load_dataset):
        # Poison the *final* publish: a poisoned slice is retried on
        # the next clean publish, so only a last-epoch fault is still
        # visible when post-run health is sampled.
        report = run_load(load_dataset, num_shards=2, batches=2,
                          batch_size=10, readers=1, queries=8,
                          fault_plan=FaultPlan.of("shard:poison:1,2")
                          ).metrics
        assert report["status"] == "ok"
        # The fault was visible while live ...
        assert report["degraded_during"] == [1]
        # ... and repair() restored parity: nothing missing, bit-exact.
        assert report["shards_missing"] == 0
        assert report["merge_mismatches"] == 0
        assert report["health"]["status"] == "fresh"

    def test_batch_and_shard_faults_in_one_run(self, load_dataset):
        # Batch 1 is quarantined (no publish), so the board reaches
        # epoch 2 on batch 2 — where shard 1's slice is poisoned.
        report = run_load(load_dataset, num_shards=2, batches=3,
                          batch_size=10, readers=1, queries=8,
                          fault_plan=FaultPlan.of("batch:nan:1",
                                                  "shard:poison:1,2")
                          ).metrics
        assert report["status"] == "ok"
        assert [t["status"] for t in report["timeline"]] \
            == ["published", "quarantined", "published"]
        assert [r["index"] for r in report["quarantined_batches"]] == [1]
        assert report["degraded_during"] == [1]
        assert report["board_epoch"] == 2
        assert report["shards_missing"] == 0
        assert report["merge_mismatches"] == 0
        assert report["health"]["status"] == "fresh"
        # The quarantined batch is accounted loss, not silent loss.
        assert report["records_lost"] == 0
        assert report["contract_held"] == 1

    def test_to_report_carries_gated_metrics(self, load_dataset):
        run_report = run_load(load_dataset, num_shards=2, batches=1,
                              batch_size=8, readers=1, queries=5)
        metrics = run_report.metrics
        for key in ("num_shards", "merge_mismatches", "queries_failed",
                    "shards_missing", "board_epoch", "queries_total",
                    "p50_ms", "tail_ms", "tail_pct", "status"):
            assert key in metrics, key
        assert metrics["merge_mismatches"] == 0
        assert metrics["status"] == "ok"
        # The artifact is the RunReport schema benchmarks/compare.py
        # gates: it round-trips through save/load.
        saved = json.loads(run_report.to_json())
        assert saved["format_version"] == 2
        assert saved["metrics"]["merge_mismatches"] == 0

    def test_render_mentions_parity_and_qps(self, load_dataset):
        report = run_load(load_dataset, num_shards=2, batches=1,
                          batch_size=8, readers=1, queries=5)
        text = render(report)
        assert "qps" in text
        assert "mismatch(es)" in text
        assert "p50" in text and "of 5 sample(s)" in text
        assert "# run" not in text  # clean runs omit the status line
        assert text.endswith("# delivery contract: HELD")


class TestCli:
    def test_serve_load_prints_report(self, dataset_path, capsys):
        assert main(["serve-load", str(dataset_path), "--shards", "2",
                     "--batches", "2", "--batch-size", "8",
                     "--readers", "1", "--queries", "5"]) == 0
        out = capsys.readouterr().out
        assert "# serve-load:" in out
        assert "throughput" in out

    def test_serve_load_writes_artifacts(self, dataset_path, tmp_path,
                                         capsys):
        artifact = tmp_path / "load.json"
        assert main(["serve-load", str(dataset_path), "--shards", "2",
                     "--batches", "2", "--batch-size", "8",
                     "--readers", "1", "--queries", "5",
                     "--fault", "shard:crash:1,1",
                     "--json", str(artifact)]) == 0
        capsys.readouterr()
        # One artifact: the RunReport that compare.py gates.
        payload = json.loads(artifact.read_text())["metrics"]
        assert payload["status"] == "ok"
        assert payload["faults"] == ["shard:crash:1,1"]
        assert payload["degraded_during"] == [1]
        assert payload["shards_missing"] == 0
        assert payload["merge_mismatches"] == 0

    def test_json_lists_the_faults_in_arming_order(self, dataset_path,
                                                   tmp_path, capsys):
        artifact = tmp_path / "load.json"
        specs = ["shard:poison:1,2", "batch:nan:0", "batch:crash:1x2"]
        argv = ["serve-load", str(dataset_path), "--shards", "2",
                "--batches", "2", "--batch-size", "8", "--readers", "1",
                "--queries", "3", "--json", str(artifact)]
        for spec in specs:
            argv += ["--fault", spec]
        main(argv)
        capsys.readouterr()
        assert json.loads(artifact.read_text())["metrics"]["faults"] \
            == specs

    def test_report_flag_is_gone(self, dataset_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve-load", str(dataset_path),
                  "--report", str(tmp_path / "r.json")])
        assert info.value.code == 2
        assert "--report" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["worker:crash:0,1",
                                      "ingest:crash:1",
                                      "partition:tear:0"])
    def test_fault_at_an_unconsulted_site_is_a_usage_error(
            self, dataset_path, capsys, spec):
        with pytest.raises(SystemExit) as info:
            main(["serve-load", str(dataset_path), "--fault", spec])
        assert info.value.code == 2
        assert spec in capsys.readouterr().err
