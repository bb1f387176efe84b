"""serve-load: the one serve harness (readers vs a faultable feed) + CLI.

The single-process, batch-faulted scenarios live in ``test_sim.py``.
"""

import json

import pytest

from repro.cli import main
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.serve import run_load

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def load_dataset():
    config = GeneratorConfig(num_articles=150, num_venues=5,
                             num_authors=40, start_year=2000,
                             end_year=2010, seed=17)
    return generate_dataset(config)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-load") / "ds.jsonl"
    assert main(["generate", str(path), "--articles", "150",
                 "--venues", "5", "--authors", "40", "--seed", "17"]) == 0
    return path


class TestRunLoad:
    def test_clean_run_is_bit_exact_and_healthy(self, load_dataset):
        report = run_load(load_dataset, num_shards=3, batches=3,
                          batch_size=10, readers=2, queries=15)
        assert report.status == "ok"
        assert report.merge_mismatches == 0
        assert report.queries_failed == 0
        assert report.shards_missing == 0
        assert report.queries_total > 0
        assert report.board_epoch == 3
        assert report.health["status"] == "fresh"
        assert report.qps > 0
        assert report.p99_ms >= report.p50_ms >= 0

    def test_faulted_run_degrades_then_repairs(self, load_dataset):
        # Poison the *final* publish: a poisoned slice is retried on
        # the next clean publish, so only a last-epoch fault is still
        # visible when post-run health is sampled.
        report = run_load(load_dataset, num_shards=2, batches=2,
                          batch_size=10, readers=1, queries=8,
                          poison_shard=1, fault_epoch=2)
        assert report.status == "ok"
        # The fault was visible while live ...
        assert report.degraded_during == [1]
        # ... and repair() restored parity: nothing missing, bit-exact.
        assert report.shards_missing == 0
        assert report.merge_mismatches == 0
        assert report.health["status"] == "fresh"

    def test_batch_and_shard_faults_in_one_run(self, load_dataset):
        # Batch 1 is quarantined (no publish), so the board reaches
        # epoch 2 on batch 2 — where shard 1's slice is poisoned.
        report = run_load(load_dataset, num_shards=2, batches=3,
                          batch_size=10, readers=1, queries=8,
                          poison_batch=1, poison_shard=1, fault_epoch=2)
        assert report.status == "ok"
        assert [t["status"] for t in report.timeline] \
            == ["published", "quarantined", "published"]
        assert [r["index"] for r in report.quarantined] == [1]
        assert report.degraded_during == [1]
        assert report.board_epoch == 2
        assert report.shards_missing == 0
        assert report.merge_mismatches == 0
        assert report.health["status"] == "fresh"

    def test_to_report_carries_gated_metrics(self, load_dataset):
        report = run_load(load_dataset, num_shards=2, batches=1,
                          batch_size=8, readers=1, queries=5)
        run_report = report.to_report()
        metrics = run_report.metrics
        for key in ("num_shards", "merge_mismatches", "queries_failed",
                    "shards_missing", "board_epoch", "queries_total",
                    "p50_ms", "p99_ms", "status"):
            assert key in metrics, key
        assert metrics["merge_mismatches"] == 0
        assert metrics["status"] == "ok"

    def test_render_mentions_parity_and_qps(self, load_dataset):
        report = run_load(load_dataset, num_shards=2, batches=1,
                          batch_size=8, readers=1, queries=5)
        text = report.render()
        assert "qps" in text
        assert "mismatch(es)" in text
        assert "# run" not in text  # clean runs omit the status line


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
        run_report = tmp_path / "report.json"
        assert main(["serve-load", str(dataset_path), "--shards", "2",
                     "--batches", "2", "--batch-size", "8",
                     "--readers", "1", "--queries", "5",
                     "--crash-shard", "1",
                     "--json", str(artifact),
                     "--report", str(run_report)]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["status"] == "ok"
        assert payload["degraded_during"] == [1]
        assert payload["shards_missing"] == 0
        gated = json.loads(run_report.read_text())
        assert gated["metrics"]["merge_mismatches"] == 0
