"""The batch-faulted feed on the single-process tier.

The scenarios the old ``serve-sim`` told on a bare service, now run on
the one harness: ``run_load(num_shards=1)`` / ``repro serve-load
--shards 1`` with ``--fault batch:crash:B`` / ``--fault batch:nan:B``.
"""

import json

import pytest

from repro.cli import main
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.resilience import FaultPlan
from repro.serve import run_load

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def sim_dataset():
    config = GeneratorConfig(num_articles=300, num_venues=6,
                             num_authors=80, start_year=2000,
                             end_year=2010, seed=11)
    return generate_dataset(config)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-sim") / "ds.jsonl"
    assert main(["generate", str(path), "--articles", "300",
                 "--venues", "6", "--authors", "80", "--seed", "11"]) == 0
    return path


def run_single(dataset, **kwargs):
    return run_load(dataset, num_shards=1, batch_size=10, readers=1,
                    queries=12, **kwargs)


class TestRunSimulation:
    def test_fault_free_run_drains_and_stays_fresh(self, sim_dataset):
        report = run_single(sim_dataset, batches=3)
        assert report.status == "ok"
        assert report.health["status"] == "fresh"
        service = report.health["service"]
        assert service["epoch"] == 3
        assert service["batches_behind"] == 0
        assert report.quarantined == []
        assert report.queries_failed == 0
        assert report.merge_mismatches == 0
        assert [(t["phase"], t["status"]) for t in report.timeline] \
            == [("ingest", "published")] * 3

    def test_poison_and_crash_recover_through_breaker(self, sim_dataset):
        report = run_single(sim_dataset, batches=4,
                            fault_plan=FaultPlan.of("batch:nan:1",
                                                    "batch:crash:2"))
        # The poisoned batch is quarantined with a usable report...
        assert [record["index"] for record in report.quarantined] == [1]
        assert any("non-finite" in reason
                   for reason in report.quarantined[0]["reasons"])
        # ... the breaker opened mid-timeline ...
        assert any(t["breaker"] == "open" for t in report.timeline)
        # ... and the recovery loop drained the backlog: 3 of 4 batches
        # published (epoch 3), breaker closed, nothing left behind, and
        # the shard serves exactly what was published.
        service = report.health["service"]
        assert service["epoch"] == 3
        assert service["batches_behind"] == 0
        assert service["breaker"] == "closed"
        assert report.health["status"] == "fresh"
        # One recovery pump published batches 2 and 3 back to back, so
        # the board took them as one publish: bootstrap, batch 0, drain.
        assert report.board_epoch == 2
        assert report.merge_mismatches == 0
        assert report.status == "ok"
        recover_ticks = [t for t in report.timeline
                         if t["phase"] == "recover"]
        assert recover_ticks, "recovery never ticked"

    def test_render_and_json(self, sim_dataset):
        report = run_single(sim_dataset, batches=2)
        lines = report.render().splitlines()
        assert lines[1].startswith("# tick")
        assert "final health 'fresh'" in lines[-1]
        payload = json.loads(report.to_json())
        assert {"status", "error", "timeline", "health", "quarantined",
                "queries_total", "reads_shed"} <= set(payload)
        assert payload["status"] == "ok"
        assert payload["error"] is None
        assert len(payload["timeline"]) == 2


class TestCli:
    def test_serve_sim_prints_timeline(self, dataset_path, capsys):
        assert main(["serve-load", str(dataset_path), "--shards", "1",
                     "--batches", "2", "--batch-size", "10",
                     "--readers", "1", "--queries", "6"]) == 0
        out = capsys.readouterr().out
        assert "# serve-load: 1 shard(s)" in out
        assert "# tick" in out
        assert "ingest" in out

    def test_serve_sim_faulted_run_writes_json_artifact(
            self, dataset_path, tmp_path, capsys):
        artifact = tmp_path / "timeline.json"
        assert main(["serve-load", str(dataset_path), "--shards", "1",
                     "--batches", "3", "--batch-size", "10",
                     "--readers", "1", "--queries", "6",
                     "--fault", "batch:nan:1", "--json",
                     str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "quarantined batch 1" in out
        payload = json.loads(artifact.read_text())
        assert [r["index"] for r in payload["quarantined"]] == [1]
        assert payload["health"]["service"]["batches_behind"] == 0

    def test_serve_sim_subcommand_is_gone(self, dataset_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve-sim", str(dataset_path)])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
