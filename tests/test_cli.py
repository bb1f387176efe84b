"""CLI end-to-end tests (drive main() in-process)."""

import pytest

from repro.cli import main
from repro.data.io import load_dataset_jsonl


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "ds.jsonl"
    code = main(["generate", str(path), "--articles", "500",
                 "--venues", "8", "--authors", "100", "--seed", "3"])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_dataset(self, dataset_path):
        dataset = load_dataset_jsonl(dataset_path)
        assert dataset.num_articles == 500
        assert dataset.num_venues == 8

    def test_reports_what_it_wrote(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main(["generate", str(path), "--articles", "100",
                     "--venues", "5", "--authors", "30"]) == 0
        assert "wrote 100 articles" in capsys.readouterr().out


class TestRank:
    def test_prints_top(self, dataset_path, capsys):
        assert main(["rank", str(dataset_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines()
                 if line and not line.startswith("#")]
        assert len(lines) == 3

    def test_custom_weights(self, dataset_path, capsys):
        assert main(["rank", str(dataset_path), "--top", "2",
                     "--weights", "1,0,0"]) == 0

    def test_bad_weights_error(self, dataset_path, capsys):
        assert main(["rank", str(dataset_path),
                     "--weights", "oops"]) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_prints_stats(self, dataset_path, capsys):
        assert main(["stats", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "|V|: 500" in out
        assert "venues: 8" in out


class TestEvaluate:
    def test_prints_metrics(self, dataset_path, capsys):
        assert main(["evaluate", str(dataset_path),
                     "--pairs", "100"]) == 0
        out = capsys.readouterr().out
        assert "pairwise:" in out
        assert "spearman:" in out


class TestProfile:
    def test_prints_breakdown(self, dataset_path, capsys):
        assert main(["profile", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "# profile:" in out
        assert "stage breakdown" in out
        assert "iteration(s)" in out
        assert "residual trajectory:" in out

    @pytest.mark.parametrize("method", ["power", "levels"])
    def test_solver_choice(self, dataset_path, method, capsys):
        assert main(["profile", str(dataset_path),
                     "--method", method]) == 0
        assert f"solver={method}" in capsys.readouterr().out

    def test_json_report(self, dataset_path, tmp_path, capsys):
        import json

        from repro.obs import REPORT_FORMAT_VERSION

        out_path = tmp_path / "profile.json"
        assert main(["profile", str(dataset_path), "--method", "levels",
                     "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["format_version"] == REPORT_FORMAT_VERSION
        assert report["telemetry"]["solver"] == "levels"
        assert report["telemetry"]["iterations"] >= 1
        assert report["metrics"]["num_articles"] == 500
        assert "timings" in report

    def test_failed_run_still_writes_report(self, tmp_path, capsys):
        import json

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_path = tmp_path / "failed.json"
        assert main(["profile", str(empty),
                     "--json", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "run failed" in err
        report = json.loads(out_path.read_text())
        assert report["metrics"]["status"] == "failed"
        assert "empty" in report["metrics"]["error"]

    def test_failed_run_without_json_writes_nothing(self, tmp_path,
                                                    capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.glob("*.json")) == []


@pytest.mark.obs
class TestTrace:
    def test_model_trace_renders_span_tree(self, dataset_path, capsys):
        assert main(["trace", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "# trace:" in out
        assert "* rank" in out
        assert "critical path" in out
        assert "twpr.solve" in out

    def test_parallel_trace_with_crash(self, dataset_path, tmp_path,
                                       capsys):
        import json

        report_path = tmp_path / "trace.json"
        assert main(["trace", str(dataset_path), "--engine", "parallel",
                     "--workers", "2", "--fault", "worker:crash:1,2",
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "parallel.run" in out
        assert "worker.solve" in out
        assert "recovery.respawn" in out
        report = json.loads(report_path.read_text())
        names = {span["name"] for span in report["spans"]}
        assert {"parallel.run", "superstep", "worker.solve"} <= names
        assert len({span["trace_id"] for span in report["spans"]}) == 1

    def test_bad_crash_spec_errors(self, dataset_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["trace", str(dataset_path), "--engine", "parallel",
                  "--fault", "worker:crash:nope"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "'worker:crash:nope'" in err

    def test_fault_at_an_unconsulted_site_is_a_usage_error(
            self, dataset_path, capsys):
        # The model engine consults no fault site: a worker crash would
        # otherwise run fault-free and exit 0.
        with pytest.raises(SystemExit) as info:
            main(["trace", str(dataset_path),
                  "--fault", "worker:crash:1,2"])
        assert info.value.code == 2
        assert "worker:crash:1,2" in capsys.readouterr().err


@pytest.mark.obs
class TestMetrics:
    def test_prometheus_to_stdout(self, dataset_path, capsys):
        assert main(["metrics", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_stage_seconds histogram" in out
        assert 'repro_stage_seconds_bucket{stage="build_graph",le="+Inf"}' \
            in out
        assert "repro_stage_seconds_count" in out

    def test_json_to_file(self, dataset_path, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        assert main(["metrics", str(dataset_path), "--format", "json",
                     "--output", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        snapshot = json.loads(out_path.read_text())
        assert snapshot["repro_stage_seconds"]["kind"] == "histogram"


class TestResume:
    @pytest.fixture()
    def checkpoint_root(self, tmp_path):
        from repro.data.generator import GeneratorConfig, generate_dataset
        from repro.engine.live import LiveRanker
        from repro.engine.updates import yearly_updates

        dataset = generate_dataset(GeneratorConfig(num_articles=300,
                                                   seed=7))
        base, batches = yearly_updates(dataset, from_year=2008)
        root = tmp_path / "ckpt"
        live = LiveRanker(base, checkpoint_dir=root, checkpoint_every=1,
                          checkpoint_keep=3)
        for batch in batches[:3]:
            live.apply(batch)
        return root

    def test_reports_health_and_top(self, checkpoint_root, capsys):
        assert main(["resume", str(checkpoint_root), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "ckpt-00000003: ok" in out
        assert "resumed from ckpt-00000003" in out
        assert "sha256" in out
        assert "# top 3 of" in out
        ranked = [line for line in out.splitlines()
                  if line.lstrip()[:1].isdigit() and "." in line]
        assert len(ranked) == 3

    def test_flags_corrupt_rotation_and_falls_back(self,
                                                   checkpoint_root,
                                                   capsys):
        newest = checkpoint_root / "ckpt-00000003"
        with open(newest / "state.npz", "r+b") as handle:
            handle.truncate(16)
        assert main(["resume", str(checkpoint_root)]) == 0
        out = capsys.readouterr().out
        assert "ckpt-00000003: CORRUPT" in out
        assert "resumed from ckpt-00000002" in out

    def test_synthetic_batches_continue_the_session(self,
                                                    checkpoint_root,
                                                    capsys):
        assert main(["resume", str(checkpoint_root), "--batches", "2",
                     "--batch-size", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "applied batch 4" in out
        assert "applied batch 5" in out
        # Auto-checkpointing resumed too (checkpoint_every was 1).
        assert (checkpoint_root / "ckpt-00000005").is_dir()

    def test_missing_checkpoint_errors(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err
