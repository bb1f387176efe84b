"""benchmarks/compare.py tests: report diffing and the regression gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parents[2] / "benchmarks" / "compare.py")
compare = importlib.util.module_from_spec(_SPEC)
# Registered before exec: dataclass decorators look the module up.
sys.modules[_SPEC.name] = compare
_SPEC.loader.exec_module(compare)

pytestmark = pytest.mark.obs


def _report(timings=None, metrics=None, name="run"):
    payload = {"format_version": 2, "name": name, "meta": {}}
    if timings:
        payload["timings"] = timings
    if metrics:
        payload["metrics"] = metrics
    return payload


class TestCompareReports:
    def test_regression_beyond_threshold_flagged(self):
        comparison = compare.compare_reports(
            _report(timings={"solve": 1.0, "io": 0.5}),
            _report(timings={"solve": 1.3, "io": 0.55}))
        assert not comparison.ok
        [regression] = comparison.regressions
        assert regression.key == "timings/solve"
        assert regression.change == pytest.approx(0.3)
        [steady] = comparison.unchanged
        assert steady.key == "timings/io"

    def test_improvement_is_not_fatal(self):
        comparison = compare.compare_reports(
            _report(timings={"solve": 1.0}),
            _report(timings={"solve": 0.5}))
        assert comparison.ok
        assert [d.key for d in comparison.improvements] == \
            ["timings/solve"]

    def test_sub_millisecond_stages_skipped(self):
        comparison = compare.compare_reports(
            _report(timings={"tiny": 1e-5}),
            _report(timings={"tiny": 9e-5}))  # 9x but pure noise
        assert comparison.ok
        assert comparison.unchanged == []

    def test_stages_only_one_side_measured_ignored(self):
        comparison = compare.compare_reports(
            _report(timings={"old_stage": 1.0}),
            _report(timings={"new_stage": 1.0}))
        assert comparison.ok
        assert comparison.unchanged == []

    def test_perf_artifact_records_matched_by_label_position(self):
        baseline = _report(metrics={"records": [
            {"label": "scaling", "num_nodes": 10, "seconds": 1.0},
            {"label": "scaling", "num_nodes": 20, "seconds": 2.0}]})
        candidate = _report(metrics={"records": [
            {"label": "scaling", "num_nodes": 10, "seconds": 1.0},
            {"label": "scaling", "num_nodes": 20, "seconds": 3.0}]})
        comparison = compare.compare_reports(baseline, candidate)
        [regression] = comparison.regressions
        assert regression.key == "records/scaling[1].seconds"
        assert regression.change == pytest.approx(0.5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            compare.compare_reports(_report(), _report(), threshold=0)


class TestCommandLine:
    def test_exit_codes_and_rendering(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_report(timings={"solve": 1.0},
                                           name="base")))
        cand.write_text(json.dumps(_report(timings={"solve": 2.0},
                                           name="cand")))
        assert compare.main([str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "timings/solve" in out
        assert "base -> cand" in out
        # Same file against itself: clean exit.
        assert compare.main([str(base), str(base)]) == 0

    def test_custom_threshold(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_report(timings={"solve": 1.0})))
        cand.write_text(json.dumps(_report(timings={"solve": 1.3})))
        assert compare.main([str(base), str(cand),
                             "--threshold", "0.5"]) == 0


class TestHardPrefix:
    def test_non_matching_regressions_are_soft(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_report(
            timings={"solve": 1.0}, metrics={"bytes_shipped": 1000})))
        cand.write_text(json.dumps(_report(
            timings={"solve": 5.0}, metrics={"bytes_shipped": 1000})))
        # Timing regressed 5x but only bytes are gated: soft, exit 0.
        assert compare.main([str(base), str(cand),
                             "--hard-prefix", "metrics/bytes_"]) == 0
        out = capsys.readouterr().out
        assert "regr (soft)" in out
        assert "REGRESSION" not in out

    def test_matching_regressions_stay_fatal(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_report(
            metrics={"bytes_shipped": 1000})))
        cand.write_text(json.dumps(_report(
            metrics={"bytes_shipped": 5000})))
        assert compare.main([str(base), str(cand),
                             "--hard-prefix", "metrics/bytes_"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_renamed_hard_key_is_fatal(self, tmp_path, capsys):
        # The candidate reports 7 mismatches under a new name: the gate
        # on the old name must not pass just because it compares nothing.
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_report(
            metrics={"merge_mismatches": 0, "queries_total": 100})))
        cand.write_text(json.dumps(_report(
            metrics={"merge_mismatch_count": 7, "queries_total": 100})))
        assert compare.main([str(base), str(cand), "--hard-prefix",
                             "metrics/merge_mismatches"]) == 1
        err = capsys.readouterr().err
        assert "metrics/merge_mismatches (missing from the candidate)" \
            in err
        assert "metrics/merge_mismatches (matches no shared key)" in err
        # A prefix that matches nothing on either side gates nothing.
        assert compare.ungated(_report(metrics={"a": 1}),
                               _report(metrics={"a": 1}),
                               ["metrics/b"]) == \
            ["metrics/b (matches no shared key)"]
        assert compare.ungated(_report(metrics={"a": 1}),
                               _report(metrics={"a": 1}),
                               ["metrics/a"]) == []

    def test_split_regressions_without_prefixes_all_hard(self):
        comparison = compare.compare_reports(
            _report(timings={"solve": 1.0}),
            _report(timings={"solve": 2.0}))
        hard, soft = compare.split_regressions(comparison, None)
        assert [d.key for d in hard] == ["timings/solve"]
        assert soft == []


class TestBenchArtifactStamping:
    def test_bench_artifacts_carry_version_and_sha(self, tmp_path):
        from repro.bench.runner import PerfArtifact
        from repro.obs import REPORT_FORMAT_VERSION

        artifact = PerfArtifact("E0")
        artifact.record("scaling", num_nodes=10, seconds=0.5)
        payload = json.loads(artifact.save(tmp_path).read_text())
        assert payload["format_version"] == REPORT_FORMAT_VERSION
        assert "git_sha" in payload["meta"]
