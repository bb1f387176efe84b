"""CLI tests for the operator observability surface.

``repro watch`` (live ticks and bundle triage), ``repro trace
--bundle`` / ``repro profile --bundle`` offline rendering, and the
``--bundle-dir`` plumbing on the chaos harnesses.
"""

import pytest

from repro.cli import main
from repro.obs import FlightRecorder, Observability

pytestmark = [pytest.mark.obs, pytest.mark.slo]


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-obs") / "ds.jsonl"
    assert main(["generate", str(path), "--articles", "150",
                 "--venues", "6", "--authors", "40", "--seed", "9"]) == 0
    return path


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    """A small but fully populated incident bundle on disk."""
    recorder = FlightRecorder()
    obs = Observability("cli-test", recorder=recorder)
    with obs.span("ingest.run"):
        with obs.span("ingest.batch", articles=3):
            obs.event("ingest.quarantine", offset=7, error="bad id")
    obs.metrics.counter("repro_gateway_queries_total").inc(10)
    recorder.record_health({"status": "degraded",
                            "degraded_shards": [1]})
    bundle = recorder.capture(
        "slo:gateway-degradation",
        slo_statuses=[{"name": "gateway-degradation",
                       "kind": "gauge_max", "objective": 0.99,
                       "breaching": True, "events": 0, "value": 1.0,
                       "burn_rates": {"60.0": "inf"}, "detail": ""}])
    return bundle.save(tmp_path_factory.mktemp("bundles")
                       / "incident.json")


class TestWatch:
    def test_once_live_tick(self, dataset_path, capsys):
        assert main(["watch", str(dataset_path), "--once",
                     "--batch-size", "8", "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "watch tick 1/1" in out
        assert "gateway-degradation" in out  # the SLO table rendered
        assert "freshness:" in out

    def test_bundle_triage_mode(self, bundle_path, capsys):
        assert main(["watch", "--bundle", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "incident: slo:gateway-degradation" in out
        assert "BREACH" in out

    def test_requires_dataset_or_bundle(self, capsys):
        assert main(["watch"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOfflineBundleRendering:
    def test_trace_bundle(self, bundle_path, capsys):
        assert main(["trace", "--bundle", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "incident: slo:gateway-degradation" in out
        assert "ingest.run" in out and "ingest.batch" in out
        assert "· ingest.quarantine" in out

    def test_profile_bundle(self, bundle_path, capsys):
        assert main(["profile", "--bundle", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "repro_gateway_queries_total" in out
        assert "BREACH" in out

    def test_missing_bundle_is_clean_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        for command in ("trace", "profile", "watch"):
            assert main([command, "--bundle", missing]) == 1
            assert "error:" in capsys.readouterr().err


class TestBundleDirPlumbing:
    def test_ingest_sim_writes_crash_bundle(self, tmp_path, capsys):
        bundles = tmp_path / "incidents"
        assert main(["ingest-sim", "--records", "40", "--seed", "2",
                     "--fault", "ingest:crash:1",
                     "--bundle-dir", str(bundles)]) == 0
        saved = sorted(bundles.glob("incident-*.json"))
        assert saved
        assert main(["trace", "--bundle", str(saved[0])]) == 0
        out = capsys.readouterr().out
        assert "incident: ingest.crash" in out

    def test_serve_load_writes_breach_bundle(self, dataset_path,
                                             tmp_path, capsys):
        bundles = tmp_path / "incidents"
        assert main(["serve-load", str(dataset_path), "--shards", "2",
                     "--batches", "2", "--readers", "2",
                     "--queries", "5", "--fault", "shard:crash:1,1",
                     "--bundle-dir", str(bundles)]) == 0
        out = capsys.readouterr().out
        assert "incidents    1 bundle(s)" in out
        assert sorted(bundles.glob("incident-*.json"))
