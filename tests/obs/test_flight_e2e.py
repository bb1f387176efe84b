"""End-to-end flight-recorder acceptance: one trace, record to served.

The tentpole claim of the observability layer is that a single trace
covers the whole data path — pull → parse → apply → publish → shard
refresh → read — and that when something breaks mid-run, the SLO
monitor breaches and the flight recorder freezes a bundle that renders
offline. This suite wires the real components together (no mocks):

* a K=1 :class:`PartitionedIngestPipeline` whose ``sink`` is a sharded
  :class:`ShardedGateway` wrapping the *same* :class:`LiveRanker`,
* a :class:`FaultPlan` that kills one shard at board epoch 1,
* an :class:`SLOMonitor` + :class:`FlightRecorder` pair,

and then checks the acceptance criteria directly, including that the
final fixed point is bit-identical with observability on or off.
"""

import pytest

from repro.core.model import ArticleRanker, RankerConfig
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.engine.live import LiveRanker
from repro.ingest.coalescer import Coalescer
from repro.ingest.partition import PartitionedIngestPipeline
from repro.ingest.source import SyntheticSource
from repro.obs import FlightRecorder, Observability, SLOMonitor
from repro.obs.metrics import FRESHNESS_METRIC
from repro.resilience.faults import FaultPlan
from repro.serve.gateway import ShardedGateway

pytestmark = [pytest.mark.obs, pytest.mark.slo, pytest.mark.serve]

CRASHED_SHARD = 1

#: span names the single record-to-served trace must cross.
EXPECTED_SPANS = {
    "ingest.run", "ingest.batch",       # pipeline
    "incremental.apply",                # engine
    "serve.publish",                    # service guardrailed swap
    "gateway.publish", "gateway.refresh",  # board + shard scatter
    "gateway.read",                     # scatter-gather read
}


class FakeWall:
    """Deterministic wall clock: +5 ms per look."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        self.now += 0.005
        return self.now


def _dataset():
    return generate_dataset(GeneratorConfig(
        num_articles=80, num_venues=5, num_authors=30,
        start_year=2000, end_year=2012, seed=7))


def _run_chaos(tmp_path, obs, wall=None):
    """records → pipeline → gateway(sink) with shard 1 crash-faulted.

    Returns ``(gateway_top_entries, final_dataset, health)`` after the
    run; the gateway is closed before returning.
    """
    dataset = _dataset()
    plan = FaultPlan(seed=0)
    plan.crash_shard(CRASHED_SHARD, epoch=1)
    live = LiveRanker(dataset, obs=obs)
    source = SyntheticSource(sorted(dataset.articles), 36, seed=3,
                             cite_every=5)
    kwargs = {} if wall is None else {"wall_clock": wall}
    with ShardedGateway(live, 2, mode="inline", obs=obs,
                        fault_plan=plan, auto_respawn=False,
                        trace_reads=obs is not None) as gateway:
        pipeline = PartitionedIngestPipeline(
            live, source, tmp_path / "journal", 1,
            coalescer=Coalescer(min_batch=8, max_batch=16),
            sink=gateway, obs=obs, **kwargs)
        pipeline.run()
        top = gateway.top_sync(10).entries
        health = gateway.health()
        return top, live.dataset, health


class TestFlightRecorderEndToEnd:
    @pytest.fixture()
    def flight(self, tmp_path):
        recorder = FlightRecorder(bundle_dir=tmp_path / "incidents")
        obs = Observability("flight-e2e", recorder=recorder)
        wall = FakeWall()
        top, dataset, health = _run_chaos(tmp_path, obs, wall=wall)
        monitor = SLOMonitor(obs.metrics, recorder=recorder)
        recorder.record_health(health)
        statuses = monitor.tick()
        return dict(obs=obs, recorder=recorder, monitor=monitor,
                    top=top, dataset=dataset, health=health,
                    statuses=statuses)

    def test_one_trace_covers_record_to_served(self, flight):
        spans = flight["obs"].tracer.export()
        trace_ids = {span["trace_id"] for span in spans}
        assert len(trace_ids) == 1
        names = {span["name"] for span in spans}
        assert EXPECTED_SPANS <= names
        # the read span really nests under the one trace, and the
        # ingest root exists exactly once
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots].count("ingest.run") == 1

    def test_batches_carry_provenance_trace_id(self, flight):
        # the trace id stamped on batch provenance matches the tracer's
        trace_id = flight["obs"].tracer.trace_id
        batch_spans = [s for s in flight["obs"].tracer.export()
                       if s["name"] == "ingest.batch"]
        assert batch_spans
        assert all(s["trace_id"] == trace_id for s in batch_spans)

    def test_served_freshness_histogram_populated(self, flight):
        snapshot = flight["obs"].metrics.snapshot()
        fresh = snapshot[FRESHNESS_METRIC]
        stages = {entry["labels"]["stage"]: entry["count"]
                  for entry in fresh["values"]}
        # sink path: batches that published observe stage="served"
        assert stages.get("served", 0) > 0
        # stage="served" is measured entirely on the injected wall
        # clock (+5 ms per look), so every observation is tiny and the
        # run is deterministic
        served = next(entry for entry in fresh["values"]
                      if entry["labels"]["stage"] == "served")
        assert served["sum"] < 5.0

    def test_shard_fault_breaches_slo_and_captures_bundle(self, flight):
        health = flight["health"]
        assert list(health["degraded_shards"]) == [CRASHED_SHARD]
        breaching = {s.name for s in flight["statuses"] if s.breaching}
        assert "gateway-degradation" in breaching
        recorder = flight["recorder"]
        assert len(recorder.captures) >= 1
        bundle = recorder.captures[-1]
        assert bundle.trigger == "slo:gateway-degradation"
        assert bundle.slo and any(s["breaching"] for s in bundle.slo)
        # the bundle is self-contained: spans + health made it in
        assert {s["name"] for s in bundle.spans} & EXPECTED_SPANS
        assert bundle.health_timeline[-1]["health"]["degraded_shards"] \
            == [CRASHED_SHARD]
        assert recorder.saved_paths and recorder.saved_paths[0].exists()

    def test_bundle_renders_offline_via_cli(self, flight, capsys):
        from repro.cli import main

        path = flight["recorder"].saved_paths[0]
        assert main(["trace", "--bundle", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incident: slo:gateway-degradation" in out
        assert "ingest.run" in out and "gateway.refresh" in out

        assert main(["watch", "--bundle", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gateway-degradation" in out and "BREACH" in out

    def test_fixed_point_bit_identical_with_obs_off(self, flight,
                                                    tmp_path):
        top_off, dataset_off, _ = _run_chaos(tmp_path / "off", None)
        assert flight["top"] == top_off
        ranking_on = ArticleRanker(RankerConfig()).rank(
            flight["dataset"])
        ranking_off = ArticleRanker(RankerConfig()).rank(dataset_off)
        assert ranking_on.by_id() == ranking_off.by_id()
