"""The tentpole acceptance scenario: one trace across processes.

A traced ``ParallelBlockEngine`` run with >= 2 real worker processes
and one injected crash must produce a SINGLE trace containing the
coordinator's spans, every worker's solve spans (shipped back across
the process boundary), and the recovery spans — all with correct parent
links — while the fixed point stays bit-identical to an untraced run.
"""

import numpy as np
import pytest

from repro.obs import Observability, critical_path, render_trace
from repro.engine.parallel import ParallelBlockEngine
from repro.graph.partition import range_partition
from repro.resilience import FaultPlan, RetryPolicy

pytestmark = [pytest.mark.obs, pytest.mark.faults]

FAST_RETRIES = RetryPolicy(max_retries=2, base_delay=0.01,
                           max_delay=0.02, jitter=0.0)


@pytest.fixture(scope="module")
def graph_and_partition(small_dataset):
    graph = small_dataset.citation_csr()
    return graph, range_partition(graph, 4)


@pytest.fixture(scope="module")
def traced_crash_run(graph_and_partition):
    graph, partition = graph_and_partition
    baseline = ParallelBlockEngine(graph, partition, num_workers=2).run(
        tol=1e-10)
    obs = Observability("traced")
    engine = ParallelBlockEngine(
        graph, partition, num_workers=2,
        fault_plan=FaultPlan.of("worker:crash:1,2"),
        retry_policy=FAST_RETRIES)
    result = engine.run(tol=1e-10, obs=obs)
    return baseline, result, obs


class TestSingleTraceAcrossProcesses:
    def test_converges_bit_identical_to_untraced(self, traced_crash_run):
        baseline, result, _ = traced_crash_run
        assert result.converged
        assert np.array_equal(result.scores, baseline.scores)

    def test_one_trace_id_covers_everything(self, traced_crash_run):
        _, _, obs = traced_crash_run
        spans = obs.tracer.export()
        assert len({span["trace_id"] for span in spans}) == 1
        names = {span["name"] for span in spans}
        assert {"parallel.run", "superstep", "worker.solve",
                "recovery.respawn"} <= names

    def test_parent_links_are_correct(self, traced_crash_run):
        _, _, obs = traced_crash_run
        spans = obs.tracer.export()
        by_id = {span["span_id"]: span for span in spans}
        [root] = [s for s in spans if s["name"] == "parallel.run"]
        assert root["parent_id"] is None
        for span in spans:
            if span["name"] == "superstep":
                assert by_id[span["parent_id"]]["name"] == "parallel.run"
            if span["name"] in ("worker.solve", "recovery.respawn"):
                # Worker spans crossed the process boundary and still
                # parent under the coordinator's open superstep span.
                assert by_id[span["parent_id"]]["name"] == "superstep"

    def test_worker_spans_cover_both_workers(self, traced_crash_run):
        _, _, obs = traced_crash_run
        solves = [s for s in obs.tracer.export()
                  if s["name"] == "worker.solve"]
        assert {s["attributes"]["worker"] for s in solves} == {0, 1}
        # The respawned worker re-ran superstep 2 as attempt 1.
        retried = [s for s in solves
                   if s["attributes"]["superstep"] == 2
                   and s["attributes"]["worker"] == 1]
        assert [s["attributes"]["attempt"] for s in retried] == [1]

    def test_failure_event_recorded_on_superstep(self, traced_crash_run):
        _, _, obs = traced_crash_run
        events = [(span["name"], event)
                  for span in obs.tracer.export()
                  for event in span.get("events", [])]
        [(owner, failure)] = [(name, e) for name, e in events
                              if e["name"] == "worker.failure"]
        assert owner == "superstep"
        assert failure["attributes"]["worker"] == 1
        assert failure["attributes"]["cause"] == "crash"

    def test_recovery_metrics_and_telemetry(self, traced_crash_run):
        _, _, obs = traced_crash_run
        failures = obs.metrics.counter(
            "repro_worker_failures_total", labels=("kind",))
        recoveries = obs.metrics.counter(
            "repro_recoveries_total", labels=("kind",))
        assert failures.value(kind="crash") == 1
        assert recoveries.value(kind="respawn") == 1
        kinds = [r.kind for r in obs.telemetry.recoveries]
        assert kinds == ["crash", "respawn"]

    def test_render_and_critical_path(self, traced_crash_run):
        _, _, obs = traced_crash_run
        spans = obs.tracer.export()
        text = render_trace(spans, title="acceptance")
        assert "* parallel.run" in text
        assert "recovery.respawn" in text
        assert "worker.failure" in text
        on_path = critical_path(spans)
        [root] = [s for s in spans if s["name"] == "parallel.run"]
        assert root["span_id"] in on_path

    def test_report_serializes_the_trace(self, traced_crash_run,
                                         tmp_path):
        from repro.obs import RunReport

        _, _, obs = traced_crash_run
        loaded = RunReport.load(
            obs.report().save(tmp_path / "trace.json"))
        assert len(loaded["spans"]) == len(obs.tracer.export())
        assert "repro_superstep_seconds" in loaded["metrics_registry"]


class TestDisabledOverhead:
    def test_disabled_obs_changes_nothing(self, graph_and_partition):
        graph, partition = graph_and_partition
        plain = ParallelBlockEngine(graph, partition,
                                    num_workers=2).run(tol=1e-10)
        again = ParallelBlockEngine(graph, partition, num_workers=2).run(
            tol=1e-10, telemetry=None, obs=None)
        assert np.array_equal(plain.scores, again.scores)
