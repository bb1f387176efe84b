"""Fault-injected parallel engine runs (real worker processes die here).

Every test asserts the headline resilience property: recovery never
changes the math — the faulted run's fixed point is **bit-identical**
(``np.array_equal``, not approx) to the fault-free run, because retried,
respawned, and degraded blocks all go through the same solve path — and
recovery replays exactly the subset of blocks the coordinator dispatched,
so the work counters (``supersteps``, ``local_iterations``,
``blocks_skipped``) equal the fault-free run's too.
"""

import numpy as np
import pytest

from repro.obs import SolverTelemetry
from repro.engine.parallel import ParallelBlockEngine
from repro.graph.partition import range_partition
from repro.resilience import Deadline, FaultPlan, RetryPolicy

pytestmark = pytest.mark.faults

# Backoff tuned for tests: real sleeps, kept to milliseconds.
FAST_RETRIES = RetryPolicy(max_retries=2, base_delay=0.01,
                           max_delay=0.02, jitter=0.0)


@pytest.fixture(scope="module")
def graph_and_partition(small_dataset):
    graph = small_dataset.citation_csr()
    return graph, range_partition(graph, 4)


@pytest.fixture(scope="module")
def fault_free(graph_and_partition):
    graph, partition = graph_and_partition
    result = ParallelBlockEngine(graph, partition, num_workers=2).run(
        tol=1e-10)
    assert result.converged
    return result


def assert_same_run(result, fault_free):
    assert result.converged
    assert np.array_equal(result.scores, fault_free.scores)
    assert (result.supersteps, result.local_iterations,
            result.blocks_skipped) == (
        fault_free.supersteps, fault_free.local_iterations,
        fault_free.blocks_skipped)


class TestCrashRecovery:
    def test_crashed_worker_is_respawned_bit_identical(
            self, graph_and_partition, fault_free):
        graph, partition = graph_and_partition
        plan = FaultPlan().crash_worker(1, superstep=2)
        telemetry = SolverTelemetry("parallel")
        engine = ParallelBlockEngine(graph, partition, num_workers=2,
                                     retry_policy=FAST_RETRIES,
                                     fault_plan=plan)
        result = engine.run(tol=1e-10, telemetry=telemetry)
        assert_same_run(result, fault_free)
        assert telemetry.counters["resilience.crashes"] == 1
        assert telemetry.counters["resilience.respawns"] == 1
        assert "resilience.degrades" not in telemetry.counters

    def test_seeded_random_crash_bit_identical(
            self, graph_and_partition, fault_free):
        # The ISSUE acceptance scenario: a seeded plan kills one worker
        # somewhere mid-run; scores must not change by one ULP.
        graph, partition = graph_and_partition
        plan = FaultPlan(seed=42)
        worker, superstep = plan.crash_random_worker(
            num_workers=2, max_superstep=3)
        telemetry = SolverTelemetry("parallel")
        engine = ParallelBlockEngine(graph, partition, num_workers=2,
                                     retry_policy=FAST_RETRIES,
                                     fault_plan=plan)
        result = engine.run(tol=1e-10, telemetry=telemetry)
        assert_same_run(result, fault_free)
        [record] = [r for r in telemetry.recoveries if r.kind == "crash"]
        assert (record.worker, record.superstep) == (worker, superstep)

    def test_recovery_events_name_the_blocks(self, graph_and_partition):
        graph, partition = graph_and_partition
        plan = FaultPlan().crash_worker(0, superstep=1)
        telemetry = SolverTelemetry("parallel")
        engine = ParallelBlockEngine(graph, partition, num_workers=2,
                                     retry_policy=FAST_RETRIES,
                                     fault_plan=plan)
        engine.run(tol=1e-10, telemetry=telemetry)
        crash = telemetry.recoveries[0]
        assert crash.kind == "crash"
        assert crash.blocks == engine._assignment_to_worker[0]


    @pytest.mark.parametrize("max_retries, kinds", [
        (1, ["crash", "respawn"]), (0, ["crash", "degrade"])])
    def test_recovery_replays_the_compacted_subset(self, max_retries,
                                                   kinds):
        # Superstep 2 re-solves block 3 only out of worker 1's [5, 4, 3]
        # (the cycle blocks settled bitwise): the replay — respawned or
        # inline — must solve that subset, not the worker's whole slot.
        from .test_superstep_oracle import chain_graph

        graph = chain_graph()
        partition = range_partition(graph, 8)
        clean = ParallelBlockEngine(graph, partition, num_workers=3).run(
            tol=1e-13, local_tol=1e-14)
        assert clean.blocks_skipped > 0
        telemetry = SolverTelemetry("parallel")
        result = ParallelBlockEngine(
            graph, partition, num_workers=3,
            retry_policy=RetryPolicy(max_retries=max_retries,
                                     base_delay=0.0, max_delay=0.0,
                                     jitter=0.0),
            fault_plan=FaultPlan().crash_worker(1, superstep=2)).run(
            tol=1e-13, local_tol=1e-14, telemetry=telemetry)
        assert_same_run(result, clean)
        assert [r.kind for r in telemetry.recoveries] == kinds
        assert all(r.blocks == [3] for r in telemetry.recoveries)


class TestDegradation:
    def test_persistent_crasher_degrades_inline_bit_identical(
            self, graph_and_partition, fault_free):
        graph, partition = graph_and_partition
        # Worker 0 dies on every attempt of superstep 1: retries burn
        # out and its blocks move inline into the coordinator.
        plan = FaultPlan().crash_worker(0, superstep=1, times=99)
        policy = RetryPolicy(max_retries=1, base_delay=0.0,
                             max_delay=0.0, jitter=0.0)
        telemetry = SolverTelemetry("parallel")
        engine = ParallelBlockEngine(graph, partition, num_workers=2,
                                     retry_policy=policy,
                                     fault_plan=plan)
        result = engine.run(tol=1e-10, telemetry=telemetry)
        assert_same_run(result, fault_free)
        assert telemetry.counters["resilience.crashes"] == 2
        assert telemetry.counters["resilience.respawns"] == 1
        assert telemetry.counters["resilience.degrades"] == 1

    def test_zero_retries_degrades_on_first_crash(
            self, graph_and_partition, fault_free):
        graph, partition = graph_and_partition
        plan = FaultPlan().crash_worker(1, superstep=1, times=99)
        policy = RetryPolicy(max_retries=0, base_delay=0.0,
                             max_delay=0.0, jitter=0.0)
        telemetry = SolverTelemetry("parallel")
        result = ParallelBlockEngine(
            graph, partition, num_workers=2, retry_policy=policy,
            fault_plan=plan).run(tol=1e-10, telemetry=telemetry)
        assert_same_run(result, fault_free)
        assert "resilience.respawns" not in telemetry.counters
        assert telemetry.counters["resilience.degrades"] == 1


class TestDeadlines:
    def test_hung_worker_times_out_and_respawns_bit_identical(
            self, graph_and_partition, fault_free):
        graph, partition = graph_and_partition
        # Worker 0 stalls well past the deadline on its first dispatch;
        # the respawned process (attempt 1) runs clean.
        plan = FaultPlan().delay_task(0, superstep=1, seconds=30.0)
        telemetry = SolverTelemetry("parallel")
        engine = ParallelBlockEngine(graph, partition, num_workers=2,
                                     retry_policy=FAST_RETRIES,
                                     deadline=Deadline(0.5),
                                     fault_plan=plan)
        result = engine.run(tol=1e-10, telemetry=telemetry)
        # Even if a slow CI box times out a healthy worker too, recovery
        # preserves scores and work, so this assertion stays robust.
        assert_same_run(result, fault_free)
        assert telemetry.counters["resilience.timeouts"] >= 1
        assert telemetry.counters["resilience.respawns"] >= 1
