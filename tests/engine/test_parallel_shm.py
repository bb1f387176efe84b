"""Zero-copy shared-memory data plane: parity, bytes, lifecycle.

The acceptance bar for the shared-memory engine is threefold: scores
stay bit-identical to the pickle plane and to the serial engine (with
and without injected faults), per-superstep IPC drops to the
control-message floor (no array bytes), and no shared-memory segment
survives a run — clean, crashed, or aborted.
"""

import glob

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs import SolverTelemetry
from repro.engine.blocks import BlockEngine
from repro.engine.parallel import ParallelBlockEngine
from repro.engine.shm import (SHARED_MEMORY_AVAILABLE, attach_arrays,
                              destroy_segment, pack_arrays)
from repro.graph.partition import range_partition
from repro.resilience import Deadline, FaultPlan, RetryPolicy

pytestmark = pytest.mark.skipif(
    not SHARED_MEMORY_AVAILABLE,
    reason="multiprocessing.shared_memory unavailable")

FAST_RETRIES = RetryPolicy(max_retries=2, base_delay=0.01,
                           max_delay=0.02, jitter=0.0)


def _leftover_segments():
    return glob.glob("/dev/shm/repro-*")


@pytest.fixture(scope="module")
def graph_and_partition(small_dataset):
    graph = small_dataset.citation_csr()
    return graph, range_partition(graph, 4)


class TestSegments:
    def test_pack_attach_roundtrip(self):
        arrays = {"a": np.arange(7, dtype=np.float64),
                  "b": np.arange(6, dtype=np.int32).reshape(2, 3)}
        segment, layout = pack_arrays(arrays, prefix="repro-test")
        try:
            attached, views = attach_arrays(layout)
            try:
                for name, original in arrays.items():
                    assert np.array_equal(views[name], original)
                    assert views[name].dtype == original.dtype
            finally:
                views = None
                attached.close()
        finally:
            destroy_segment(segment)
        assert segment.name not in _leftover_segments()


class TestParity:
    def test_shm_matches_pickle_plane(self, graph_and_partition):
        graph, partition = graph_and_partition
        shm = ParallelBlockEngine(graph, partition, num_workers=2,
                                  shared_memory=True)
        pickle_plane = ParallelBlockEngine(graph, partition,
                                           num_workers=2,
                                           shared_memory=False)
        a = shm.run(tol=1e-10)
        b = pickle_plane.run(tol=1e-10)
        assert shm.last_used_shared_memory
        assert not pickle_plane.last_used_shared_memory
        assert a.converged and b.converged
        assert np.array_equal(a.scores, b.scores)
        assert a.supersteps == b.supersteps

    def test_single_worker_matches_serial_engine(
            self, graph_and_partition):
        graph, partition = graph_and_partition
        parallel = ParallelBlockEngine(graph, partition, num_workers=1,
                                       shared_memory=True).run(tol=1e-10)
        serial = BlockEngine(graph, partition).run(tol=1e-10)
        assert np.array_equal(parallel.scores, serial.scores)

    def test_crash_recovery_stays_bit_identical(
            self, graph_and_partition):
        graph, partition = graph_and_partition
        baseline = ParallelBlockEngine(graph, partition, num_workers=2,
                                       shared_memory=True).run(tol=1e-10)
        plan = FaultPlan.of("worker:crash:0,2")
        telemetry = SolverTelemetry("parallel")
        faulted = ParallelBlockEngine(
            graph, partition, num_workers=2, shared_memory=True,
            retry_policy=FAST_RETRIES, fault_plan=plan)
        result = faulted.run(tol=1e-10, telemetry=telemetry)
        assert result.converged
        assert np.array_equal(result.scores, baseline.scores)
        assert telemetry.counters["resilience.crashes"] == 1
        assert telemetry.counters["resilience.respawns"] == 1
        # The respawned worker re-attached the segments.
        assert telemetry.counters["ipc.attach"] == 3
        assert not _leftover_segments()

    def test_timeout_poisons_slot_and_stays_bit_identical(
            self, graph_and_partition):
        graph, partition = graph_and_partition
        baseline = ParallelBlockEngine(graph, partition, num_workers=2,
                                       shared_memory=True).run(tol=1e-10)
        plan = FaultPlan.of("worker:delay:0,2@1.5")
        telemetry = SolverTelemetry("parallel")
        faulted = ParallelBlockEngine(
            graph, partition, num_workers=2, shared_memory=True,
            retry_policy=FAST_RETRIES, deadline=Deadline(0.25),
            fault_plan=plan)
        result = faulted.run(tol=1e-10, telemetry=telemetry)
        assert result.converged
        assert np.array_equal(result.scores, baseline.scores)
        assert telemetry.counters["resilience.timeouts"] >= 1
        # After a timeout the zombie may still be alive: its slot must
        # never write through shared memory again.
        assert telemetry.counters["ipc.poisoned"] == 1
        assert not _leftover_segments()


class TestBytes:
    def test_superstep_payloads_drop_to_control_floor(
            self, graph_and_partition):
        graph, partition = graph_and_partition
        shm_telemetry = SolverTelemetry("parallel")
        pickle_telemetry = SolverTelemetry("parallel")
        shm = ParallelBlockEngine(graph, partition, num_workers=2,
                                  shared_memory=True)
        shm.run(tol=1e-10, telemetry=shm_telemetry)
        pickle_plane = ParallelBlockEngine(graph, partition,
                                           num_workers=2,
                                           shared_memory=False)
        pickle_plane.run(tol=1e-10, telemetry=pickle_telemetry)
        # The pickle plane ships the score vector to every worker every
        # superstep; the shm plane ships only control tuples.
        assert shm_telemetry.bytes_shipped < \
            pickle_telemetry.bytes_shipped / 10
        dispatches = (shm_telemetry.num_supersteps * 2
                      + 2)  # + the two init manifests
        assert shm_telemetry.bytes_shipped < dispatches * 1024
        # The arrays went through segments instead, and telemetry says
        # how many bytes live there.
        n = graph.num_nodes
        assert shm_telemetry.counters["ipc.shm_bytes"] >= 3 * n * 8


class TestLifecycle:
    def test_segments_unlinked_after_clean_run(self,
                                               graph_and_partition):
        graph, partition = graph_and_partition
        engine = ParallelBlockEngine(graph, partition, num_workers=2,
                                     shared_memory=True)
        engine.run(tol=1e-10)
        assert engine.last_shm_segments  # names were recorded...
        for name in engine.last_shm_segments:  # ...and all are gone
            assert not glob.glob(f"/dev/shm/{name}")

    def test_segments_unlinked_after_aborted_run(
            self, graph_and_partition, monkeypatch):
        graph, partition = graph_and_partition
        engine = ParallelBlockEngine(graph, partition, num_workers=2,
                                     shared_memory=True)

        def explode(*args, **kwargs):
            raise RuntimeError("injected coordinator failure")

        monkeypatch.setattr(engine, "_collect_with_recovery", explode)
        with pytest.raises(RuntimeError, match="injected"):
            engine.run(tol=1e-10)
        assert engine.last_shm_segments
        for name in engine.last_shm_segments:
            assert not glob.glob(f"/dev/shm/{name}")

    def test_invalid_flag_rejected(self, graph_and_partition):
        graph, partition = graph_and_partition
        with pytest.raises(ConfigError):
            ParallelBlockEngine(graph, partition,
                                shared_memory="always")
