"""Parallel block-engine tests (spawn real worker processes, kept small)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.engine.parallel import ParallelBlockEngine
from repro.graph.partition import range_partition
from repro.ranking.pagerank import pagerank

from .test_superstep_oracle import (assert_equals_oracle, chain_graph,
                                    oracle_for)


class TestParallelBlockEngine:
    def test_two_workers_match_reference(self, small_dataset):
        graph = small_dataset.citation_csr()
        reference = pagerank(graph, tol=1e-12, max_iter=500)
        partition = range_partition(graph, 4)
        engine = ParallelBlockEngine(graph, partition, num_workers=2)
        result = engine.run(tol=1e-12)
        assert result.converged
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_single_worker_matches_reference(self, small_dataset):
        graph = small_dataset.citation_csr()
        reference = pagerank(graph, tol=1e-12, max_iter=500)
        partition = range_partition(graph, 2)
        result = ParallelBlockEngine(graph, partition,
                                     num_workers=1).run(tol=1e-12)
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_validation(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 2)
        with pytest.raises(ConfigError):
            ParallelBlockEngine(graph, partition, num_workers=0)
        with pytest.raises(ConfigError):
            ParallelBlockEngine(graph, partition, damping=1.0)
        engine = ParallelBlockEngine(graph, partition, num_workers=1)
        with pytest.raises(ConfigError):
            engine.run(tol=0)


class TestPayloadDiscipline:
    """Regression: every worker used to receive the whole block payload."""

    def test_workers_only_get_their_blocks(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        engine = ParallelBlockEngine(graph, partition, num_workers=2)
        assert len(engine._worker_payloads) == 2
        seen = []
        for worker, payload in enumerate(engine._worker_payloads):
            assert sorted(payload) == \
                sorted(engine._assignment_to_worker[worker])
            seen.extend(payload)
        # Together the payloads cover every block exactly once.
        assert sorted(seen) == list(range(partition.num_blocks))

    def test_payload_sizes_shrink_per_worker(self, small_dataset):
        """Two workers each carry roughly half the single-worker payload."""
        import pickle

        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        one = ParallelBlockEngine(graph, partition, num_workers=1)
        two = ParallelBlockEngine(graph, partition, num_workers=2)
        size_one = len(pickle.dumps(one._worker_payloads[0]))
        largest_of_two = max(len(pickle.dumps(p))
                             for p in two._worker_payloads)
        assert largest_of_two < size_one


class TestParallelCompaction:
    """Frontier compaction: bit-exact across planes, less work done —
    the engine against the never-skipping oracle loop."""

    @pytest.mark.parametrize("plane", [False, "auto"])
    def test_bit_identical_with_and_without(self, plane):
        graph = chain_graph()
        engine = ParallelBlockEngine(graph, range_partition(graph, 8),
                                     num_workers=3, shared_memory=plane)
        result = engine.run(tol=1e-13, local_tol=1e-14)
        oracle = oracle_for(engine, tol=1e-13, local_tol=1e-14)
        assert_equals_oracle(result, oracle)
        assert result.blocks_skipped > 0
        assert result.local_iterations < oracle.local_iterations

    def test_planes_agree_under_compaction(self):
        graph = chain_graph()
        partition = range_partition(graph, 8)
        results = [
            ParallelBlockEngine(graph, partition, num_workers=3,
                                shared_memory=plane).run(
                tol=1e-13, local_tol=1e-14)
            for plane in (False, "auto")
        ]
        assert np.array_equal(results[0].scores, results[1].scores)
        assert results[0].supersteps == results[1].supersteps
        assert results[0].blocks_skipped == results[1].blocks_skipped > 0

    def test_matches_serial_engine(self):
        from repro.engine.blocks import BlockEngine

        graph = chain_graph()
        partition = range_partition(graph, 8)
        serial = BlockEngine(graph, partition).run(
            tol=1e-13, local_tol=1e-14)
        parallel = ParallelBlockEngine(graph, partition,
                                       num_workers=1).run(
            tol=1e-13, local_tol=1e-14)
        assert np.array_equal(serial.scores, parallel.scores)
        assert serial.blocks_skipped == parallel.blocks_skipped > 0

    def test_skips_counted_in_telemetry(self):
        from repro.obs import SolverTelemetry

        graph = chain_graph()
        partition = range_partition(graph, 8)
        telemetry = SolverTelemetry("parallel")
        result = ParallelBlockEngine(graph, partition, num_workers=3).run(
            tol=1e-13, local_tol=1e-14, telemetry=telemetry)
        assert result.blocks_skipped > 0
        assert telemetry.counters["blocks_skipped"] == \
            result.blocks_skipped


class TestParallelEdgeWeightGuard:
    @pytest.mark.parametrize("bad", [np.nan, -2.0])
    def test_rejects_bad_weights(self, small_dataset, bad):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 2)
        weights = graph.weights.copy()
        weights[0] = bad
        with pytest.raises(ConfigError):
            ParallelBlockEngine(graph, partition, num_workers=1,
                                edge_weights=weights)


class TestParallelTelemetry:
    def test_fixed_point_unchanged_and_bytes_recorded(self, small_dataset):
        from repro.obs import SolverTelemetry

        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        plain = ParallelBlockEngine(graph, partition,
                                    num_workers=2).run(tol=1e-12)
        telemetry = SolverTelemetry("parallel")
        observed = ParallelBlockEngine(graph, partition, num_workers=2).run(
            tol=1e-12, telemetry=telemetry)
        assert np.array_equal(plain.scores, observed.scores)
        assert observed.supersteps == plain.supersteps

        assert telemetry.num_supersteps == observed.supersteps
        assert telemetry.bytes_shipped > 0
        assert telemetry.total_messages == observed.messages
        assert sum(r.local_iterations for r in telemetry.supersteps) == \
            observed.local_iterations
        # Worker attribution covers every block exactly once.
        owned = sorted(b for blocks in telemetry.worker_blocks.values()
                       for b in blocks)
        assert owned == list(range(partition.num_blocks))
        # Per-superstep block attribution sums to the step's local count.
        for record in telemetry.supersteps:
            assert sum(record.block_iterations.values()) == \
                record.local_iterations
