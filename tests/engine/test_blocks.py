"""Block-centric and vertex-centric engine tests."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.engine.blocks import BlockEngine, vertex_centric_pagerank
from repro.graph.csr import CSRGraph
from repro.graph.partition import hash_partition, range_partition
from repro.ranking.pagerank import pagerank

from .test_superstep_oracle import (assert_equals_oracle, chain_graph,
                                    oracle_for)


@pytest.fixture(scope="module")
def dataset_graph(request):
    return None


class TestBlockEngine:
    def test_matches_reference_range_partition(self, small_dataset):
        graph = small_dataset.citation_csr()
        reference = pagerank(graph, tol=1e-12, max_iter=500)
        partition = range_partition(graph, 4)
        result = BlockEngine(graph, partition).run(tol=1e-12)
        assert result.converged
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_matches_reference_hash_partition(self, small_dataset):
        graph = small_dataset.citation_csr()
        reference = pagerank(graph, tol=1e-12, max_iter=500)
        partition = hash_partition(graph, 4, seed=1)
        result = BlockEngine(graph, partition).run(tol=1e-12)
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_fewer_supersteps_than_vertex_centric(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        block = BlockEngine(graph, partition).run()
        vertex = vertex_centric_pagerank(graph, partition)
        assert block.supersteps < vertex.supersteps
        assert block.messages < vertex.messages

    def test_message_accounting(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        cut = partition.edge_cut(graph)
        result = BlockEngine(graph, partition).run()
        assert result.messages == cut * result.supersteps

    def test_weighted_edges(self, small_dataset):
        graph = small_dataset.citation_csr()
        rng = np.random.default_rng(0)
        weights = rng.random(graph.num_edges) + 0.1
        reference = pagerank(graph, edge_weights=weights, tol=1e-12,
                             max_iter=500)
        partition = range_partition(graph, 3)
        result = BlockEngine(graph, partition,
                             edge_weights=weights).run(tol=1e-12)
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_single_block_equals_reference(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 1)
        result = BlockEngine(graph, partition).run(tol=1e-12)
        reference = pagerank(graph, tol=1e-12, max_iter=500)
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_custom_block_order(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        engine = BlockEngine(graph, partition)
        forward = engine.run(block_order=[0, 1, 2, 3])
        assert forward.converged
        with pytest.raises(ConfigError):
            engine.run(block_order=[0, 0, 1, 2])

    def test_partition_coverage_checked(self, small_dataset):
        graph = small_dataset.citation_csr()
        other = CSRGraph.from_edges([(0, 1)])
        partition = range_partition(other, 2)
        with pytest.raises(ConfigError):
            BlockEngine(graph, partition)

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0}, {"max_supersteps": 0},
        {"local_tol": 0}, {"local_max_iter": 0},
    ])
    def test_run_validation(self, small_dataset, kwargs):
        graph = small_dataset.citation_csr()
        engine = BlockEngine(graph, range_partition(graph, 2))
        with pytest.raises(ConfigError):
            engine.run(**kwargs)

    def test_empty_graph(self):
        graph = CSRGraph.from_edges([], nodes=[])
        engine = BlockEngine(graph, range_partition(graph, 2))
        assert engine.run().converged


class TestVertexCentric:
    def test_matches_reference(self, small_dataset):
        graph = small_dataset.citation_csr()
        reference = pagerank(graph, tol=1e-12, max_iter=500)
        partition = range_partition(graph, 4)
        result = vertex_centric_pagerank(graph, partition, tol=1e-12,
                                         max_supersteps=500)
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_messages_per_superstep_is_cut(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = hash_partition(graph, 3, seed=0)
        result = vertex_centric_pagerank(graph, partition)
        assert result.messages == \
            partition.edge_cut(graph) * result.supersteps

    def test_validation(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 2)
        with pytest.raises(ConfigError):
            vertex_centric_pagerank(graph, partition, damping=1.0)
        with pytest.raises(ConfigError):
            vertex_centric_pagerank(graph, partition, tol=0)


class TestFrontierCompaction:
    """Compaction must be a bit-exact no-op with measurable savings:
    the engine against the never-skipping oracle loop."""

    def test_bit_identical_with_and_without(self, small_dataset):
        graph = small_dataset.citation_csr()
        engine = BlockEngine(graph, range_partition(graph, 4))
        result = engine.run(tol=1e-12)
        assert_equals_oracle(result, oracle_for(
            engine, [[3, 2, 1, 0]], tol=1e-12))

    def test_skips_recorded_and_work_saved(self):
        graph = chain_graph()
        engine = BlockEngine(graph, range_partition(graph, 8))
        result = engine.run(tol=1e-13, local_tol=1e-14)
        oracle = oracle_for(engine, [list(range(7, -1, -1))],
                            tol=1e-13, local_tol=1e-14)
        assert_equals_oracle(result, oracle)
        assert result.blocks_skipped > 0
        assert result.local_iterations < oracle.local_iterations

    def test_telemetry_counts_skips(self):
        from repro.obs import SolverTelemetry

        graph = chain_graph()
        partition = range_partition(graph, 8)
        telemetry = SolverTelemetry("blocks")
        result = BlockEngine(graph, partition).run(
            tol=1e-13, local_tol=1e-14, telemetry=telemetry)
        assert result.blocks_skipped > 0
        assert telemetry.counters["blocks_skipped"] == \
            result.blocks_skipped


class TestEdgeWeightGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_block_operators_reject(self, small_dataset, bad):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        weights = graph.weights.copy()
        weights[0] = bad
        with pytest.raises(ConfigError):
            BlockEngine(graph, partition, edge_weights=weights)

    def test_vertex_centric_rejects(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        weights = graph.weights.copy()
        weights[-1] = np.nan
        with pytest.raises(ConfigError):
            vertex_centric_pagerank(graph, partition,
                                    edge_weights=weights)

    def test_honest_operator_contract(self, small_dataset):
        from repro.engine.blocks import BlockOperators, _block_operators

        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        operators = _block_operators(graph, partition, None)
        assert isinstance(operators, BlockOperators)
        # The fifth field is the per-edge transition probability, not a
        # jump vector: one entry per edge, rows sum to at most 1.
        assert operators.probability.shape == (graph.num_edges,)
        assert operators.cut_edges == partition.edge_cut(graph)
        for block, sources in enumerate(operators.source_blocks):
            assert block not in sources.tolist()


class TestBlockTelemetry:
    def test_scores_identical_and_supersteps_recorded(self, small_dataset):
        from repro.obs import SolverTelemetry

        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        plain = BlockEngine(graph, partition).run(tol=1e-12)
        telemetry = SolverTelemetry("blocks")
        observed = BlockEngine(graph, partition).run(tol=1e-12,
                                                     telemetry=telemetry)
        assert np.array_equal(plain.scores, observed.scores)
        assert telemetry.num_supersteps == observed.supersteps
        assert telemetry.total_messages == observed.messages
        assert all(r.seconds >= 0 for r in telemetry.supersteps)
        # Residual trajectory is the per-superstep one and ends converged.
        assert telemetry.supersteps[-1].residual <= 1e-12

    def test_vertex_centric_telemetry(self, small_dataset):
        from repro.obs import SolverTelemetry

        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        telemetry = SolverTelemetry("vertex")
        result = vertex_centric_pagerank(graph, partition,
                                         telemetry=telemetry)
        assert telemetry.num_supersteps == result.supersteps
        assert telemetry.total_messages == result.messages
        # One Jacobi pass per superstep in the vertex-centric model.
        assert all(r.local_iterations == 1 for r in telemetry.supersteps)

    def test_bad_initial_rejected(self, small_dataset):
        graph = small_dataset.citation_csr()
        partition = range_partition(graph, 4)
        with pytest.raises(ConfigError):
            BlockEngine(graph, partition).run(
                initial=np.zeros(graph.num_nodes))
        with pytest.raises(ConfigError):
            BlockEngine(graph, partition).run(initial=np.ones(3))
