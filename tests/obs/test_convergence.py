"""ConvergenceStream unit tests + solver/engine stream wiring."""

import pytest

from repro.obs import SolverTelemetry
from repro.obs.convergence import ConvergenceStream

pytestmark = pytest.mark.obs


class TestStream:
    def test_records_are_indexed(self):
        stream = ConvergenceStream("pagerank")
        stream.record(0.5, delta=0.1, active=10, seconds=0.01)
        stream.record(0.05)
        assert len(stream) == 2
        assert [p.index for p in stream.points] == [0, 1]
        assert stream.residuals == [0.5, 0.05]
        assert stream.final_residual == 0.05
        assert stream.points[1].delta == 0.0

    def test_empty_stream_final_residual(self):
        assert ConvergenceStream("x").final_residual == float("inf")

    def test_dict_roundtrip(self):
        stream = ConvergenceStream("s", kind="superstep")
        stream.record(0.3, delta=0.2, active=4, seconds=0.5)
        rebuilt = ConvergenceStream.from_dict(stream.as_dict())
        assert rebuilt.as_dict() == stream.as_dict()
        assert rebuilt.kind == "superstep"

    def test_open_stream_is_get_or_create(self):
        telemetry = SolverTelemetry()
        first = telemetry.open_stream("s", kind="batch")
        assert telemetry.open_stream("s") is first
        assert first.kind == "batch"


class TestSolverWiring:
    """Each solver/engine appends to its named stream when telemetry
    is on — and the fixed point is unchanged (checked bit-identical in
    tests/obs/test_trace_parallel.py and the faults suite)."""

    def test_pagerank_stream(self, cyclic_graph):
        from repro.ranking.pagerank import pagerank

        telemetry = SolverTelemetry()
        pagerank(cyclic_graph, telemetry=telemetry)
        stream = telemetry.convergence["pagerank"]
        assert stream.kind == "iteration"
        assert len(stream) == telemetry.iterations > 0
        assert stream.residuals == telemetry.residuals

    def test_gauss_seidel_stream(self, cyclic_graph):
        from repro.ranking.gauss_seidel import gauss_seidel_pagerank

        telemetry = SolverTelemetry()
        gauss_seidel_pagerank(cyclic_graph, telemetry=telemetry)
        stream = telemetry.convergence["gauss_seidel"]
        assert len(stream) > 0
        # Residuals decay to below default tolerance.
        assert stream.final_residual < 1e-9
        assert all(p.seconds >= 0 for p in stream.points)

    def test_levels_stream(self, small_dataset):
        from repro.core.time_weight import exponential_decay
        from repro.core.twpr import time_weighted_pagerank

        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        telemetry = SolverTelemetry()
        result = time_weighted_pagerank(graph, years, exponential_decay(0.1),
                                        method="levels", telemetry=telemetry)
        # TWPR's level solve *is* the Gauss–Seidel solver: its stream.
        assert list(telemetry.convergence) == ["gauss_seidel"]
        assert len(telemetry.convergence["gauss_seidel"]) \
            == result.iterations
        assert telemetry.solver == "levels"

    def test_block_engine_superstep_stream(self, small_dataset):
        from repro.engine.blocks import BlockEngine
        from repro.graph.partition import range_partition

        graph = small_dataset.citation_csr()
        telemetry = SolverTelemetry()
        BlockEngine(graph, range_partition(graph, 4)).run(
            telemetry=telemetry)
        stream = telemetry.convergence["block_engine"]
        assert stream.kind == "superstep"
        assert len(stream) == telemetry.num_supersteps > 0
        assert stream.points[0].active > 0

    def test_incremental_batch_stream(self, small_dataset):
        from repro.engine.incremental import IncrementalEngine
        from repro.engine.updates import yearly_updates

        base, batches = yearly_updates(small_dataset, from_year=2012)
        telemetry = SolverTelemetry()
        engine = IncrementalEngine(base, telemetry=telemetry)
        engine.apply(batches[0])
        stream = telemetry.convergence["incremental"]
        assert stream.kind == "batch"
        assert len(stream) == 1
        assert stream.points[0].active >= 0
