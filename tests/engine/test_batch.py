"""Batch ranker and solver-comparison tests."""


from repro.core.model import RankerConfig
from repro.engine.batch import BatchRanker, compare_solvers


class TestBatchRanker:
    def test_run_reports_timings(self, small_dataset):
        report = BatchRanker().run(small_dataset)
        assert report.total_seconds > 0
        stages = report.stage_timings
        assert stages
        assert sum(stages.values()) <= report.total_seconds + 0.1

    def test_custom_config(self, small_dataset):
        report = BatchRanker(RankerConfig(solver="power")).run(
            small_dataset)
        assert report.result.diagnostics["twpr_method"] == "power"


class TestCompareSolvers:
    def test_agreement_and_speedup(self, small_dataset):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        comparison = compare_solvers(graph, years)
        assert comparison.agreement_l1 < 1e-8
        assert comparison.iteration_speedup > 3
        assert comparison.naive.converged
        assert comparison.optimized.converged
        assert comparison.num_nodes == graph.num_nodes

    def test_custom_methods(self, small_dataset):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        comparison = compare_solvers(graph, years,
                                     methods=("levels", "power"))
        assert comparison.naive.method == "levels"
        assert comparison.optimized.method == "power"
        assert comparison.agreement_l1 < 1e-8

    def test_time_speedup_finite(self, small_dataset):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        comparison = compare_solvers(graph, years)
        assert comparison.time_speedup > 0
