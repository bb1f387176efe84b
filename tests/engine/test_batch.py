"""E4 solver-comparison tests (the helper lives beside its benchmark)."""

from benchmarks.bench_e4_batch import compare_solvers


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
