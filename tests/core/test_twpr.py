"""Time-Weighted PageRank: solver agreement, reductions, optimization.

TWPR's ``levels`` method used to be its own solver (``_level_operators``
+ ``_levels_solve`` in ``core/twpr.py``); it is now
``gauss_seidel_pagerank(kernel="levels")`` on the time weights. The old
bodies live on *here* as the oracle: on acyclic graphs the same CSR
slices go through the same matvecs in the same order, so scores,
sweep count and residual must be bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from repro.data.generator import GeneratorConfig, generate_dataset
from repro.errors import ConfigError, ConvergenceError
from repro.graph.csr import CSRGraph
from repro.core.model import RankerConfig
from repro.core.time_weight import exponential_decay, no_decay
from repro.core.twpr import (
    TWPRResult,
    time_weight_edges,
    time_weighted_pagerank,
)
from repro.graph.toposort import topological_levels
from repro.ranking.gauss_seidel import gauss_seidel_pagerank
from repro.ranking.pagerank import pagerank, validate_initial, validate_jump

SOLVERS = ["power", "gauss_seidel", "levels"]


def solve(graph, years, solver, max_iter=200, **kwargs):
    """TWPR by ``solver``. ``"gauss_seidel"`` — a TWPR method value
    until the level kernels were merged — is the per-node reference
    sweep on the same time weights."""
    if solver != "gauss_seidel":
        return time_weighted_pagerank(graph, years, method=solver,
                                      max_iter=max_iter, **kwargs)
    weights = time_weight_edges(graph, years, exponential_decay(0.1))
    return gauss_seidel_pagerank(graph, edge_weights=weights,
                                 kernel="pernode", max_sweeps=max_iter,
                                 **kwargs)


@pytest.fixture()
def dated_graph():
    """2 cites {0,1}; 3 cites {2}; years make the gaps differ."""
    graph = CSRGraph.from_edges([(2, 0), (2, 1), (3, 2)],
                                nodes=[0, 1, 2, 3])
    years = np.array([1990, 2004, 2005, 2010])
    return graph, years


def oracle_level_operators(graph, weights):
    """The pre-merge operator build: per-level pull operators."""
    n = graph.num_nodes
    src_idx, dst_idx = graph.edge_sources(), graph.indices
    strengths = np.bincount(src_idx, weights=weights, minlength=n)
    dangling = strengths == 0.0
    probability = weights / np.where(dangling, 1.0, strengths)[src_idx]

    levels = topological_levels(graph).levels
    operators = []
    num_levels = int(levels.max()) + 1 if n else 0
    node_order = np.argsort(levels, kind="stable")
    node_bounds = np.searchsorted(levels[node_order],
                                  np.arange(num_levels + 1))
    rank_of_node = np.empty(n, dtype=np.int64)
    rank_of_node[node_order] = np.arange(n)
    rows = rank_of_node[dst_idx]
    edge_order = np.argsort(rows, kind="stable")
    sorted_src = src_idx[edge_order]
    sorted_probability = probability[edge_order]
    global_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=global_indptr[1:])
    for level in range(num_levels):
        row_lo = int(node_bounds[level])
        row_hi = int(node_bounds[level + 1])
        edge_lo = int(global_indptr[row_lo])
        edge_hi = int(global_indptr[row_hi])
        block_indptr = global_indptr[row_lo:row_hi + 1] - edge_lo
        matrix = csr_matrix(
            (sorted_probability[edge_lo:edge_hi],
             sorted_src[edge_lo:edge_hi], block_indptr),
            shape=(row_hi - row_lo, n))
        operators.append((node_order[row_lo:row_hi], matrix))
    return operators


def oracle_levels_solve(graph, weights, damping=0.85, tol=1e-10,
                        max_sweeps=200, jump=None, initial=None):
    """The pre-merge TWPR level solver (members of an SCC are
    Jacobi-updated inside their level — its one known defect)."""
    n = graph.num_nodes
    jump = validate_jump(jump, n)
    initial = validate_initial(initial, n)
    src_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    strengths = np.bincount(src_idx, weights=weights, minlength=n)
    dangling = strengths == 0.0
    operators = oracle_level_operators(graph, weights)

    scores = jump.copy() if initial is None \
        else np.asarray(initial, dtype=np.float64).copy()
    residual = float("inf")
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        previous = scores.copy()
        dangling_mass = float(scores[dangling].sum())
        for nodes, matrix in operators:
            pulled = matrix @ scores
            scores[nodes] = damping * (pulled
                                       + dangling_mass * jump[nodes]) \
                + (1.0 - damping) * jump[nodes]
        scores /= scores.sum()
        change = np.abs(scores - previous)
        residual = float(change.sum())
        if residual <= tol:
            return TWPRResult(scores, sweeps, residual, True, "levels")
    return TWPRResult(scores, sweeps, residual, False, "levels")


def capped_decay(gap):
    """Zero weight past ten years: rows of all-zero edges are dangling."""
    return np.where(gap > 10, 0.0, np.exp(-0.2 * gap))


def random_dag(n, m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = a != b
    edges = zip(np.maximum(a, b)[keep].tolist(),
                np.minimum(a, b)[keep].tolist())
    return CSRGraph.from_edges(edges, nodes=range(n)), \
        rng.integers(1985, 2016, n)


class TestLevelsIsTheGaussSeidelLevelKernel:
    """``method="levels"`` ≡ the oracle above, bit for bit, on DAGs."""

    def assert_identical(self, graph, years, decay, **kwargs):
        result = time_weighted_pagerank(graph, years, decay=decay,
                                        method="levels", **kwargs)
        expected = oracle_levels_solve(
            graph, time_weight_edges(graph, years, decay), **kwargs)
        assert np.array_equal(result.scores, expected.scores)
        assert (result.iterations, result.residual, result.converged) \
            == (expected.iterations, expected.residual, expected.converged)
        assert result.converged

    def test_random_weighted_dag(self):
        graph, years = random_dag(400, 3000, seed=11)
        self.assert_identical(graph, years, capped_decay)

    def test_small_dataset(self, small_dataset):
        graph = small_dataset.citation_csr()
        self.assert_identical(graph, small_dataset.article_years(graph),
                              exponential_decay(0.1))

    @pytest.fixture(scope="class")
    def corpus(self):
        dataset = generate_dataset(GeneratorConfig(
            num_articles=2000, num_venues=16, num_authors=500,
            start_year=1990, end_year=2015, seed=7))
        graph = dataset.citation_csr()
        return graph, dataset.article_years(graph)

    def test_generated_corpus_with_the_rankers_decay(self, corpus):
        self.assert_identical(
            *corpus, exponential_decay(RankerConfig().prestige_decay))

    def test_personalised_jump_and_warm_initial(self, corpus):
        rng = np.random.default_rng(5)
        n = corpus[0].num_nodes
        self.assert_identical(
            *corpus, exponential_decay(RankerConfig().prestige_decay),
            jump=rng.random(n) + 0.01, initial=rng.random(n) * 3.0)

    def test_cyclic_graph_sweeps_scc_members_per_node(self):
        """What the merge changes: SCC members used to be
        Jacobi-updated inside their level, now they are swept in index
        order exactly as the per-node reference does — same sweep
        count, same fixed point as before."""
        rng = np.random.default_rng(2)
        a, b = rng.integers(0, 150, 600), rng.integers(0, 150, 600)
        graph = CSRGraph.from_edges(
            zip(a[a != b].tolist(), b[a != b].tolist()), nodes=range(150))
        assert not topological_levels(graph).acyclic
        years = rng.integers(1990, 2015, 150)
        weights = time_weight_edges(graph, years, exponential_decay(0.1))
        levels = time_weighted_pagerank(graph, years, method="levels",
                                        tol=1e-12)
        pernode = gauss_seidel_pagerank(graph, edge_weights=weights,
                                        kernel="pernode", tol=1e-12)
        oracle = oracle_levels_solve(graph, weights, tol=1e-12)
        assert levels.converged and oracle.converged
        assert levels.iterations == pernode.iterations
        assert levels.iterations < oracle.iterations
        assert np.abs(levels.scores - oracle.scores).sum() < 1e-11


class TestEdgeWeights:
    def test_weights_reflect_gap(self, dated_graph):
        graph, years = dated_graph
        weights = time_weight_edges(graph, years, exponential_decay(0.1))
        # Edge order within node 2: targets 0 (gap 15) and 1 (gap 1).
        idx2 = graph.index_of(2)
        slice_ = slice(graph.indptr[idx2], graph.indptr[idx2 + 1])
        targets = graph.indices[slice_]
        gap_by_target = {int(t): w
                         for t, w in zip(targets, weights[slice_])}
        assert gap_by_target[graph.index_of(0)] == \
            pytest.approx(np.exp(-1.5))
        assert gap_by_target[graph.index_of(1)] == \
            pytest.approx(np.exp(-0.1))

    def test_forward_in_time_edges_get_full_weight(self):
        graph = CSRGraph.from_edges([(0, 1)])
        years = np.array([2000, 2005])  # cited is newer: data noise
        weights = time_weight_edges(graph, years, exponential_decay(0.5))
        assert weights[0] == pytest.approx(1.0)

    def test_alignment_validated(self, dated_graph):
        graph, years = dated_graph
        with pytest.raises(ConfigError):
            time_weight_edges(graph, years[:2], exponential_decay(0.1))

    def test_bad_decay_output_rejected(self, dated_graph):
        graph, years = dated_graph
        with pytest.raises(ConfigError):
            time_weight_edges(graph, years, lambda gap: gap * 10 + 2)


class TestReduction:
    def test_no_decay_equals_pagerank(self, small_dataset):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        twpr = time_weighted_pagerank(graph, years, decay=no_decay(),
                                      tol=1e-12)
        plain = pagerank(graph, tol=1e-12, max_iter=500)
        assert np.abs(twpr.scores - plain.scores).sum() < 1e-8

    def test_decay_shifts_mass_to_recently_cited(self, dated_graph):
        graph, years = dated_graph
        flat = time_weighted_pagerank(graph, years, decay=no_decay())
        decayed = time_weighted_pagerank(graph, years,
                                         decay=exponential_decay(0.3))
        # Node 1 (cited across a 1-year gap) gains relative to node 0
        # (cited across a 15-year gap).
        assert decayed.scores[1] > flat.scores[1]
        assert decayed.scores[0] < flat.scores[0]


class TestSolverAgreement:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_methods_share_fixed_point(self, small_dataset, method):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        reference = time_weighted_pagerank(graph, years, method="power",
                                           tol=1e-12, max_iter=500)
        result = solve(graph, years, method, tol=1e-12, max_iter=500)
        assert result.converged
        assert np.abs(result.scores - reference.scores).sum() < 1e-8

    def test_levels_much_fewer_iterations_on_dag(self, small_dataset):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        power = time_weighted_pagerank(graph, years, method="power")
        levels = time_weighted_pagerank(graph, years, method="levels")
        assert levels.iterations <= power.iterations / 5

    def test_cyclic_graph_still_converges(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
        years = np.array([2000, 2000, 2005])
        for method in SOLVERS:
            result = solve(graph, years, method, tol=1e-11, max_iter=500)
            assert result.converged, method
        power = time_weighted_pagerank(graph, years, method="power",
                                       tol=1e-12, max_iter=500)
        levels = time_weighted_pagerank(graph, years, method="levels",
                                        tol=1e-12, max_iter=500)
        assert np.abs(power.scores - levels.scores).sum() < 1e-8

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=20),
           st.lists(st.integers(1990, 2010), min_size=8, max_size=8))
    def test_agreement_on_random_graphs(self, edges, year_list):
        graph = CSRGraph.from_edges(edges, nodes=range(8))
        years = np.array(year_list)
        power = time_weighted_pagerank(graph, years, method="power",
                                       tol=1e-12, max_iter=1000)
        levels = time_weighted_pagerank(graph, years, method="levels",
                                        tol=1e-12, max_iter=1000)
        assert np.abs(power.scores - levels.scores).sum() < 1e-7


class TestInterface:
    def test_auto_uses_levels(self, dated_graph):
        graph, years = dated_graph
        result = time_weighted_pagerank(graph, years, method="auto")
        assert result.method == "levels"

    def test_unknown_method(self, dated_graph):
        graph, years = dated_graph
        for method in ("magic", "gauss_seidel"):  # the latter until PR 23
            with pytest.raises(ConfigError):
                time_weighted_pagerank(graph, years, method=method)

    @pytest.mark.parametrize("kwargs", [
        {"damping": 1.0}, {"tol": 0}, {"max_iter": 0},
    ])
    def test_invalid_parameters(self, dated_graph, kwargs):
        graph, years = dated_graph
        with pytest.raises(ConfigError):
            time_weighted_pagerank(graph, years, **kwargs)

    def test_raise_on_divergence(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
        years = np.array([2000, 2001, 2002])
        with pytest.raises(ConvergenceError):
            time_weighted_pagerank(graph, years, method="power",
                                   tol=1e-15, max_iter=2,
                                   raise_on_divergence=True)

    def test_empty_graph(self):
        result = time_weighted_pagerank(
            CSRGraph.from_edges([], nodes=[]), np.array([]))
        assert result.converged
        assert result.method == "levels"  # "auto" resolved here too

    def test_warm_start(self, small_dataset):
        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        cold = time_weighted_pagerank(graph, years, method="power",
                                      tol=1e-12, max_iter=500)
        warm = time_weighted_pagerank(graph, years, method="power",
                                      tol=1e-12, max_iter=500,
                                      initial=cold.scores)
        assert warm.iterations < cold.iterations


class TestInitialValidation:
    """Regression: a bad `initial` used to flow straight into the solver
    (power normalized silently, the sweep solvers used it raw)."""

    @pytest.mark.parametrize("method", SOLVERS)
    @pytest.mark.parametrize("bad", [
        np.ones(3),                      # wrong shape
        np.array([1.0, np.nan, 1.0, 1.0]),
        np.array([1.0, np.inf, 1.0, 1.0]),
        np.array([1.0, -1.0, 1.0, 1.0]),  # negative mass
        np.zeros(4),                      # zero total mass
    ])
    def test_bad_initial_rejected(self, dated_graph, method, bad):
        graph, years = dated_graph
        with pytest.raises(ConfigError):
            solve(graph, years, method, initial=bad)

    @pytest.mark.parametrize("method", SOLVERS)
    def test_unnormalized_initial_is_normalized(self, dated_graph, method):
        graph, years = dated_graph
        base = solve(graph, years, method, tol=1e-12, max_iter=500)
        scaled = solve(graph, years, method, tol=1e-12, max_iter=500,
                       initial=np.full(4, 7.0))
        assert np.abs(base.scores - scaled.scores).sum() < 1e-10


class TestTelemetry:
    """Telemetry is a passive observer: identical fixed points on/off."""

    @pytest.mark.parametrize("method", SOLVERS)
    def test_scores_bit_identical_with_telemetry(self, small_dataset,
                                                 method):
        from repro.obs import SolverTelemetry

        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        plain = solve(graph, years, method)
        telemetry = SolverTelemetry()
        observed = solve(graph, years, method, telemetry=telemetry)
        assert np.array_equal(plain.scores, observed.scores)
        assert observed.iterations == plain.iterations
        assert telemetry.iterations == observed.iterations
        if method != "gauss_seidel":  # TWPR names the solver it ran
            assert telemetry.solver == method
        assert telemetry.residuals[-1] <= 1e-10
        assert len(telemetry.dangling_mass) == telemetry.iterations

    def test_auto_reports_levels(self, small_dataset):
        from repro.obs import SolverTelemetry

        graph = small_dataset.citation_csr()
        years = small_dataset.article_years(graph)
        telemetry = SolverTelemetry()
        time_weighted_pagerank(graph, years, method="auto",
                               telemetry=telemetry)
        assert telemetry.solver == "levels"
        assert telemetry.counters["levels"] >= 1
        assert "dangling_nodes" in telemetry.counters
