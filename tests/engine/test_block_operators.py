"""Exactness of the one-pass block-operator build.

``_block_operators`` used to deduplicate block coupling with a
row-wise ``np.unique`` over every cut edge and to select each block's
edges with three O(E) boolean masks. It now groups the edges with one
stable sort and slices. The mask-based body lives on *here* as the
oracle: the same COO triples go into the same ``csr_matrix``
constructor in the same order, so every array must be bit-identical —
including scipy's summing of parallel edges — and so must the scores
both engines compute from them.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from repro.engine import blocks
from repro.engine.blocks import BlockEngine, BlockOperators, _block_operators
from repro.engine.parallel import ParallelBlockEngine
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    Partition,
    bfs_partition,
    hash_partition,
    range_partition,
)
from repro.ranking.pagerank import validate_edge_weights


def mask_block_operators(graph, partition, edge_weights):
    """The pre-grouping build: one mask triple per block."""
    n = graph.num_nodes
    weights = validate_edge_weights(graph, edge_weights)

    src_idx, dst_idx, _ = graph.edge_array()
    strengths = np.bincount(src_idx, weights=weights, minlength=n)
    dangling = strengths == 0.0
    probability = weights / np.where(dangling, 1.0, strengths)[src_idx]

    assignment = partition.assignment
    internal_mask = assignment[src_idx] == assignment[dst_idx]
    cut_edges = int(np.count_nonzero(~internal_mask))

    cut_src = assignment[src_idx[~internal_mask]]
    cut_dst = assignment[dst_idx[~internal_mask]]
    coupling = np.unique(np.stack([cut_dst, cut_src], axis=1), axis=0) \
        if len(cut_src) else np.zeros((0, 2), dtype=np.int64)

    members: List[np.ndarray] = []
    internal_ops: List[csr_matrix] = []
    boundary_ops: List[csr_matrix] = []
    source_blocks: List[np.ndarray] = []
    local_index = np.empty(n, dtype=np.int64)
    for block in range(partition.num_blocks):
        nodes = partition.members(block)
        members.append(nodes)
        local_index[nodes] = np.arange(len(nodes))
        in_block_dst = assignment[dst_idx] == block
        internal = in_block_dst & internal_mask
        boundary = in_block_dst & ~internal_mask
        internal_ops.append(csr_matrix(
            (probability[internal],
             (local_index[dst_idx[internal]],
              local_index[src_idx[internal]])),
            shape=(len(nodes), len(nodes))))
        boundary_ops.append(csr_matrix(
            (probability[boundary],
             (local_index[dst_idx[boundary]], src_idx[boundary])),
            shape=(len(nodes), n)))
        source_blocks.append(coupling[coupling[:, 0] == block, 1])
    return BlockOperators(members, internal_ops, boundary_ops, dangling,
                          probability, cut_edges, source_blocks)


def assert_same_array(built, expected, what):
    assert built.dtype == expected.dtype, what
    assert np.array_equal(built, expected), what


def assert_same_operators(built: BlockOperators, expected: BlockOperators):
    assert built.cut_edges == expected.cut_edges
    assert_same_array(built.dangling, expected.dangling, "dangling")
    assert_same_array(built.probability, expected.probability,
                      "probability")
    assert len(built.members) == len(expected.members)
    for block in range(len(expected.members)):
        assert_same_array(built.members[block], expected.members[block],
                          f"members[{block}]")
        sources = built.source_blocks[block]
        assert_same_array(sources, expected.source_blocks[block],
                          f"source_blocks[{block}]")
        assert np.all(np.diff(sources) > 0) and block not in sources
        for family in ("internal_ops", "boundary_ops"):
            matrix = getattr(built, family)[block]
            reference = getattr(expected, family)[block]
            assert matrix.shape == reference.shape, (family, block)
            for part in ("data", "indices", "indptr"):
                assert_same_array(getattr(matrix, part),
                                  getattr(reference, part),
                                  f"{family}[{block}].{part}")


def parallel_edge_graph() -> CSRGraph:
    """Repeated (src, dst) pairs with unequal weights: scipy sums them
    in COO order, so the order must not move."""
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 12, size=(90, 2))
    pairs = np.concatenate([pairs, pairs[:40], pairs[10:30]])
    return CSRGraph.from_edges(pairs, nodes=range(14),
                               weights=rng.random(len(pairs)) + 0.01)


def edgeless_graph() -> CSRGraph:
    return CSRGraph.from_edges([], nodes=range(6))


PARTITIONERS = {
    "range": range_partition,
    "hash": lambda graph, blocks: hash_partition(graph, blocks, seed=3),
    "bfs": lambda graph, blocks: bfs_partition(graph, blocks, seed=3),
}


@pytest.fixture(scope="module")
def graphs(small_dataset):
    generated = small_dataset.citation_csr()
    rng = np.random.default_rng(17)
    return {
        "generated": (generated, None),
        "weighted": (generated, rng.random(generated.num_edges) + 0.05),
        "parallel": (parallel_edge_graph(), None),
        "edgeless": (edgeless_graph(), None),
    }


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("case", ["generated", "weighted", "parallel",
                                  "edgeless"])
@pytest.mark.parametrize("blocks_of", [lambda n: 1, lambda n: 3,
                                       lambda n: 8, lambda n: n + 2],
                         ids=["1", "3", "8", "n+2"])
def test_operators_equal_the_mask_build(graphs, case, partitioner,
                                        blocks_of):
    graph, weights = graphs[case]
    if case in ("generated", "weighted") and partitioner == "bfs":
        # bfs region growing is per-node Python: a 300-node prefix.
        keep = 300
        src_idx, dst_idx, _ = graph.edge_array()
        inside = (src_idx < keep) & (dst_idx < keep)
        if weights is not None:
            weights = weights[inside]
        graph = CSRGraph.from_edges(
            np.stack([src_idx[inside], dst_idx[inside]], axis=1),
            nodes=range(keep))
    partition = PARTITIONERS[partitioner](
        graph, blocks_of(graph.num_nodes))
    assert_same_operators(_block_operators(graph, partition, weights),
                          mask_block_operators(graph, partition, weights))


def engine_results(graph, partition, weights):
    return (BlockEngine(graph, partition, edge_weights=weights).run(),
            ParallelBlockEngine(graph, partition, num_workers=2,
                                edge_weights=weights).run())


@pytest.mark.parametrize("case", ["weighted", "parallel"])
def test_engine_scores_equal_the_mask_build(graphs, case, monkeypatch):
    graph, weights = graphs[case]
    partition = hash_partition(graph, 5, seed=1)
    built = engine_results(graph, partition, weights)
    # Both engines build through BlockEngine.__init__; the parallel
    # coordinator ships what it built to its workers.
    monkeypatch.setattr(blocks, "_block_operators", mask_block_operators)
    expected = engine_results(graph, partition, weights)
    for result, reference in zip(built, expected):
        assert reference.converged
        assert np.array_equal(result.scores, reference.scores)
        assert (result.supersteps, result.messages,
                result.local_iterations, result.blocks_skipped) == (
            reference.supersteps, reference.messages,
            reference.local_iterations, reference.blocks_skipped)


@st.composite
def graph_and_assignment(draw):
    nodes = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    weights = draw(st.lists(
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        min_size=len(edges), max_size=len(edges)))
    num_blocks = draw(st.integers(min_value=1, max_value=nodes + 2))
    assignment = draw(st.lists(
        st.integers(min_value=0, max_value=num_blocks - 1),
        min_size=nodes, max_size=nodes))
    return (CSRGraph.from_edges(edges, nodes=range(nodes)),
            np.asarray(weights, dtype=np.float64),
            Partition(np.asarray(assignment, dtype=np.int64), num_blocks))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_and_assignment())
def test_random_graphs_and_assignments(drawn):
    """Self loops, parallel edges, zero weights, empty blocks, blocks
    nobody points into — whatever the assignment, same arrays."""
    graph, weights, partition = drawn
    assert_same_operators(_block_operators(graph, partition, weights),
                          mask_block_operators(graph, partition, weights))
