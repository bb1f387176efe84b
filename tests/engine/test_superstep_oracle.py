"""The block engines against a superstep loop that never skips a block.

``reference_supersteps`` is the loop both engines ran before they shared
one coordinator, minus frontier compaction: every block is re-solved
every superstep. Compaction claims to be a bit-exact no-op elision, so
the engines must reproduce the oracle's scores, superstep count,
messages and residual exactly and may differ only by doing less inner
work. ``test_blocks.py`` / ``test_parallel.py`` import the oracle too.
"""

import numpy as np
import pytest

from repro.engine.blocks import (BlockEngine, BlockRankResult,
                                 _block_operators, solve_block)
from repro.engine.parallel import ParallelBlockEngine
from repro.graph.csr import CSRGraph
from repro.graph.partition import (Partition, hash_partition,
                                   range_partition)
from repro.ranking.pagerank import validate_initial

TOLS = {"tol": 1e-13, "local_tol": 1e-14}


def reference_supersteps(operators, slots, jump, damping=0.85, tol=1e-10,
                         max_supersteps=100, local_tol=1e-12,
                         local_max_iter=50, initial=None):
    """Every block, every superstep: fresh values inside a slot, the
    previous frontier across slots. ``jump`` is the validated vector."""
    validated = validate_initial(initial, len(jump))
    scores = jump.copy() if validated is None else validated.copy()
    local_iterations = 0
    for supersteps in range(1, max_supersteps + 1):
        previous = scores.copy()
        for slot in slots:
            working = previous.copy()
            for block in slot:
                nodes = operators.members[block]
                external = operators.boundary_ops[block] @ working
                working[nodes], inner = solve_block(
                    operators.internal_ops[block], external, jump[nodes],
                    working[nodes], damping, local_tol, local_max_iter)
                scores[nodes] = working[nodes]
                local_iterations += inner
        residual = float(np.abs(scores - previous).sum())
        if residual <= tol:
            break
    return BlockRankResult(scores / scores.sum(), supersteps,
                           supersteps * operators.cut_edges,
                           local_iterations, residual, residual <= tol)


def oracle_for(engine, slots=None, edge_weights=None, **run_kwargs):
    """The oracle on ``engine``'s graph, partition, jump and damping."""
    if slots is None:
        slots = [ids for ids in engine._assignment_to_worker if ids]
    operators = _block_operators(engine.graph, engine.partition,
                                 edge_weights)
    return reference_supersteps(operators, slots, engine.jump,
                                engine.damping, **run_kwargs)


def assert_equals_oracle(result, oracle):
    """Bit-equal outcome; never more inner work, less iff blocks skipped
    (a skipped block-superstep costs the oracle at least one pass)."""
    assert np.array_equal(result.scores, oracle.scores)
    assert (result.supersteps, result.messages, result.residual,
            result.converged) == (oracle.supersteps, oracle.messages,
                                  oracle.residual, oracle.converged)
    assert result.local_iterations + result.blocks_skipped \
        <= oracle.local_iterations
    if not result.blocks_skipped:
        assert result.local_iterations == oracle.local_iterations


def chain_graph():
    """Nodes 0-19: self-contained per-block chains that settle after one
    superstep; nodes 20-39: a long cross-block cycle that keeps
    iterating — so under ``range_partition(graph, 8)`` the quiet blocks
    0-3 get skipped while blocks 4-7 stay busy."""
    edges = [(i, i + 1) for i in range(20) if (i + 1) % 5 != 0]
    edges += [(i, 20 + (i - 19) % 20) for i in range(20, 40)]
    return CSRGraph.from_edges(edges, nodes=range(40))


@pytest.fixture(scope="module")
def graph(small_dataset):
    return small_dataset.citation_csr()


PARTITIONS = {"range": lambda g: range_partition(g, 4),
              "hash": lambda g: hash_partition(g, 5, seed=1)}


@pytest.mark.parametrize("partitioner", sorted(PARTITIONS))
@pytest.mark.parametrize("variant", ["plain", "block_order", "initial",
                                     "jump", "edge_weights"])
def test_block_engine_equals_oracle(graph, partitioner, variant):
    partition = PARTITIONS[partitioner](graph)
    rng = np.random.default_rng(5)
    engine_kwargs, run_kwargs = {}, {}
    order = list(range(partition.num_blocks - 1, -1, -1))
    if variant == "block_order":
        order = [int(b) for b in rng.permutation(partition.num_blocks)]
        run_kwargs["block_order"] = order
    elif variant == "initial":
        run_kwargs["initial"] = rng.random(graph.num_nodes) + 0.01
    elif variant == "jump":
        engine_kwargs["jump"] = rng.random(graph.num_nodes)
    elif variant == "edge_weights":
        engine_kwargs["edge_weights"] = rng.random(graph.num_edges) + 0.1
    engine = BlockEngine(graph, partition, **engine_kwargs)
    result = engine.run(**TOLS, **run_kwargs)
    assert result.converged
    assert_equals_oracle(result, oracle_for(
        engine, [order], engine_kwargs.get("edge_weights"), **TOLS,
        initial=run_kwargs.get("initial")))


@pytest.mark.parametrize("plane", [False, "auto"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", ["generated-range", "generated-hash",
                                  "chain"])
def test_parallel_engine_equals_oracle(graph, case, workers, plane):
    if case == "chain":
        graph = chain_graph()
        partition = range_partition(graph, 8)
    else:
        partition = PARTITIONS[case.split("-")[1]](graph)
    rng = np.random.default_rng(6)
    weights = rng.random(graph.num_edges) + 0.1
    engine = ParallelBlockEngine(
        graph, partition, num_workers=workers, shared_memory=plane,
        jump=rng.random(graph.num_nodes), edge_weights=weights)
    result = engine.run(**TOLS)
    assert result.converged
    assert_equals_oracle(result, oracle_for(engine, None, weights, **TOLS))


def test_block_follows_a_same_slot_source_solved_this_superstep():
    """2 → 3 → 1 from the uniform start, solved [block of 3, block of 1,
    block of 0 and 2]: superstep 1 leaves nodes 3 and 1 bitwise at 1/4
    (each pulls one out-degree-1 source at 1/4), so in superstep 2 the
    block of 1 is re-solved only because the block of 3 was, earlier in
    the same slot. One worker per block reads the previous frontier
    instead, and the oracle follows the slots either way."""
    graph = CSRGraph.from_edges([(3, 1), (2, 3)], nodes=range(4))
    partition = Partition(np.array([0, 1, 0, 2]), 3)
    engine = BlockEngine(graph, partition)
    result = engine.run(block_order=[2, 1, 0])
    assert result.blocks_skipped > 0
    assert_equals_oracle(result, oracle_for(engine, [[2, 1, 0]]))
    for workers in (1, 3):
        engine = ParallelBlockEngine(graph, partition, num_workers=workers)
        assert_equals_oracle(engine.run(), oracle_for(engine))


@pytest.mark.parametrize("partitioner", sorted(PARTITIONS))
def test_one_worker_is_the_serial_engine(graph, partitioner):
    """One slot, one loop: every result field agrees, not just scores."""
    partition = PARTITIONS[partitioner](graph)
    serial = BlockEngine(graph, partition).run(**TOLS)
    parallel = ParallelBlockEngine(graph, partition,
                                   num_workers=1).run(**TOLS)
    assert np.array_equal(serial.scores, parallel.scores)
    assert (serial.supersteps, serial.messages, serial.local_iterations,
            serial.residual, serial.converged, serial.blocks_skipped) == (
        parallel.supersteps, parallel.messages, parallel.local_iterations,
        parallel.residual, parallel.converged, parallel.blocks_skipped)


@pytest.mark.parametrize("engine_type", [BlockEngine, ParallelBlockEngine])
def test_compaction_is_not_an_option(engine_type):
    graph = chain_graph()
    engine = engine_type(graph, range_partition(graph, 8))
    with pytest.raises(TypeError):
        engine.run(compaction=False)
