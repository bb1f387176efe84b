"""Block-centric (graph-centric) PageRank execution.

Distributed graph systems come in two paradigms. *Vertex-centric*
(Pregel): every superstep, every vertex recomputes from its neighbours'
previous values — one superstep is one Jacobi iteration, and information
travels one hop per superstep. *Graph-centric* (Giraph++ / Blogel): each
worker owns a whole subgraph and, within one superstep, iterates its block
to **local convergence** before exchanging boundary values — information
crosses an entire block per superstep, so far fewer (expensive,
communication-bearing) supersteps are needed.

The paper parallelizes its batch algorithm in the graph-centric paradigm;
this module reproduces the claim measurably on one machine:
:class:`BlockEngine` counts supersteps and boundary messages, and
:func:`vertex_centric_pagerank` provides the Pregel-style baseline with
identical accounting. Wall-clock scaling across real worker processes is
in :mod:`repro.engine.parallel`, whose engine subclasses
:class:`BlockEngine`: the superstep loop and the block-skip rule live
here, once (:meth:`BlockEngine._run`).

Dangling handling: when the dangling-mass redistribution vector equals
the jump vector (our case — both uniform/personalized identically), the
PageRank vector is the L1-normalized solution of the *leaky* system

    y = damping * P~^T y + (1 - damping) * jump

where ``P~`` simply has zero rows for dangling nodes: reinjected dangling
mass is a rank-one term along ``jump`` that only rescales the solution.
The engines therefore iterate the leaky system — which removes a global
all-to-all coupling and lets blocks/workers converge along real graph
edges only — and normalize once at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph, stable_order
from repro.graph.partition import Partition
from repro.obs.handle import Observability, maybe_span, resolve_telemetry
from repro.obs.telemetry import SolverTelemetry
from repro.ranking.pagerank import (
    build_transition,
    transition_probabilities,
    validate_edge_weights,
    validate_initial,
    validate_jump,
)


@dataclass(frozen=True)
class BlockRankResult:
    """Outcome of a block- or vertex-centric solve with cost accounting.

    ``messages`` counts cross-block edge traversals (the proxy for
    network traffic); ``local_iterations`` sums the inner iterations all
    blocks performed. ``blocks_skipped`` counts block-supersteps elided
    by frontier compaction (always 0 for the vertex-centric baseline) —
    skipping never changes the scores, the residual trajectory or the
    superstep count, only the work done.
    """

    scores: np.ndarray
    supersteps: int
    messages: int
    local_iterations: int
    residual: float
    converged: bool
    blocks_skipped: int = 0


@dataclass(frozen=True)
class BlockOperators:
    """Per-block solve operators plus the block-coupling structure.

    For block ``b`` with node set ``members[b]``:
    ``internal_ops[b] @ scores[members[b]]`` pulls along within-block
    edges and ``boundary_ops[b] @ scores`` pulls along edges entering
    the block from outside. ``probability`` is the per-edge transition
    probability both operator families were built from (kept for
    diagnostics; the engines never re-consume it). ``source_blocks[b]``
    lists the *other* blocks owning at least one in-edge of block ``b``
    — the dependency structure frontier compaction skips against.
    """

    members: List[np.ndarray]
    internal_ops: List[csr_matrix]
    boundary_ops: List[csr_matrix]
    dangling: np.ndarray
    probability: np.ndarray
    cut_edges: int
    source_blocks: List[np.ndarray]


def _block_operators(graph: CSRGraph, partition: Partition,
                     edge_weights: Optional[np.ndarray]
                     ) -> BlockOperators:
    """Split the pull operator into internal and boundary parts per block.

    Edge weights go through
    :func:`repro.ranking.pagerank.validate_edge_weights` — the same
    guard as every other solver entry point — so a NaN or negative
    override fails loudly here too instead of corrupting the block
    engines' fixed point.
    """
    n = graph.num_nodes
    dst_idx = graph.indices
    src_idx, probability, dangling = transition_probabilities(
        graph, validate_edge_weights(graph, edge_weights))

    num_blocks = partition.num_blocks
    src_block = partition.assignment[src_idx]
    dst_block = partition.assignment[dst_idx]
    cut = src_block != dst_block
    cut_edges = int(np.count_nonzero(cut))

    # Block-level dependency edges (dst_block <- src_block), deduplicated
    # on one integer key; ascending keys are ascending (dst, src) pairs.
    coupling = np.unique(dst_block[cut] * num_blocks + src_block[cut])
    source_blocks = np.split(coupling % num_blocks, np.searchsorted(
        coupling // num_blocks, np.arange(1, num_blocks)))

    members = [partition.members(block) for block in range(num_blocks)]
    local_index = np.empty(n, dtype=np.int64)
    for nodes in members:
        local_index[nodes] = np.arange(len(nodes))
    # One stable sort groups the edges by (destination block, internal
    # before boundary) and keeps CSR edge order inside each group, so a
    # block's operators are built from contiguous slices. The key takes
    # ``dst_block``'s buffer: no extra edge-length array stays live.
    group = np.multiply(dst_block, 2, out=dst_block)
    group += cut
    order = stable_order(group, 2 * num_blocks)
    bounds = np.searchsorted(group, range(2 * num_blocks + 1), sorter=order)
    values, cols = probability[order], src_idx[order]
    rows = local_index[dst_idx[order]]

    internal_ops: List[csr_matrix] = []
    boundary_ops: List[csr_matrix] = []
    for block, nodes in enumerate(members):
        internal = slice(bounds[2 * block], bounds[2 * block + 1])
        boundary = slice(bounds[2 * block + 1], bounds[2 * block + 2])
        internal_ops.append(csr_matrix(
            (values[internal],
             (rows[internal], local_index[cols[internal]])),
            shape=(len(nodes), len(nodes))))
        boundary_ops.append(csr_matrix(
            (values[boundary], (rows[boundary], cols[boundary])),
            shape=(len(nodes), n)))
    return BlockOperators(members, internal_ops, boundary_ops, dangling,
                          probability, cut_edges, source_blocks)


def flatten_block_payload(payload: Dict[int, tuple]
                          ) -> Tuple[Dict[str, np.ndarray],
                                     Dict[int, Tuple[Tuple[int, int],
                                                     Tuple[int, int]]]]:
    """Decompose a worker's block payload into named flat arrays.

    Each block entry ``(internal_op, boundary_op, jump_block, members)``
    becomes eight arrays (CSR triples of both operators, plus the jump
    and member vectors) keyed ``b<id>.<part>``, ready for
    :func:`repro.engine.shm.pack_arrays`. Returns the array dict and the
    per-block operator shapes (the only metadata the arrays themselves
    do not carry). Inverse: :func:`rebuild_block_payload`.
    """
    arrays: Dict[str, np.ndarray] = {}
    shapes: Dict[int, Tuple[Tuple[int, int], Tuple[int, int]]] = {}
    for block_id, (internal, boundary, jump_block, members) \
            in payload.items():
        key = f"b{block_id}."
        arrays[key + "int.data"] = internal.data
        arrays[key + "int.indices"] = internal.indices
        arrays[key + "int.indptr"] = internal.indptr
        arrays[key + "bnd.data"] = boundary.data
        arrays[key + "bnd.indices"] = boundary.indices
        arrays[key + "bnd.indptr"] = boundary.indptr
        arrays[key + "jump"] = jump_block
        arrays[key + "members"] = members
        shapes[block_id] = (tuple(internal.shape), tuple(boundary.shape))
    return arrays, shapes


def rebuild_block_payload(arrays: Dict[str, np.ndarray],
                          shapes: Dict[int, Tuple[Tuple[int, int],
                                                  Tuple[int, int]]]
                          ) -> Dict[int, tuple]:
    """Reassemble a block payload from (shared-memory) array views.

    The CSR operators are rebuilt with ``copy=False`` around the given
    buffers, so a payload attached from shared memory stays zero-copy:
    the worker's ``internal_op @ scores`` reads the coordinator's pages
    directly.
    """
    payload: Dict[int, tuple] = {}
    for block_id, (internal_shape, boundary_shape) in shapes.items():
        key = f"b{block_id}."
        internal = csr_matrix(
            (arrays[key + "int.data"], arrays[key + "int.indices"],
             arrays[key + "int.indptr"]),
            shape=internal_shape, copy=False)
        boundary = csr_matrix(
            (arrays[key + "bnd.data"], arrays[key + "bnd.indices"],
             arrays[key + "bnd.indptr"]),
            shape=boundary_shape, copy=False)
        payload[block_id] = (internal, boundary, arrays[key + "jump"],
                             arrays[key + "members"])
    return payload


def solve_block(internal_op: csr_matrix, external: np.ndarray,
                jump_block: np.ndarray, initial: np.ndarray,
                damping: float, local_tol: float,
                local_max_iter: int) -> Tuple[np.ndarray, int]:
    """Iterate one block to local convergence with fixed external input.

    Solves ``s = damping * (P_bb^T s + external) + (1-damping) * jump_b``
    by Jacobi iteration from ``initial``. Returns the block scores and
    the number of inner iterations. Module-level so worker processes can
    import it.
    """
    scores = initial.copy()
    constant = damping * external + (1.0 - damping) * jump_block
    iterations = 0
    for iterations in range(1, local_max_iter + 1):
        updated = damping * (internal_op @ scores) + constant
        change = float(np.abs(updated - scores).sum())
        scores = updated
        if change <= local_tol:
            break
    return scores, iterations


def _solve_block_set(blocks: Dict[int, tuple], block_ids: List[int],
                     previous: np.ndarray, damping: float,
                     local_tol: float, local_max_iter: int
                     ) -> List[Tuple[int, np.ndarray, int]]:
    """Solve one slot's blocks in order, each seeing the fresh scores of
    the ones before it (the asynchronous-within-partition trait of
    graph-centric runtimes); everything else is read from ``previous``.
    ``blocks`` maps block id to ``(internal_op, boundary_op, jump_block,
    members)``. This is the *single* solve path: the serial engine,
    worker processes and the coordinator's degraded-worker fallback all
    call it, which makes recovery bit-identical to normal execution.
    """
    working = previous.copy()
    results = []
    for block_id in block_ids:
        internal_op, boundary_op, jump_block, members = blocks[block_id]
        external = boundary_op @ working
        scores, inner = solve_block(
            internal_op, external, jump_block, working[members],
            damping, local_tol, local_max_iter)
        working[members] = scores
        results.append((block_id, scores, inner))
    return results


class BlockEngine:
    """Sequential graph-centric PageRank over a partitioned graph.

    The fixed point matches :func:`repro.ranking.pagerank.pagerank` with
    the same damping/jump/weights; only the path (and the communication
    cost) differs.

    Owns the superstep coordinator (:meth:`_run`) of every block
    engine, parameterised by *slots* — ordered block-id lists, Gauss–
    Seidel inside a slot, Jacobi across slots — and by :meth:`_solver`.
    This engine is one slot solved inline;
    :class:`repro.engine.parallel.ParallelBlockEngine` gives every
    worker process a slot.
    """

    #: convergence-stream name of a run.
    _stream = "block_engine"

    def __init__(self, graph: CSRGraph, partition: Partition,
                 damping: float = 0.85,
                 jump: Optional[np.ndarray] = None,
                 edge_weights: Optional[np.ndarray] = None) -> None:
        if partition.num_nodes != graph.num_nodes:
            raise ConfigError("partition does not cover this graph")
        if not 0.0 <= damping < 1.0:
            raise ConfigError(f"damping must be in [0, 1), got {damping}")
        self.graph = graph
        self.partition = partition
        self.damping = damping
        self.jump = validate_jump(jump, graph.num_nodes)
        operators = _block_operators(graph, partition, edge_weights)
        self._members = operators.members
        self._cut_edges = operators.cut_edges
        self._source_blocks = operators.source_blocks
        #: block id -> the payload :func:`_solve_block_set` consumes.
        self._blocks: Dict[int, tuple] = {
            block: (operators.internal_ops[block],
                    operators.boundary_ops[block], self.jump[nodes], nodes)
            for block, nodes in enumerate(operators.members)}

    def run(self, tol: float = 1e-10, max_supersteps: int = 100,
            local_tol: float = 1e-12, local_max_iter: int = 50,
            initial: Optional[np.ndarray] = None,
            block_order: Optional[Sequence[int]] = None,
            telemetry: Optional[SolverTelemetry] = None,
            obs: Optional[Observability] = None
            ) -> BlockRankResult:
        """Iterate supersteps until the global L1 change drops below tol.

        Within a superstep, blocks consume the *freshest* available
        scores (Gauss–Seidel across blocks) — the asynchronous-within-
        partition behaviour that gives graph-centric systems their
        superstep advantage. ``block_order`` fixes the processing order;
        the default walks blocks from the highest node indices down,
        which, for a time-ordered range partition of a citation graph,
        processes citing cohorts before the cohorts they cite.

        A block whose inputs are bitwise unchanged since its last solve
        is skipped — a bit-exact no-op elision counted in
        ``blocks_skipped``; :meth:`_run` states the rule.

        ``telemetry`` (optional) records, per superstep: wall-clock,
        boundary messages, global residual and per-block inner
        iterations (0 for skipped blocks), plus a ``blocks_skipped``
        counter. The fixed point is unchanged with it on or off.
        """
        num_blocks = self.partition.num_blocks
        order = list(block_order) if block_order is not None \
            else list(range(num_blocks - 1, -1, -1))
        if sorted(order) != list(range(num_blocks)):
            raise ConfigError("block_order must permute all blocks")
        return self._run([order], initial, tol, max_supersteps, local_tol,
                         local_max_iter, telemetry, obs)

    @contextmanager
    def _solver(self, local_tol: float, local_max_iter: int,
                telemetry: Optional[SolverTelemetry],
                obs: Optional[Observability]) -> Iterator[Callable]:
        """Open the run span and yield the solve step — the one thing a
        subclass overrides: ``(superstep, previous frontier, block ids
        to re-solve per slot)`` → ``(block, scores, inner)`` for each of
        them. Here: inline, slot after slot."""
        def solve(superstep, previous, dispatch):
            for block_ids in dispatch:
                yield from _solve_block_set(
                    self._blocks, block_ids, previous, self.damping,
                    local_tol, local_max_iter)

        with maybe_span(obs, "block_engine.run", nodes=self.graph.num_nodes,
                        blocks=self.partition.num_blocks):
            yield solve

    def _run(self, slots: List[List[int]], initial: Optional[np.ndarray],
             tol: float, max_supersteps: int, local_tol: float,
             local_max_iter: int,
             telemetry: Optional[SolverTelemetry],
             obs: Optional[Observability]) -> BlockRankResult:
        """The superstep coordinator — the only one the block engines have.

        Each superstep: decide per slot which blocks need a re-solve,
        hand those to the solve step, merge what comes back, account.
        A block is **skipped** when the skip is provably a bit-exact
        no-op: its own scores did not change (bitwise) during the
        previous superstep, no in-edge source block's did, and no
        in-edge source block of the *same slot* was re-solved earlier in
        this superstep (other slots are read from the previous frontier,
        so only same-slot activity can alter a block's input mid-
        superstep). Then its external input and starting point are
        bitwise those of its last solve, and ``solve_block`` is
        deterministic — so scores, residual trajectory and superstep
        count are unchanged; only ``local_iterations`` and dispatches
        drop (a slot with nothing to solve gets none), and
        ``blocks_skipped`` counts the elided work. Message accounting is
        intentionally untouched (a skip saves compute, not the
        superstep's cut-edge exchange budget, which E5 compares against
        the vertex-centric baseline).
        """
        if tol <= 0 or local_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if max_supersteps <= 0 or local_max_iter <= 0:
            raise ConfigError("iteration budgets must be positive")
        telemetry = resolve_telemetry(obs, telemetry)
        n = self.graph.num_nodes
        if n == 0:
            return BlockRankResult(np.zeros(0), 0, 0, 0, 0.0, True)
        validated = validate_initial(initial, n)
        scores = self.jump.copy() if validated is None \
            else validated.copy()
        num_blocks = self.partition.num_blocks
        stream = telemetry.open_stream(self._stream, kind="superstep") \
            if telemetry is not None else None
        local_iterations = 0
        blocks_skipped = 0
        changed_prev = np.ones(num_blocks, dtype=bool)
        with self._solver(local_tol, local_max_iter, telemetry,
                          obs) as solve:
            for supersteps in range(1, max_supersteps + 1):
                superstep_start = time.perf_counter()
                previous = scores
                with maybe_span(obs, "superstep", index=supersteps):
                    # block -> inner iterations this superstep; the
                    # decision pass enters the skipped blocks, as 0.
                    block_iterations: Dict[int, int] = {}
                    dispatch: List[List[int]] = []
                    for block_ids in slots:
                        # Same-slot activity is tracked in solve order:
                        # those blocks see each other's fresh values.
                        resolved = np.zeros(num_blocks, dtype=bool)
                        chosen: List[int] = []
                        for block in block_ids:
                            sources = self._source_blocks[block]
                            if (changed_prev[block]
                                    or changed_prev[sources].any()
                                    or resolved[sources].any()):
                                chosen.append(block)
                                resolved[block] = True
                            else:
                                block_iterations[block] = 0
                        dispatch.append(chosen)
                    step_skipped = len(block_iterations)
                    scores = previous.copy()
                    changed_now = np.zeros(num_blocks, dtype=bool)
                    for block, block_scores, inner in solve(
                            supersteps, previous, dispatch):
                        nodes = self._members[block]
                        scores[nodes] = block_scores
                        changed_now[block] = not np.array_equal(
                            block_scores, previous[nodes])
                        block_iterations[block] = inner
                    changed_prev = changed_now
                    step_local = sum(block_iterations.values())
                    local_iterations += step_local
                    blocks_skipped += step_skipped
                    if telemetry is not None and step_skipped:
                        telemetry.incr("blocks_skipped", step_skipped)
                    change = np.abs(scores - previous)
                    residual = float(change.sum())
                    seconds = time.perf_counter() - superstep_start
                    if telemetry is not None:
                        telemetry.record_superstep(
                            seconds, self._cut_edges, residual,
                            local_iterations=step_local,
                            block_iterations=block_iterations)
                        stream.record(
                            residual, delta=float(change.max()),
                            active=int(np.count_nonzero(change > tol)),
                            seconds=seconds)
                    if obs is not None:
                        obs.metrics.counter(
                            "repro_supersteps_total",
                            "Block-engine supersteps executed.").inc()
                        obs.metrics.histogram(
                            "repro_superstep_seconds",
                            "Wall-clock seconds per block-engine "
                            "superstep.").observe(seconds)
                if residual <= tol:
                    break
        return BlockRankResult(
            scores / scores.sum(), supersteps, supersteps * self._cut_edges,
            local_iterations, residual, residual <= tol, blocks_skipped)


def vertex_centric_pagerank(graph: CSRGraph, partition: Partition,
                            damping: float = 0.85, tol: float = 1e-10,
                            max_supersteps: int = 200,
                            jump: Optional[np.ndarray] = None,
                            edge_weights: Optional[np.ndarray] = None,
                            telemetry: Optional[SolverTelemetry] = None,
                            obs: Optional[Observability] = None
                            ) -> BlockRankResult:
    """Pregel-style baseline: one Jacobi iteration per superstep.

    Identical accounting to :class:`BlockEngine` — every superstep sends
    every cut edge once — so the two are directly comparable in the E5
    tables.
    """
    if not 0.0 <= damping < 1.0:
        raise ConfigError(f"damping must be in [0, 1), got {damping}")
    if tol <= 0 or max_supersteps <= 0:
        raise ConfigError("tol and max_supersteps must be positive")
    telemetry = resolve_telemetry(obs, telemetry)
    n = graph.num_nodes
    if n == 0:
        return BlockRankResult(np.zeros(0), 0, 0, 0, 0.0, True)
    if partition.num_nodes != n:
        raise ConfigError("partition does not cover this graph")

    transition_t, _ = build_transition(graph, edge_weights)
    jump_vector = validate_jump(jump, n)
    cut = partition.edge_cut(graph)

    scores = jump_vector.copy()
    stream = telemetry.open_stream("vertex_centric", kind="superstep") \
        if telemetry is not None else None
    with maybe_span(obs, "vertex_centric.run", nodes=n,
                    blocks=partition.num_blocks):
        messages = 0
        for supersteps in range(1, max_supersteps + 1):
            superstep_start = time.perf_counter()
            new_scores = damping * (transition_t @ scores) \
                + (1.0 - damping) * jump_vector
            messages += cut
            change = np.abs(new_scores - scores)
            residual = float(change.sum())
            scores = new_scores
            if telemetry is not None:
                seconds = time.perf_counter() - superstep_start
                telemetry.record_superstep(seconds, cut, residual,
                                           local_iterations=1)
                stream.record(
                    residual, delta=float(change.max()),
                    active=int(np.count_nonzero(change > tol)),
                    seconds=seconds)
            if residual <= tol:
                break
    converged = residual <= tol
    scores = scores / scores.sum()
    return BlockRankResult(scores, supersteps, messages, supersteps,
                           residual, converged)
