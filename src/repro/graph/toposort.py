"""Topological ordering (Kahn's algorithm) and level decomposition.

Used by the batch TWPR optimization: on an acyclic citation graph the
prestige linear system is triangular when swept in topological order, so a
single Gauss–Seidel pass per direction converges dramatically faster than
blind power iteration.

:func:`topological_levels` is the vectorized form the CSR solver kernels
run on: it groups nodes into *levels* such that every edge crosses from a
strictly lower level to a strictly higher one — so all nodes of one level
can be updated as a single sparse matvec / segment reduction instead of a
per-node Python loop. On cyclic graphs levels are computed on the SCC
condensation; members of a non-trivial SCC share a level (they are the
only nodes with intra-level edges, flagged by ``cyclic_mask``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph


def topological_sort(graph: CSRGraph) -> Optional[List[int]]:
    """Return node indices in topological order, or ``None`` if cyclic.

    An edge ``u -> v`` places ``u`` before ``v`` in the returned order.
    Ties (nodes whose in-degree reaches zero together) are broken by index,
    making the order deterministic.
    """
    n = graph.num_nodes
    in_deg = graph.in_degrees().copy()
    ready = deque(int(i) for i in np.flatnonzero(in_deg == 0))
    order: List[int] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for child in graph.neighbors(node):
            in_deg[child] -= 1
            if in_deg[child] == 0:
                ready.append(int(child))
    if len(order) != n:
        return None
    return order


def is_dag(graph: CSRGraph) -> bool:
    """True when ``graph`` contains no directed cycle."""
    return topological_sort(graph) is not None


def ragged_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for slice gathering (vectorized).

    Given per-group element counts, returns the within-group offset of
    every element — the standard trick for gathering many CSR segments
    in one shot: ``np.repeat(starts, counts) + ragged_offsets(counts)``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.ones(total, dtype=np.int64)
    offsets[0] = 0
    boundaries = np.cumsum(counts)[:-1]
    valid = boundaries < total
    # subtract.at handles repeated boundaries from zero-length groups.
    np.subtract.at(offsets, boundaries[valid],
                   np.asarray(counts[:-1])[valid])
    return np.cumsum(offsets)


@dataclass(frozen=True)
class LevelDecomposition:
    """Topological levels of a graph, suitable for batched sweeps.

    ``levels[v]`` is the length of the longest path reaching ``v`` (0 =
    no in-edges). Every edge ``u -> v`` satisfies
    ``levels[u] < levels[v]`` — except intra-SCC edges on cyclic graphs,
    where all members of one SCC share the level of their component in
    the condensation DAG and are flagged in ``cyclic_mask``. Nodes with
    ``cyclic_mask[v] == False`` therefore have *no* in-edges from their
    own level: a solver may update a whole level of them as one
    vectorized kernel without changing Gauss–Seidel sweep semantics.
    """

    levels: np.ndarray
    num_levels: int
    acyclic: bool
    #: ``True`` for nodes inside a strongly connected component of size
    #: > 1 (the only nodes that can have intra-level edges).
    cyclic_mask: np.ndarray


def topological_levels(graph: CSRGraph) -> LevelDecomposition:
    """Group nodes into topological levels (vectorized Kahn waves).

    Wave ``k`` removes exactly the nodes whose longest incoming path has
    length ``k``, so the whole decomposition costs a handful of numpy
    passes over the edge arrays. Cyclic graphs fall back to levels of
    the SCC condensation (all members of one SCC share a level).
    """
    n = graph.num_nodes
    if n == 0:
        return LevelDecomposition(np.zeros(0, dtype=np.int64), 0, True,
                                  np.zeros(0, dtype=bool))
    levels = _kahn_wave_levels(graph)
    if levels is not None:
        return LevelDecomposition(levels, int(levels.max()) + 1, True,
                                  np.zeros(n, dtype=bool))
    # Cycles present: condense and lift the condensation's levels.
    from repro.graph.scc import condensation

    dag, membership = condensation(graph)
    dag_levels = _kahn_wave_levels(dag)
    if dag_levels is None:  # pragma: no cover - condensation is a DAG
        raise ValueError("condensation was not acyclic")
    levels = dag_levels[membership]
    cyclic = (np.bincount(membership, minlength=dag.num_nodes)
              > 1)[membership]
    return LevelDecomposition(levels, int(dag_levels.max()) + 1, False,
                              cyclic)


def _kahn_wave_levels(graph: CSRGraph) -> Optional[np.ndarray]:
    """Longest-path levels of a DAG, or ``None`` when cyclic."""
    n = graph.num_nodes
    in_degree = graph.in_degrees().copy()
    levels = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(in_degree == 0)
    removed = len(frontier)
    level = 0
    while len(frontier):
        levels[frontier] = level
        # Gather all out-edges of the frontier in one shot.
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        if counts.sum() == 0:
            break
        gather = np.repeat(starts, counts) + ragged_offsets(counts)
        targets = graph.indices[gather]
        decrements = np.bincount(targets, minlength=n)
        in_degree -= decrements
        frontier = np.flatnonzero((in_degree == 0) & (decrements > 0))
        removed += len(frontier)
        level += 1
    if removed != n:
        return None
    return levels


def dag_violations(graph: CSRGraph, years: np.ndarray) -> int:
    """Count edges pointing *forward* in time (``t(src) < t(dst)``).

    A citation normally points backward in time; forward edges come from
    in-press cross-citations and data noise. The count feeds the dataset
    statistics table (experiment E9).
    """
    return int(np.count_nonzero(
        years[graph.edge_sources()] < years[graph.indices]))
