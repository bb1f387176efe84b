"""Directed-graph kernel used by every other subsystem.

The kernel's one representation is :class:`~repro.graph.csr.CSRGraph`, an
immutable, numpy-backed compressed sparse row graph used by all iterative
solvers.

Plus structural algorithms: Tarjan strongly-connected components,
Kahn topological sort, partitioners and summary statistics.
"""

from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    Partition,
    bfs_partition,
    hash_partition,
    range_partition,
)
from repro.graph.scc import condensation, strongly_connected_components
from repro.graph.stats import GraphStats, compute_stats
from repro.graph.toposort import is_dag, topological_sort

__all__ = [
    "CSRGraph",
    "Partition",
    "GraphStats",
    "bfs_partition",
    "hash_partition",
    "range_partition",
    "condensation",
    "strongly_connected_components",
    "compute_stats",
    "is_dag",
    "topological_sort",
]
