"""Graph partitioners for the block-centric parallel engine.

A :class:`Partition` assigns every node index to exactly one block. Three
strategies are provided, mirroring what distributed graph systems offer:

* :func:`hash_partition` — stateless hash of the node index (baseline;
  maximal edge cut).
* :func:`range_partition` — contiguous index ranges; with year-sorted node
  ids this approximates time-range partitioning, which keeps most citation
  edges (which point backward in time) near the block diagonal.
* :func:`bfs_partition` — greedy BFS region growing, a cheap locality-aware
  partitioner in the spirit of what graph-centric systems ship.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph, stable_order


@dataclass(frozen=True)
class Partition:
    """An assignment of node indices to ``num_blocks`` blocks.

    Attributes:
        assignment: ``int64[n]`` — block id of every node index.
        num_blocks: number of blocks (block ids are ``0..num_blocks-1``).
    """

    assignment: np.ndarray
    num_blocks: int
    _members: List[np.ndarray] = field(default=None, compare=False,
                                       repr=False, hash=False)

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise PartitionError(f"num_blocks must be positive, "
                                 f"got {self.num_blocks}")
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 1:
            raise PartitionError("assignment must be one-dimensional")
        if len(assignment) and (assignment.min() < 0
                                or assignment.max() >= self.num_blocks):
            raise PartitionError("assignment references block id outside "
                                 f"[0, {self.num_blocks})")
        object.__setattr__(self, "assignment", assignment)

    @property
    def num_nodes(self) -> int:
        return len(self.assignment)

    def members(self, block: int) -> np.ndarray:
        """Node indices assigned to ``block``."""
        if not 0 <= block < self.num_blocks:
            raise PartitionError(f"block {block} out of range")
        if self._members is None:
            order = stable_order(self.assignment, self.num_blocks)
            bounds = np.concatenate(([0], np.cumsum(self.block_sizes())))
            members = [order[bounds[b]:bounds[b + 1]]
                       for b in range(self.num_blocks)]
            object.__setattr__(self, "_members", members)
        return self._members[block]

    def block_sizes(self) -> np.ndarray:
        """``int64[num_blocks]`` node count per block."""
        return np.bincount(self.assignment, minlength=self.num_blocks)

    def edge_cut(self, graph: CSRGraph) -> int:
        """Number of edges whose endpoints lie in different blocks."""
        return int(np.count_nonzero(
            self.assignment[graph.edge_sources()]
            != self.assignment[graph.indices]))

    def cut_fraction(self, graph: CSRGraph) -> float:
        """Edge cut as a fraction of all edges (0 for an empty graph)."""
        if graph.num_edges == 0:
            return 0.0
        return self.edge_cut(graph) / graph.num_edges


def hash_partition(graph: CSRGraph, num_blocks: int,
                   seed: int = 0) -> Partition:
    """Assign nodes to blocks by a salted multiplicative hash of the index."""
    if num_blocks <= 0:
        raise PartitionError("num_blocks must be positive")
    idx = np.arange(graph.num_nodes, dtype=np.uint64)
    salt = np.uint64(0x9E3779B97F4A7C15 + 2 * seed + 1)
    hashed = (idx + np.uint64(seed)) * salt
    hashed ^= hashed >> np.uint64(31)
    assignment = (hashed % np.uint64(num_blocks)).astype(np.int64)
    return Partition(assignment, num_blocks)


def range_partition(graph: CSRGraph, num_blocks: int) -> Partition:
    """Split node indices into ``num_blocks`` near-equal contiguous ranges."""
    if num_blocks <= 0:
        raise PartitionError("num_blocks must be positive")
    n = graph.num_nodes
    assignment = np.minimum(
        (np.arange(n, dtype=np.int64) * num_blocks) // max(n, 1),
        num_blocks - 1,
    )
    return Partition(assignment, num_blocks)


def bfs_partition(graph: CSRGraph, num_blocks: int,
                  seed: int = 0) -> Partition:
    """Grow ``num_blocks`` regions by breadth-first search.

    Seeds are drawn deterministically from ``seed``; regions grow in
    round-robin over an undirected view of the graph until capacity
    ``ceil(n / num_blocks)`` is reached, then spill to the emptiest block.
    """
    if num_blocks <= 0:
        raise PartitionError("num_blocks must be positive")
    n = graph.num_nodes
    if n == 0:
        return Partition(np.empty(0, dtype=np.int64), num_blocks)

    rng = np.random.default_rng(seed)
    reverse = graph.reverse()
    assignment = np.full(n, -1, dtype=np.int64)
    capacity = -(-n // num_blocks)  # ceil division
    sizes = np.zeros(num_blocks, dtype=np.int64)

    seeds = rng.choice(n, size=min(num_blocks, n), replace=False)
    frontiers = [deque() for _ in range(num_blocks)]
    for block, node in enumerate(seeds):
        assignment[node] = block
        sizes[block] += 1
        frontiers[block].append(int(node))

    unvisited = deque(int(i) for i in rng.permutation(n))
    active = True
    while active:
        active = False
        for block in range(num_blocks):
            frontier = frontiers[block]
            while frontier and sizes[block] < capacity:
                node = frontier.popleft()
                grew = False
                for neighbor in np.concatenate(
                        [graph.neighbors(node), reverse.neighbors(node)]):
                    neighbor = int(neighbor)
                    if assignment[neighbor] == -1:
                        assignment[neighbor] = block
                        sizes[block] += 1
                        frontier.append(neighbor)
                        grew = True
                        if sizes[block] >= capacity:
                            break
                if grew:
                    active = True
                    break

    # Unreached nodes (disconnected or capacity-blocked) go to the
    # emptiest block, keeping balance.
    while unvisited:
        node = unvisited.popleft()
        if assignment[node] == -1:
            block = int(np.argmin(sizes))
            assignment[node] = block
            sizes[block] += 1
    return Partition(assignment, num_blocks)
