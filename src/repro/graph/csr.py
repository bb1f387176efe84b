"""Immutable compressed-sparse-row graph snapshot.

:class:`CSRGraph` is the representation every iterative solver runs on.
Nodes are re-indexed to the contiguous range ``0..n-1``; the original ids
are kept in :attr:`CSRGraph.node_ids` and the inverse mapping is available
through :meth:`CSRGraph.index_of`.

The forward CSR stores *out*-edges (``u``'s references); the lazily built
reverse CSR stores *in*-edges (``u``'s citers) and is cached because both
PageRank-style pull iterations and popularity sums consume it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError, NodeNotFoundError


def positions_in(table: np.ndarray, values) -> np.ndarray:
    """Index of each of ``values`` in the ascending ``table`` (the first
    of equal entries), ``-1`` where absent; direct-addressed when the id
    span is below both ``2 * len(table)`` and the binary search's work."""
    values = np.asarray(values, dtype=np.int64)
    if not len(table):
        return np.full(values.shape, -1, dtype=np.int64)
    low, high = int(table[0]), int(table[-1])
    if high - low < min(2 * len(table),
                        values.size * (len(table) - 1).bit_length()):
        first = np.ones(len(table), dtype=bool)
        np.not_equal(table[1:], table[:-1], out=first[1:])
        slot = np.full(high - low + 1, -1, dtype=np.int64)
        slot[table[first] - low] = np.flatnonzero(first)
        found = slot[np.clip(values, low, high) - low]
    else:
        found = np.minimum(np.searchsorted(table, values), len(table) - 1)
    found[table[found] != values] = -1
    return found


def stable_order(keys: np.ndarray, size: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer ``keys`` in
    ``[0, size)``, by radix passes over 16-bit digits: numpy's stable
    sort is linear for 8- and 16-bit dtypes, a comparison sort above."""
    keys = np.asarray(keys)
    digit = keys.astype(np.min_scalar_type(min(size, 1 << 16) - 1))
    order = np.argsort(digit, kind="stable")
    shift = 16
    while size > 1 << shift:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def unique_ids(values) -> np.ndarray:
    """``np.unique(values)`` for integer ids; ids spanning fewer than
    ``2 * len(values)`` are marked in a boolean table."""
    values = np.asarray(values, dtype=np.int64)
    low, high = (values.min(), values.max()) if values.size else (0, 0)
    if int(high) - int(low) >= 2 * values.size:
        return np.unique(values)
    seen = np.zeros(int(high) - int(low) + 1, dtype=bool)
    seen[values - low] = True
    return np.flatnonzero(seen) + low


class CSRGraph:
    """A frozen directed graph in CSR form.

    Attributes:
        indptr: ``int64[n+1]`` — out-edge slice boundaries per node index.
        indices: ``int64[m]`` — destination node *indices* of out-edges.
        weights: ``float64[m]`` — edge weights aligned with ``indices``.
        node_ids: ``int64[n]`` — original node id of each index.
    """

    __slots__ = ("indptr", "indices", "weights", "node_ids",
                 "_id_to_index", "_reverse")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray, node_ids: np.ndarray) -> None:
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if len(indices) != len(weights):
            raise GraphError("indices and weights must have equal length")
        if len(indptr) != len(node_ids) + 1:
            raise GraphError("indptr length must be num_nodes + 1")
        if len(indptr) > 0 and indptr[-1] != len(indices):
            raise GraphError("indptr[-1] must equal the edge count")
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.node_ids = np.ascontiguousarray(node_ids, dtype=np.int64)
        self._id_to_index: Optional[Dict[int, int]] = None
        self._reverse: Optional["CSRGraph"] = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]],
                   nodes: Optional[Sequence[int]] = None,
                   weights: Optional[Sequence[float]] = None) -> "CSRGraph":
        """Build from ``(src, dst)`` pairs over arbitrary integer ids.

        ``nodes`` may list ids explicitly (to include isolated nodes and fix
        index order); otherwise ids are collected from the edges in sorted
        order. ``weights`` aligns with ``edges`` and defaults to all ones.
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray)
                           else list(edges), dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError("edges must be (src, dst) pairs")
        if weights is None:
            weights = np.ones(len(pairs))
        else:
            weights = np.asarray(weights if isinstance(weights, np.ndarray)
                                 else list(weights), dtype=np.float64)
            if len(weights) != len(pairs):
                raise GraphError("weights must align one-to-one with edges")

        endpoints = pairs.ravel()  # src0, dst0, src1, ...: the lookup order
        if nodes is None:
            node_ids, found = np.unique(endpoints, return_inverse=True)
        else:
            node_ids = np.asarray(list(nodes), dtype=np.int64)
            order = np.argsort(node_ids, kind="stable")
            sorted_ids = node_ids[order]
            if np.any(sorted_ids[1:] == sorted_ids[:-1]):
                raise GraphError("duplicate ids in explicit node list")
            found = positions_in(sorted_ids, endpoints)
            missing = found < 0
            if missing.any():
                raise NodeNotFoundError(int(endpoints[missing.argmax()]))
            found = order[found]
        return cls._from_indexed(len(node_ids), found[0::2], found[1::2],
                                 weights, node_ids)

    @classmethod
    def _from_indexed(cls, n: int, src_idx: np.ndarray, dst_idx: np.ndarray,
                      weights: np.ndarray, node_ids: np.ndarray) -> "CSRGraph":
        """Assemble CSR arrays from pre-indexed edge endpoints."""
        counts = np.bincount(src_idx, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = stable_order(src_idx, n)
        indices = dst_idx[order]
        data = np.asarray(weights, dtype=np.float64)[order]
        return cls(indptr, indices, data, node_ids)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def index_of(self, node_id: int) -> int:
        """Map an original node id to its contiguous index."""
        if self._id_to_index is None:
            self._id_to_index = {int(v): i for i, v in enumerate(self.node_ids)}
        try:
            return self._id_to_index[int(node_id)]
        except KeyError:
            raise NodeNotFoundError(int(node_id)) from None

    def neighbors(self, index: int) -> np.ndarray:
        """Out-neighbour *indices* of the node at ``index``."""
        if not 0 <= index < self.num_nodes:
            raise NodeNotFoundError(index)
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def neighbor_weights(self, index: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        if not 0 <= index < self.num_nodes:
            raise NodeNotFoundError(index)
        return self.weights[self.indptr[index]:self.indptr[index + 1]]

    def out_degrees(self) -> np.ndarray:
        """``int64[n]`` out-degree of every node."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """``int64[n]`` in-degree of every node."""
        return np.bincount(self.indices, minlength=self.num_nodes)

    def out_strengths(self) -> np.ndarray:
        """``float64[n]`` sum of outgoing edge weights per node."""
        return np.bincount(self.edge_sources(), weights=self.weights,
                           minlength=self.num_nodes)

    # ------------------------------------------------------------------
    # derived structures

    def reverse(self) -> "CSRGraph":
        """Edge-reversed snapshot (cached). Node indexing is preserved."""
        if self._reverse is None:
            rev = CSRGraph._from_indexed(self.num_nodes, self.indices,
                                         self.edge_sources(),
                                         self.weights, self.node_ids)
            rev._reverse = self
            self._reverse = rev
        return self._reverse

    def edge_sources(self) -> np.ndarray:
        """``int64[m]`` source node index of every edge, aligned with
        :attr:`indices` (which holds the destinations)."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                         np.diff(self.indptr))

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src_idx, dst_idx, weights)`` arrays for all edges."""
        return self.edge_sources(), self.indices.copy(), self.weights.copy()

    def to_scipy(self):
        """Return the adjacency as a ``scipy.sparse.csr_matrix``."""
        from scipy.sparse import csr_matrix

        n = self.num_nodes
        return csr_matrix((self.weights, self.indices, self.indptr),
                          shape=(n, n))

    def edges(self) -> Iterable[Tuple[int, int, float]]:
        """Iterate ``(src_index, dst_index, weight)`` triples."""
        for u in range(self.num_nodes):
            start, stop = self.indptr[u], self.indptr[u + 1]
            for k in range(start, stop):
                yield u, int(self.indices[k]), float(self.weights[k])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(nodes={self.num_nodes}, edges={self.num_edges})"
