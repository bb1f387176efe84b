"""Strongly connected components (iterative Tarjan) and condensation.

Citation graphs are *nearly* acyclic — cycles appear only through mutual
citations between near-simultaneous articles. The batch TWPR optimization
sweeps nodes in reverse topological order of the condensation, so SCCs must
be found without recursion (real citation graphs easily exceed Python's
recursion limit).
"""

from __future__ import annotations

from itertools import chain
from typing import List

import numpy as np

from repro.graph.csr import CSRGraph


def strongly_connected_components(graph: CSRGraph) -> List[List[int]]:
    """Return SCCs of ``graph`` as lists of node *indices*.

    Components are emitted in reverse topological order of the condensation
    (a component appears before any component it points to appears... more
    precisely, Tarjan emits a component only after all components reachable
    from it): iterating the returned list forward visits "sinks first".
    """
    n = graph.num_nodes
    index_of: np.ndarray = np.full(n, -1, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        # Explicit DFS stack of (node, iterator position into its edges).
        work: List[List[int]] = [[root, int(graph.indptr[root])]]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, pos = work[-1]
            if pos < graph.indptr[node + 1]:
                work[-1][1] += 1
                child = int(graph.indices[pos])
                if index_of[child] == -1:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append([child, int(graph.indptr[child])])
                elif on_stack[child]:
                    lowlink[node] = min(lowlink[node], index_of[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    component: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def condensation(graph: CSRGraph):
    """Condense ``graph`` into its DAG of SCCs.

    Returns ``(dag, membership)`` where ``dag`` is a :class:`CSRGraph` whose
    node ``c`` is the ``c``-th component from
    :func:`strongly_connected_components`, and ``membership[i]`` is the
    component index of graph node ``i``.
    """
    components = strongly_connected_components(graph)
    count = len(components)
    members = np.fromiter(chain.from_iterable(components), np.int64,
                          graph.num_nodes)
    sizes = np.fromiter(map(len, components), np.int64, count)
    membership = np.empty(graph.num_nodes, dtype=np.int64)
    membership[members] = np.repeat(np.arange(count), sizes)

    # Inter-component edges grouped on one integer key; the DAG keeps
    # them in first-appearance order with weights summed in edge order.
    src = membership[graph.edge_sources()]
    dst = membership[graph.indices]
    crossing = src != dst
    keys, first, group = np.unique(src[crossing] * count + dst[crossing],
                                   return_index=True, return_inverse=True)
    order = np.argsort(first)
    dag = CSRGraph.from_edges(
        np.stack([keys[order] // count, keys[order] % count], axis=1),
        nodes=range(count),
        weights=np.bincount(group, weights=graph.weights[crossing],
                            minlength=len(keys))[order],
    )
    return dag, membership
