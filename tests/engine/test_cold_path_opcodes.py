"""Clock-free work gates: the cold path is grouped numpy.

The kernels the cold benchmark rows stand on — the block-operator
build, the citation CSR and the TWPR level sweep — must not walk nodes
or edges in Python, and the operator build must not rescan every edge
once per block. Interpreter opcodes (``count_opcodes``, shared with the
publish gate) see the first; the second is numpy work no opcode counts,
so it is metered by the number of array elements that flow out of the
partition assignment. A cold rank must also resolve and group its dense
ids in linear passes: no edge- or authorship-length array reaches a
binary search or a comparison sort.
"""

import sys

import numpy as np
import pytest

from repro.core.model import ArticleRanker
from repro.core.twpr import time_weighted_pagerank
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.engine.blocks import _block_operators
from repro.graph.csr import CSRGraph
from repro.graph.partition import range_partition
from repro.query.index import RankIndex

from .test_block_operators import mask_block_operators

SMALL, LARGE = 2000, 8000


@pytest.fixture(scope="module")
def corpora():
    return {size: generate_dataset(GeneratorConfig(
        num_articles=size, num_venues=16, num_authors=size // 4,
        start_year=1990, end_year=2015, seed=3)) for size in (SMALL, LARGE)}


@pytest.fixture(scope="module")
def citation_graphs(corpora):
    graphs = {size: corpus.citation_csr()
              for size, corpus in corpora.items()}
    assert graphs[LARGE].num_edges > 3 * graphs[SMALL].num_edges
    return graphs


def test_block_operator_opcodes_do_not_grow_with_the_graph(
        citation_graphs, count_opcodes):
    small, large = (
        count_opcodes(lambda: _block_operators(
            graph, range_partition(graph, 8), None))
        for graph in (citation_graphs[SMALL], citation_graphs[LARGE]))
    assert 0 < large <= 1.10 * small, (
        f"_block_operators ran {small} opcodes on {SMALL} articles and "
        f"{large} on {LARGE}: some step walks nodes or edges in Python")


def test_from_edges_opcodes_do_not_grow_with_the_edges(
        citation_graphs, count_opcodes):
    def opcodes(graph: CSRGraph) -> int:
        ids = graph.node_ids
        src_idx, dst_idx, _ = graph.edge_array()
        pairs = np.stack([ids[src_idx], ids[dst_idx]], axis=1)
        built = []
        executed = count_opcodes(lambda: built.append(
            CSRGraph.from_edges(pairs, nodes=ids)))
        assert np.array_equal(built[0].indices, graph.indices)
        return executed

    small, large = opcodes(citation_graphs[SMALL]), \
        opcodes(citation_graphs[LARGE])
    assert 0 < large <= 1.10 * small, (
        f"CSRGraph.from_edges ran {small} opcodes on {SMALL} articles' "
        f"edges and {large} on {LARGE}: endpoints are resolved per edge "
        f"in Python")


def test_citation_csr_opcodes_grow_with_articles_not_edges(
        corpora, count_opcodes):
    """One Python step per article remains (ROADMAP item 2: the corpus
    is a dict of dataclasses); one per *reference* does not — the
    larger corpus has 4x the articles and more references per article."""
    small, large = (count_opcodes(corpora[size].citation_csr)
                    for size in (SMALL, LARGE))
    assert 0 < large <= 4.4 * small, (
        f"citation_csr ran {small} opcodes on {SMALL} articles and "
        f"{large} on {LARGE}: some step walks references in Python")
    assert large < 4 * corpora[LARGE].num_citations


def test_twpr_opcodes_grow_with_levels_not_nodes(
        corpora, citation_graphs, count_opcodes):
    """Levels x sweeps is the only Python loop of a TWPR solve: 4x the
    articles may add a level or two, never a step per node."""
    def opcodes(size: int) -> int:
        graph = citation_graphs[size]
        years = corpora[size].article_years(graph)
        return count_opcodes(lambda: time_weighted_pagerank(graph, years))

    small, large = opcodes(SMALL), opcodes(LARGE)
    assert 0 < large <= 1.25 * small, (
        f"time_weighted_pagerank ran {small} opcodes on {SMALL} articles "
        f"and {large} on {LARGE}: some level of an acyclic graph is "
        f"swept per node in Python")


@pytest.fixture()
def superlinear_calls(monkeypatch):
    """``(call, elements, caller)`` for every ``np.searchsorted`` query
    array, every stable ``np.argsort`` of keys wider than 16 bits and
    every ``np.unique`` input — the calls whose cost is not linear in
    their input (``np.unique`` sorts through ``ndarray.sort``, which no
    ``np.argsort`` wrapper sees)."""
    calls = []
    searchsorted, argsort, unique = np.searchsorted, np.argsort, np.unique

    def caller() -> str:
        frame = sys._getframe(2)
        return f"{frame.f_code.co_name} <- {frame.f_back.f_code.co_name}"

    def metered_searchsorted(table, values, *args, **kwargs):
        calls.append(("np.searchsorted", np.size(values), caller()))
        return searchsorted(table, values, *args, **kwargs)

    def metered_argsort(keys, *args, **kwargs):
        if (kwargs.get("kind") in ("stable", "mergesort")
                or kwargs.get("stable")) \
                and np.asarray(keys).dtype.itemsize > 2:
            calls.append(("stable np.argsort", np.size(keys), caller()))
        return argsort(keys, *args, **kwargs)

    def metered_unique(values, *args, **kwargs):
        calls.append(("np.unique", np.size(values), caller()))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", metered_searchsorted)
    monkeypatch.setattr(np, "argsort", metered_argsort)
    monkeypatch.setattr(np, "unique", metered_unique)
    return calls


@pytest.mark.parametrize("size", [SMALL, LARGE])
def test_cold_rank_resolves_and_groups_ids_in_linear_passes(
        corpora, size, superlinear_calls):
    """Dense ids resolve by direct addressing and group by 16-bit radix
    passes: one ``rank`` + ``RankIndex`` hands neither an edge-length
    nor an authorship-length array to a binary search, a comparison
    sort or ``np.unique`` (article-length score sorts remain)."""
    corpus = corpora[size]
    articles = corpus.articles.values()
    edges = sum(len(article.references) for article in articles)
    authorships = sum(len(article.author_ids) for article in articles)
    assert len(articles) < min(edges, authorships)
    result = ArticleRanker().rank(corpus)
    RankIndex(corpus, result.by_id())
    assert superlinear_calls, "the meter saw no call at all"
    heavy = [call for call in superlinear_calls
             if call[1] >= min(edges, authorships)]
    assert not heavy, (
        f"{len(articles)} articles, {edges} references, {authorships} "
        f"authorships: these calls are not linear in an edge- or "
        f"authorship-length input: {heavy}")


class MeteredArray(np.ndarray):
    """Counts the elements every ufunc produces from it and from
    whatever is derived from it, in place or not (results stay
    metered)."""

    produced = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(values):
            return tuple(np.asarray(value) if isinstance(value, MeteredArray)
                         else value for value in values)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        MeteredArray.produced += np.size(result)
        return result.view(MeteredArray) \
            if isinstance(result, np.ndarray) else result


def assignment_work(build, graph, num_blocks) -> int:
    partition = range_partition(graph, num_blocks)
    object.__setattr__(partition, "assignment",
                       partition.assignment.view(MeteredArray))
    MeteredArray.produced = 0
    build(graph, partition, None)
    return MeteredArray.produced


def test_block_operator_array_work_does_not_grow_with_block_count(
        citation_graphs):
    """Per-block masks compare every edge's block once per block:
    O(blocks x edges) array work where one grouped pass does O(edges)."""
    graph = citation_graphs[SMALL]
    few, many = (assignment_work(_block_operators, graph, blocks)
                 for blocks in (8, 64))
    assert few >= graph.num_edges
    assert many <= 1.10 * few, (
        f"block-assignment arithmetic produced {few} elements for 8 "
        f"blocks and {many} for 64: edges are rescanned per block")
    # The meter does see the mask build it guards against.
    assert assignment_work(mask_block_operators, graph, 64) \
        > 4 * assignment_work(mask_block_operators, graph, 8)
