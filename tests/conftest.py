"""Shared fixtures: small graphs and datasets reused across the suite.

The global test-hang cap (``timeout`` in pyproject.toml) is handled in
the repo-root ``conftest.py`` so it also covers benchmark runs.
"""

from __future__ import annotations

import sys

import pytest

from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.schema import Article, Author, ScholarlyDataset, Venue
from repro.graph.csr import CSRGraph


def _count_opcodes(call) -> int:
    """Interpreter opcodes executed (in Python frames) by ``call()``."""
    executed = 0

    def tracer(frame, event, arg):
        nonlocal executed
        frame.f_trace_opcodes = True
        if event == "opcode":
            executed += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return executed


@pytest.fixture(scope="session")
def count_opcodes():
    """Clock-free work meter for the scaling gates: numpy kernels cost
    a handful of opcodes whatever their size, a Python loop one batch
    of opcodes per element."""
    return _count_opcodes


@pytest.fixture(scope="session")
def small_dataset() -> "ScholarlyDataset":
    """A deterministic 1200-article synthetic corpus (session-cached)."""
    config = GeneratorConfig(num_articles=1200, num_venues=12,
                             num_authors=400, start_year=1995,
                             end_year=2014, seed=42)
    return generate_dataset(config)


@pytest.fixture(scope="session")
def medium_dataset() -> "ScholarlyDataset":
    """A 4000-article corpus for statistical assertions (session-cached)."""
    config = GeneratorConfig(num_articles=4000, num_venues=25,
                             num_authors=1200, start_year=1990,
                             end_year=2015, seed=11)
    return generate_dataset(config)


@pytest.fixture()
def diamond_graph() -> CSRGraph:
    """1 -> {2, 3} -> 4 (plus 4 dangling): the smallest useful DAG."""
    return CSRGraph.from_edges([(1, 2), (1, 3), (2, 4), (3, 4)])


@pytest.fixture()
def cyclic_graph() -> CSRGraph:
    """A 3-cycle with a tail and a dangling sink."""
    return CSRGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4), (5, 1)])


@pytest.fixture()
def tiny_dataset() -> ScholarlyDataset:
    """Five hand-written articles, two venues, three authors.

    Citation structure (newer cites older):

        2010:a4 -> a1, a2     2008:a3 -> a1     2005:a2 -> a0
        2003:a1 -> a0         2000:a0 (dangling)
    """
    dataset = ScholarlyDataset(name="tiny")
    dataset.add_venue(Venue(id=0, name="VLDB", prestige=0.9))
    dataset.add_venue(Venue(id=1, name="Workshop", prestige=0.2))
    dataset.add_author(Author(id=0, name="Ada"))
    dataset.add_author(Author(id=1, name="Bob"))
    dataset.add_author(Author(id=2, name="Cy"))
    dataset.add_article(Article(id=0, title="Foundations", year=2000,
                                venue_id=0, author_ids=(0,),
                                references=(), quality=3.0))
    dataset.add_article(Article(id=1, title="Extension", year=2003,
                                venue_id=0, author_ids=(0, 1),
                                references=(0,), quality=2.0))
    dataset.add_article(Article(id=2, title="Sidetrack", year=2005,
                                venue_id=1, author_ids=(1,),
                                references=(0,), quality=0.5))
    dataset.add_article(Article(id=3, title="Survey", year=2008,
                                venue_id=0, author_ids=(2,),
                                references=(1,), quality=1.0))
    dataset.add_article(Article(id=4, title="Revival", year=2010,
                                venue_id=1, author_ids=(1, 2),
                                references=(1, 2), quality=1.5))
    return dataset
