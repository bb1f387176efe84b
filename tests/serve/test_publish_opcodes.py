"""Clock-free work gate: a publish is O(batch) Python, not O(corpus).

ROADMAP item 1's acceptance ("slots touched per publish is O(affected),
not O(n)") in a form a noisy shared runner cannot blur: count the
interpreter opcodes one ``gateway.ingest`` executes for the *same*
50-article batch on a 2k and on an 8k corpus. Everything between
``IncrementalEngine.apply`` and the served shard is numpy over
maintained columns, so the corpus may grow fourfold while the count
stays put; one per-article Python loop anywhere on the path (the old
``_partition_new_articles`` walk, a dict comprehension over node ids)
multiplies it.
"""

import pytest

from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.schema import Article, ScholarlyDataset
from repro.engine import LiveRanker, UpdateBatch
from repro.serve import ShardedGateway

pytestmark = pytest.mark.serve

SMALL, LARGE, BATCH = 2000, 8000, 50


@pytest.fixture(scope="module")
def corpus():
    return generate_dataset(GeneratorConfig(
        num_articles=LARGE, num_venues=16, num_authors=2000,
        start_year=1990, end_year=2015, seed=3))


def prefix(full: ScholarlyDataset, size: int) -> ScholarlyDataset:
    """The ``size`` oldest articles, every venue and author known."""
    base = ScholarlyDataset(name=f"{full.name}@{size}")
    base.venues.update(full.venues)
    base.authors.update(full.authors)
    for article_id in sorted(full.articles)[:size]:
        base.articles[article_id] = full.articles[article_id]
    return base


def arrivals(full: ScholarlyDataset):
    """A warm and a measured batch of 50 new articles, valid on both
    corpora: ids above every id, references into the 2k prefix only,
    known venues and authors."""
    ids = sorted(full.articles)
    venues, authors = sorted(full.venues), sorted(full.authors)
    first = ids[-1] + 1
    articles = tuple(
        Article(id=first + i, title=f"arrival {i}", year=2015,
                venue_id=venues[i % len(venues)],
                author_ids=(authors[i], authors[-1 - i]),
                references=tuple(ids[(37 * i + 11 * j) % SMALL]
                                 for j in range(6)))
        for i in range(2 * BATCH))
    return (UpdateBatch(articles=articles[:BATCH]),
            UpdateBatch(articles=articles[BATCH:]))


def ingest_opcodes(count_opcodes, base: ScholarlyDataset, batches) -> int:
    with ShardedGateway(LiveRanker(base), 2, mode="inline") as gateway:
        warm, measured = batches
        assert gateway.ingest(warm).status == "published"
        reports = []
        executed = count_opcodes(
            lambda: reports.append(gateway.ingest(measured)))
        assert reports[0].status == "published"
        assert len(gateway.top_sync(10).entries) == 10
    return executed


def test_publish_opcodes_do_not_grow_with_the_corpus(corpus,
                                                     count_opcodes):
    # A warm batch first: the measured publish is a steady-state one.
    batches = arrivals(corpus)
    small = ingest_opcodes(count_opcodes, prefix(corpus, SMALL), batches)
    large = ingest_opcodes(count_opcodes, prefix(corpus, LARGE), batches)
    assert small > 0
    assert large <= 1.10 * small, (
        f"one publish ran {small} opcodes on {SMALL} articles and "
        f"{large} on {LARGE}: some step walks the corpus in Python")
