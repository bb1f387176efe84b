"""Scatter-gather merge: per-shard top-k lists into the global order.

Every shard answers queries from its own :class:`repro.query.RankIndex`,
whose total order is *(score descending, article id ascending)* — the
same ``np.lexsort((ids, -values))`` the single-process index uses. A
k-way merge on the key ``(-score, article_id)`` over those sorted lists
therefore reproduces the single-process global order **bit-identically**
(scores are float64 end to end: shm round-trips them exactly, and the
merge compares, never recomputes). The only thing that changes across
the shard boundary is the ``rank`` numbers, which are positions local
to each shard's (possibly filtered) list — the merge renumbers them to
positions in the merged list, matching ``RankIndex.top`` /
``RankIndex.page`` semantics exactly.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable, Iterator, List

from repro.errors import ConfigError
from repro.query import RankEntry


def _merged(shard_entries: Iterable[List[RankEntry]]
            ) -> Iterator[RankEntry]:
    return heapq.merge(*shard_entries,
                       key=lambda entry: (-entry.score, entry.article_id))


def merge_top_entries(shard_entries: Iterable[List[RankEntry]],
                      k: int) -> List[RankEntry]:
    """Best ``k`` of the union of per-shard sorted entry lists.

    Each input list must already be sorted by ``(-score, article_id)``
    (every ``RankIndex`` result is). Ranks are renumbered to positions
    in the merged list (1-based), so a filtered scatter-gather carries
    filtered-list ranks exactly like the single-process index.
    """
    if k <= 0:
        raise ConfigError("k must be positive")
    return [RankEntry(rank, entry.article_id, entry.score, entry.year,
                      entry.title)
            for rank, entry in enumerate(islice(_merged(shard_entries), k),
                                         start=1)]


def merge_page_entries(shard_entries: Iterable[List[RankEntry]],
                       offset: int, limit: int) -> List[RankEntry]:
    """Global slice ``[offset, offset+limit)`` of the merged order.

    Each shard must have contributed at least its best ``offset+limit``
    entries (fewer only if the shard is exhausted). Ranks are global
    positions (1-based), matching ``RankIndex.page``.
    """
    if offset < 0 or limit <= 0:
        raise ConfigError("offset must be >= 0 and limit positive")
    window = islice(_merged(shard_entries), offset, offset + limit)
    return [RankEntry(rank, entry.article_id, entry.score, entry.year,
                      entry.title)
            for rank, entry in enumerate(window, start=offset + 1)]
