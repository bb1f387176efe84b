"""Immutable published snapshots — the unit the update path hands over.

A :class:`Snapshot` bundles the validated :class:`RankingResult` and its
freshness metadata into one immutable value. The service swaps the
*reference* to the current snapshot atomically (one attribute store),
so the gateway propagating it to the score board sees the old complete
world or the new complete world, never a torn mix. Snapshots are only
ever constructed fully and validated before they are published; nothing
mutates one after the swap. The serving indexes are per shard
(:class:`repro.serve.shard.ShardSnapshot`), built from the board.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.model import RankingResult


@dataclass(frozen=True)
class Snapshot:
    """One published, validated, immutable view of the ranking.

    Attributes:
        ranking: the full, guardrail-validated model result.
        epoch: publish counter — the bootstrap snapshot is epoch 0 and
            every successful guardrailed swap increments it by one.
        batches_applied: the live engine's batch count when this
            snapshot was built (how much history it reflects).
        published_at: wall-clock publish time (``time.time()``), for
            staleness-by-age reporting.
    """

    ranking: "RankingResult"
    epoch: int
    batches_applied: int
    published_at: float

    @property
    def num_articles(self) -> int:
        return len(self.ranking.node_ids)
