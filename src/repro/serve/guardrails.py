"""Publish guardrails: what a candidate ranking must prove pre-swap.

The update path never publishes a snapshot it merely *hopes* is good.
After every applied batch the candidate ranking is checked against a
:class:`GuardrailPolicy`; any violation vetoes the swap, the engine is
rolled back to the last good state, and the offending batch is
quarantined — the previous snapshot keeps serving, stale but correct.

Checks, in order of severity:

* **finiteness** — every score is a finite float (one NaN poisons every
  downstream comparison);
* **coverage** — the ranking covers exactly the dataset's articles
  (a dropped or phantom article means the index and the data disagree);
* **score mass** — the total score mass drifted no more than a
  tolerance *relative to the previous snapshot's mass*, with an
  absolute floor (a sanity bound on wholesale numeric corruption that
  stays finite: a 10-node test graph must not spuriously veto because
  its mean moved, and a 10M-node graph must not silently pass a large
  absolute drift just because its mean barely moved);
* **top-k churn** — at most a configurable fraction of the previous
  top-k left the top-k (a single batch rewriting the head of the
  ranking is almost always a bug, not science).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.model import RankingResult
    from repro.data.schema import ScholarlyDataset
    from repro.serve.snapshot import Snapshot


@dataclass(frozen=True)
class GuardrailPolicy:
    """Bounds a candidate ranking must respect to be published.

    Attributes:
        mass_tolerance: maximum drift of the total score mass, as a
            fraction of the previous snapshot's total mass
            (rank-normalized blends keep a near-constant mass per
            article, so even a loose bound catches corruption).
        mass_floor: absolute drift always allowed regardless of the
            relative bound — keeps tiny graphs (whose total mass is
            itself tiny) from vetoing on numerically irrelevant drift.
        churn_top_k: size of the head window the churn check watches.
        max_churn: maximum fraction of the previous top-k allowed to
            drop out of the new top-k per publish; ``1.0`` disables the
            check (small corpora legitimately reshuffle).
    """

    mass_tolerance: float = 0.5
    mass_floor: float = 1e-6
    churn_top_k: int = 20
    max_churn: float = 1.0

    def __post_init__(self) -> None:
        if self.mass_tolerance < 0:
            raise ConfigError("mass_tolerance must be non-negative")
        if self.mass_floor < 0:
            raise ConfigError("mass_floor must be non-negative")
        if self.churn_top_k <= 0:
            raise ConfigError("churn_top_k must be positive")
        if not 0.0 <= self.max_churn <= 1.0:
            raise ConfigError(
                f"max_churn must be in [0, 1], got {self.max_churn}")


def validate_candidate(policy: GuardrailPolicy,
                       dataset: "ScholarlyDataset",
                       candidate: "RankingResult",
                       previous: Optional["Snapshot"] = None
                       ) -> List[str]:
    """Violations that veto publishing ``candidate`` (empty = publish).

    ``previous`` is the currently-served snapshot; the relative checks
    (mass drift, churn) are skipped when there is none (bootstrap).
    """
    violations: List[str] = []
    scores = np.asarray(candidate.scores, dtype=np.float64)

    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        violations.append(
            f"{bad} non-finite score(s) of {scores.size}")
        # Every later check would only echo the same corruption.
        return violations

    node_ids = np.asarray(candidate.node_ids, dtype=np.int64)
    article_ids = np.fromiter(dataset.articles.keys(), dtype=np.int64,
                              count=len(dataset.articles))
    if not _same_ids(node_ids, article_ids):
        violations.append(
            f"coverage mismatch: ranking has {node_ids.size} articles, "
            f"dataset has {article_ids.size}")

    if previous is not None:
        prev_scores = np.asarray(previous.ranking.scores,
                                 dtype=np.float64)
        drift = _mass_drift(policy, prev_scores, scores)
        if drift is not None:
            violations.append(drift)

        if policy.max_churn < 1.0:
            k = min(policy.churn_top_k, previous.num_articles,
                    node_ids.size)
            if k > 0:
                prev_top = {article_id for article_id, _
                            in previous.ranking.top(k)}
                new_top = {article_id for article_id, _
                           in candidate.top(k)}
                churn = len(prev_top - new_top) / k
                if churn > policy.max_churn:
                    violations.append(
                        f"top-{k} churn {churn:.0%} exceeds bound "
                        f"{policy.max_churn:.0%}")
    return violations


def _same_ids(ids: np.ndarray, expected: np.ndarray) -> bool:
    """Same id set? (Same order, the common case, needs no sort.)"""
    return ids.size == expected.size and (
        np.array_equal(ids, expected)
        or not np.setxor1d(ids, expected).size)


def _mass_drift(policy: GuardrailPolicy, prev_scores: np.ndarray,
                scores: np.ndarray) -> Optional[str]:
    """Violation string if total score mass drifted out of bounds.

    The previous mass is scaled by the size ratio first, so organic
    corpus growth (a batch adding articles with ordinary scores) is not
    read as drift; what remains is genuine per-article movement. The
    bound is relative to that expected mass with an absolute
    ``mass_floor``, so the check neither spuriously vetoes a tiny graph
    (whose total mass is itself near zero) nor silently passes a large
    absolute drift on a huge one.
    """
    prev_mass = float(prev_scores.sum()) if prev_scores.size else 0.0
    mass = float(scores.sum()) if scores.size else 0.0
    scale = (scores.size / prev_scores.size) if prev_scores.size else 1.0
    expected = prev_mass * scale
    bound = max(policy.mass_tolerance * abs(expected), policy.mass_floor)
    if abs(mass - expected) > bound:
        return (f"score mass drifted: total {mass:.6g} vs expected "
                f"{expected:.6g} (tolerance {policy.mass_tolerance:g} "
                f"relative, floor {policy.mass_floor:g})")
    return None


def validate_shard_slice(policy: GuardrailPolicy,
                         expected_ids: np.ndarray,
                         ids: np.ndarray,
                         scores: np.ndarray,
                         previous_scores: Optional[np.ndarray] = None
                         ) -> List[str]:
    """Violations that veto a shard refreshing onto a score slice.

    The sharded tier's per-shard analogue of :func:`validate_candidate`:
    each shard re-checks *its own slice* of the published board before
    swapping its local snapshot, so one poisoned slice degrades one
    shard instead of the whole tier. Churn is a global property and is
    only checked by the publisher; per shard we check finiteness,
    coverage of the shard's owned ids, and score-mass drift vs the
    shard's previous slice.
    """
    violations: List[str] = []
    scores = np.asarray(scores, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    expected_ids = np.asarray(expected_ids, dtype=np.int64)

    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        violations.append(
            f"{bad} non-finite score(s) of {scores.size} in shard slice")
        return violations

    if ids.size != scores.size:
        violations.append(
            f"shard slice misaligned: {ids.size} ids vs "
            f"{scores.size} scores")
        return violations

    if not _same_ids(ids, expected_ids):
        violations.append(
            f"shard coverage mismatch: slice has {ids.size} articles, "
            f"shard owns {expected_ids.size}")

    if previous_scores is not None:
        drift = _mass_drift(
            policy, np.asarray(previous_scores, dtype=np.float64), scores)
        if drift is not None:
            violations.append(drift)
    return violations
