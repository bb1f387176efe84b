"""Combining prestige and popularity into entity importance.

Prestige and popularity live on incompatible scales (a stationary
distribution vs. decayed counts), so each is normalized before the convex
combination

    I = theta * norm(prestige) + (1 - theta) * norm(popularity)

``theta`` is the paper's balance knob, swept in experiment E3.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_NORMALIZATIONS = ("sum", "max", "zscore", "rank")


def normalize_scores(scores: np.ndarray, method: str = "sum") -> np.ndarray:
    """Normalize a non-negative score vector.

    Methods:
        ``sum`` — scale to a probability distribution (all-zero stays 0);
        ``max`` — scale the maximum to 1;
        ``zscore`` — standardize (mean 0, stddev 1);
        ``rank`` — replace scores by average ranks scaled to [0, 1]
        (robust to heavy tails; ties share their average rank). Values
        are quantized to 1e-9 *relative* precision first, so numbers
        that differ only by iterative-solver noise become honest ties
        instead of arbitrarily ordered ranks — without this, sub-
        tolerance jitter among the near-tied tail of a PageRank vector
        would reshuffle thousands of ranks between runs/solvers.
    """
    if method not in _NORMALIZATIONS:
        raise ConfigError(f"unknown normalization {method!r}; "
                          f"choose from {_NORMALIZATIONS}")
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 1:
        raise ConfigError("scores must be one-dimensional")
    if len(values) == 0:
        return values.copy()
    if not np.all(np.isfinite(values)):
        raise ConfigError("scores must be finite")

    if method == "sum":
        total = values.sum()
        return values / total if total > 0 else values.copy()
    if method == "max":
        peak = values.max()
        return values / peak if peak > 0 else values.copy()
    if method == "zscore":
        spread = values.std()
        if spread == 0:
            return np.zeros_like(values)
        return (values - values.mean()) / spread
    # rank: average rank for ties, scaled into [0, 1].
    peak = np.abs(values).max()
    if peak > 0:
        values = np.round(values / peak, 9)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    # Tied runs share their average rank.
    starts = np.flatnonzero(np.concatenate(
        ([True], sorted_values[1:] != sorted_values[:-1])))
    stops = np.append(starts[1:], len(values))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + stops - 1), stops - starts)
    if len(values) == 1:
        return np.ones(1)
    return ranks / (len(values) - 1)


def combine_importance(prestige: np.ndarray, popularity: np.ndarray,
                       theta: float = 0.5,
                       normalization: str = "sum") -> np.ndarray:
    """``theta * norm(prestige) + (1 - theta) * norm(popularity)``."""
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(f"theta must be in [0, 1], got {theta}")
    prestige = np.asarray(prestige, dtype=np.float64)
    popularity = np.asarray(popularity, dtype=np.float64)
    if prestige.shape != popularity.shape:
        raise ConfigError("prestige and popularity must align")
    return (theta * normalize_scores(prestige, normalization)
            + (1.0 - theta) * normalize_scores(popularity, normalization))
