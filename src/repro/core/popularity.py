"""Time-decayed popularity — the "current attention" half of importance.

The popularity of an article is the decayed count of its citations, each
citation weighted by how recently the *citing* article appeared:

    Pop(v) = sum over citers u of  decay(T - t(u))

A classic that stopped being cited keeps prestige but loses popularity;
a rising-star article, too young to accumulate prestige through the
citation network, shows up here first. This asymmetry is why the paper
combines both (see :mod:`repro.core.importance`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.core.time_weight import TimeDecay, exponential_decay


def popularity_scores(graph: CSRGraph, years: np.ndarray,
                      observation_year: int,
                      decay: Optional[TimeDecay] = None,
                      self_boost: float = 0.0) -> np.ndarray:
    """``float64[n]`` decayed-citation popularity per node index.

    Args:
        graph: citation graph (citing -> cited).
        years: publication year per node index.
        observation_year: "today" (must not precede any publication).
        decay: decay kernel on citation age (default
            ``exponential_decay(0.4)`` — popularity fades faster than
            prestige, matching the paper's prestige/popularity split).
        self_boost: optional additive term ``decay(T - t(v))`` giving every
            article one phantom self-citation at publication time, so
            brand-new uncited articles rank by recency instead of all
            tying at zero. Disabled by default.
    """
    if decay is None:
        decay = exponential_decay(0.4)
    years = np.asarray(years, dtype=np.float64)
    if years.shape != (graph.num_nodes,):
        raise ConfigError("years must align with graph nodes")
    age = observation_year - years
    if np.any(age < 0):
        raise ConfigError("observation_year precedes some publications")
    if self_boost < 0:
        raise ConfigError("self_boost must be non-negative")

    citing_age = np.repeat(age, graph.out_degrees())
    scores = np.bincount(
        graph.indices, minlength=graph.num_nodes,
        weights=np.asarray(decay(citing_age), dtype=np.float64))
    if self_boost > 0:
        scores += self_boost * np.asarray(decay(age), dtype=np.float64)
    return scores
