"""Sanity baseline: age-normalized citation rate.

It anchors the effectiveness tables: any model worth publishing must
clear it, and it exposes the young-article bias that motivates
time-aware ranking (raw counts starve recent work).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph


def citation_rate(graph: CSRGraph, years: np.ndarray,
                  observation_year: int) -> np.ndarray:
    """Citations per year of age: ``in_degree / (age + 1)``.

    The ``+ 1`` keeps current-year articles finite and matches the common
    age-normalized impact definition.
    """
    years = np.asarray(years)
    if years.shape != (graph.num_nodes,):
        raise ConfigError("years must align with graph nodes")
    age = observation_year - years
    if np.any(age < 0):
        raise ConfigError("observation_year precedes some publications")
    return graph.in_degrees().astype(np.float64) / (age + 1.0)
