"""Execution engines: block-centric parallel and incremental.

* :mod:`repro.engine.blocks` — block-centric (graph-centric) superstep
  engine and the vertex-centric baseline, with superstep/message
  accounting (E5).
* :mod:`repro.engine.parallel` — multiprocessing executor for the block
  engine (E5 speedup curves).
* :mod:`repro.engine.incremental` — dynamic ranking: affected-area
  discovery and boundary-fixed re-iteration (E6/E7).
"""

from repro.engine.blocks import (
    BlockEngine,
    BlockRankResult,
    vertex_centric_pagerank,
)
from repro.engine.incremental import (
    AffectedArea,
    IncrementalEngine,
    IncrementalReport,
)
from repro.engine.live import LiveRanker
from repro.engine.state import load_engine, save_engine
from repro.engine.parallel import ParallelBlockEngine
from repro.engine.updates import (
    UpdateBatch,
    apply_update,
    fraction_update,
    yearly_updates,
)

__all__ = [
    "BlockEngine",
    "BlockRankResult",
    "vertex_centric_pagerank",
    "ParallelBlockEngine",
    "AffectedArea",
    "IncrementalEngine",
    "IncrementalReport",
    "LiveRanker",
    "load_engine",
    "save_engine",
    "UpdateBatch",
    "apply_update",
    "fraction_update",
    "yearly_updates",
]
