"""The benchmark's own span recorder and the table of calls it wraps.

Spans are recorded from *outside* the program: :func:`instrument`
replaces a fixed table of public callables with timing wrappers when a
traced run starts. Nothing under ``src/`` is edited and no ``obs=``
handle is passed in, so an untraced run executes the program exactly as
a user would. A later change can move the span source inside the
program (ROADMAP item 5) and keep the metric names.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span on the same thread (``-1`` for a root). A span's *self*
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter


class Recorder:
    """Spans kept in memory (one list per thread), written once at exit."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        #: work counts accumulated by the wrappers' ``after`` hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[str, List[list]]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.current_thread().name,
                                      local.spans))
        return local

    def begin(self, name: str):
        local = self._state()
        parent = local.stack[-1] if local.stack else -1
        local.stack.append(len(local.spans))
        span = [name, _clock(), None, parent]
        local.spans.append(span)
        return local, span

    @staticmethod
    def end(local, span) -> None:
        span[2] = _clock()
        local.stack.pop()

    # ------------------------------------------------------------------
    # summaries

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, summed self seconds)`` over every thread."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for _, spans in self._threads:
            covered = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _), inner in zip(spans, covered):
                entry = totals[name]
                entry[0] += 1
                entry[1] += (end - start) - inner
        return {name: (int(calls), seconds)
                for name, (calls, seconds) in totals.items()}

    def root_seconds(self) -> float:
        """Time the calling thread spent inside any recorded span."""
        spans = getattr(self._local, "spans", [])
        return sum(end - start for _, start, end, parent in spans
                   if parent < 0)

    def num_spans(self) -> int:
        return sum(len(spans) for _, spans in self._threads)

    def dump(self, path: Path, workload: str) -> None:
        """Write every span as one JSON document (ids are global)."""
        rows = []
        for thread, spans in self._threads:
            offset = len(rows)
            for name, start, end, parent in spans:
                rows.append({"id": len(rows), "name": name,
                             "start": start, "end": end,
                             "parent": parent + offset
                             if parent >= 0 else None,
                             "thread": thread})
        Path(path).write_text(json.dumps(
            {"run_id": self.run_id, "workload": workload,
             "clock": "time.perf_counter", "spans": rows}))


# ----------------------------------------------------------------------
# hooks: work counts read from what the wrapped call returned

def _stage_timings(counts, args, kwargs, result) -> None:
    for stage, seconds in result.diagnostics["timings"].items():
        counts[f"core.model.{stage}_s"] += seconds


def _incremental_report(counts, args, kwargs, report) -> None:
    counts["engine.incremental.affected_nodes"] += len(
        report.affected.nodes)
    counts["engine.incremental.affected_share_sum"] += \
        report.affected.fraction
    counts["engine.incremental.iterations"] += report.iterations


def _index_slots(counts, args, kwargs, result) -> None:
    counts["query.index.slots_built"] += len(args[0])


def _board_bytes(counts, args, kwargs, result) -> None:
    counts["engine.shm.board_bytes"] += args[1].nbytes + args[2].nbytes


def _checkpoint_bytes(counts, args, kwargs, directory) -> None:
    counts["engine.state.checkpoint_bytes"] += sum(
        path.stat().st_size for path in Path(directory).iterdir())


def _flush_name(args, kwargs) -> str:
    # commit() ends in flush(sync=True): the fsync is commit cost, the
    # un-synced flush after each append is append cost.
    synced = kwargs.get("sync", args[1] if len(args) > 1 else False)
    return "ingest.journal.fsync" if synced else "ingest.journal.flush"


#: (module, attribute path, span name). Class attributes where possible;
#: a plain function is replaced under the name its *consuming* module
#: imported it as.
TABLE: List[Tuple[str, str, str]] = [
    ("repro.engine.live", "LiveRanker.apply", "engine.live.apply"),
    ("repro.engine.live", "LiveRanker.checkpoint",
     "engine.live.checkpoint"),
    ("repro.engine.live", "save_engine", "engine.state.save_engine"),
    ("repro.engine.incremental", "IncrementalEngine.apply",
     "engine.incremental.apply"),
    ("repro.core.model", "ArticleRanker.rank", "core.model.rank"),
    ("repro.core.model", "ArticleRanker.rank_with_prestige",
     "core.model.rank_with_prestige"),
    ("repro.query.index", "RankIndex.__init__", "query.index.build"),
    ("repro.serve.service", "RankingService.ingest",
     "serve.service.ingest"),
    ("repro.serve.gateway", "ShardedGateway.ingest",
     "serve.gateway.publish"),
    ("repro.serve.gateway", "ShardedGateway.top_sync",
     "serve.gateway.top"),
    ("repro.serve.gateway", "ShardedGateway.page_sync",
     "serve.gateway.page"),
    ("repro.serve.gateway", "ShardedGateway.rank_of",
     "serve.gateway.rank_of"),
    ("repro.serve.gateway", "merge_top_entries", "serve.merge.merge"),
    ("repro.serve.gateway", "merge_page_entries", "serve.merge.merge"),
    ("repro.engine.shm", "ScoreBoardWriter.publish",
     "engine.shm.board_publish"),
    ("repro.serve.shard", "ShardServer.refresh", "serve.shard.refresh"),
    ("repro.serve.shard", "ShardServer.absorb", "serve.shard.absorb"),
    ("repro.serve.shard", "ProcessShardHandle.call", "serve.shard.call"),
    ("repro.ingest.journal", "IngestJournal.append",
     "ingest.journal.append"),
    ("repro.ingest.journal", "IngestJournal.flush",
     "ingest.journal.flush"),
    ("repro.ingest.journal", "IngestJournal.commit",
     "ingest.journal.commit"),
    ("repro.ingest.journal", "IngestJournal.compact",
     "ingest.journal.compact"),
    ("repro.ingest.partition", "PartitionWorker.accept",
     "ingest.partition.accept"),
    ("repro.ingest.partition", "FanIn.deliver", "ingest.partition.fanin"),
    ("repro.ingest.partition", "FanIn.drain", "ingest.partition.fanin"),
    ("repro.ingest.partition", "parse_record", "ingest.source.parse"),
    ("repro.ingest.pipeline", "AdmissionTiers.admit",
     "ingest.pipeline.admit"),
    ("repro.ingest.dedup", "Deduplicator.check", "ingest.dedup.check"),
    ("repro.ingest.coalescer", "Coalescer.offer",
     "ingest.coalescer.offer_cut"),
    ("repro.ingest.coalescer", "Coalescer.cut",
     "ingest.coalescer.offer_cut"),
    ("repro.engine.parallel", "ParallelBlockEngine.__init__",
     "engine.parallel.build"),
    ("repro.engine.parallel", "ParallelBlockEngine.run",
     "engine.parallel.run"),
]

#: span name -> hook run on what the wrapped call returned.
AFTER: Dict[str, Callable] = {
    "engine.state.save_engine": _checkpoint_bytes,
    "engine.incremental.apply": _incremental_report,
    "core.model.rank": _stage_timings,
    "core.model.rank_with_prestige": _stage_timings,
    "query.index.build": _index_slots,
    "engine.shm.board_publish": _board_bytes,
}

#: span name -> the name one call is actually recorded under.
RENAME: Dict[str, Callable] = {"ingest.journal.flush": _flush_name}


def _wrap(recorder: Recorder, fn: Callable, name: str):
    after, rename = AFTER.get(name), RENAME.get(name)

    @wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        local, span = recorder.begin(
            name if rename is None else rename(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(local, span)
        if after is not None:
            after(recorder.counts, args, kwargs, result)
        return result
    return traced


def resolve(module_name: str, path: str):
    """``(owner, attribute, callable)`` for one table row; raises
    ``AttributeError``/``ImportError`` when the program renamed it."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def instrument(recorder: Recorder) -> int:
    """Install every wrapper; returns how many targets were wrapped."""
    for module_name, path, name in TABLE:
        owner, attribute, fn = resolve(module_name, path)
        setattr(owner, attribute, _wrap(recorder, fn, name))
    return len(TABLE)
