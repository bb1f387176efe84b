"""Resilience: policies, fault injection, and crash-safe execution.

The paper's headline workloads are long-running — batch TWPR over
MAG-scale graphs, parallel block-centric supersteps, a live incremental
ranking service — and long-running systems fail partway. This package
holds the pieces that let the engines survive that:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (bounded
  retries, exponential backoff, seeded jitter) and :class:`Deadline`
  (per-task timeout), consumed by
  :class:`repro.engine.parallel.ParallelBlockEngine`.
* :mod:`repro.resilience.faults` — :class:`Fault` and
  :class:`FaultPlan`: one deterministic, picklable script of injected
  failures (``SITE:KIND:KEY[,KEY…][xTIMES][@VALUE]`` — worker crashes
  and stalls, checkpoint crashes and torn files, poisoned batches and
  shards, ingest crashes), used by the fault-injection suite to *prove*
  the recovery paths (bit-identical fixed points under injected
  failures).

Crash-safe checkpointing itself lives with the engines
(:mod:`repro.engine.state`, :class:`repro.engine.live.LiveRanker`);
see ``docs/OPERATIONS.md`` for the operational picture.
"""

from repro.resilience.faults import (
    WORKER_CRASH_EXIT_CODE,
    Fault,
    FaultPlan,
    InjectedCrash,
)
from repro.resilience.policy import Deadline, RetryDelays, RetryPolicy

__all__ = [
    "Deadline",
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "RetryDelays",
    "RetryPolicy",
    "WORKER_CRASH_EXIT_CODE",
]
