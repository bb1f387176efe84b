"""Deterministic fault injection for the resilience test harness.

A :class:`FaultPlan` is a picklable script of failures: crash worker 1
on superstep 2, stall worker 0 past its deadline on superstep 3,
truncate ``state.npz`` after a checkpoint is written, crash the saver
between two of its file writes. Engines and the checkpoint writer accept
a plan as an optional keyword (default ``None``: zero overhead, no
behaviour change) and consult it at the exact points where real
hardware and processes fail.

Determinism is the whole point: a seeded plan injects the *same*
failures on every run, so the fault-injection suite can assert strong
properties — above all that a faulted parallel run converges to scores
**bit-identical** to the fault-free run — instead of merely "it did not
crash".

Worker-side faults are stateless queries keyed by ``(worker, superstep,
attempt)``: a fault with ``times=t`` fires on attempts ``0..t-1`` and
lets attempt ``t`` through. The coordinator passes the attempt number
with each (re-)dispatch, so a respawned worker process — which holds a
fresh copy of the plan — still knows the failure already happened.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class InjectedCrash(RuntimeError):
    """Raised by fault hooks that simulate a hard process death.

    Deliberately *not* a :class:`repro.errors.ReproError`: production
    code must never catch it as part of normal error handling, exactly
    as it cannot catch a real ``SIGKILL``.
    """


#: Exit code used when a worker process is crashed by a plan; chosen to
#: be recognizable in CI logs.
WORKER_CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class WorkerFault:
    """One scripted worker failure."""

    kind: str  # "crash" | "delay"
    worker: int
    superstep: int
    times: int = 1
    seconds: float = 0.0


@dataclass(frozen=True)
class BatchFault:
    """One scripted update-batch failure (the serving layer's faults).

    ``kind``:

    * ``"crash"`` — the update path raises while applying the batch
      (a poisoned parser record, an assertion deep in the solve);
    * ``"nan"`` — the batch applies but the resulting ranking carries
      non-finite scores (numeric poisoning the publish guardrails must
      catch before the snapshot swap).

    Keyed by ``(batch index, attempt)`` exactly like worker faults: a
    fault with ``times=t`` fires on attempts ``0..t-1`` and lets
    attempt ``t`` through, so retry/quarantine paths are testable.
    """

    kind: str  # "crash" | "nan"
    batch: int
    times: int = 1


@dataclass(frozen=True)
class ShardFault:
    """One scripted serving-shard failure (the sharded tier's faults).

    ``kind``:

    * ``"crash"`` — the shard worker dies while refreshing at the given
      epoch (hard process exit in process mode, so the gateway observes
      a dead pipe exactly like a real OOM kill);
    * ``"poison"`` — the shard's slice of the published scores arrives
      NaN-poisoned, which the per-shard refresh guardrails must veto
      while the last good shard snapshot keeps serving.

    Keyed by ``(shard, epoch, attempt)``: a fault with ``times=t``
    fires on refresh attempts ``0..t-1`` for that epoch and lets
    attempt ``t`` through — the gateway passes the attempt number with
    each (re-)dispatch, so a respawned shard process (fresh plan copy)
    still knows the failure already happened.
    """

    kind: str  # "crash" | "poison"
    shard: int
    epoch: int
    times: int = 1


@dataclass(frozen=True)
class IngestFault:
    """One scripted streaming-ingestion failure.

    ``kind``:

    * ``"stall"`` — the record source sleeps ``seconds`` before
      delivering record ``key`` (a slow upstream, a network hiccup);
    * ``"error"`` — the source raises a transient
      :class:`repro.errors.SourceError` delivering record ``key``
      (the pipeline's retry policy must absorb it);
    * ``"parse"`` — the parser crashes on record ``key`` (an
      :class:`InjectedCrash`, not a :class:`~repro.errors.ParseError`:
      a flaky native parser, not bad data — the pipeline retries up
      to its attempt budget, then routes the record to quarantine as
      poison);
    * ``"crash"`` — the ingest worker hard-dies while applying batch
      ``key`` (the exception escapes the pipeline, exactly like a
      process death mid-batch; resume must replay from the journal).

    Keyed by ``(key, attempt)`` like every other fault family: a fault
    with ``times=t`` fires on attempts ``0..t-1`` and lets attempt
    ``t`` through. For ``"crash"`` the attempt number is the pipeline
    *incarnation* (how many times it has resumed), so a resumed
    pipeline — holding the same plan — knows the crash already
    happened.
    """

    kind: str  # "stall" | "error" | "parse" | "crash"
    key: int
    times: int = 1
    seconds: float = 0.0


@dataclass(frozen=True)
class PartitionFault:
    """One scripted partitioned-ingest-worker failure.

    ``kind``:

    * ``"crash"`` — partition ``partition``'s worker hard-dies when the
      router reaches global arrival sequence ``key`` (after the record
      was journaled and flushed, the nastiest window). Keyed by
      ``(partition, key, incarnation)``: the fault fires on worker
      incarnations ``0..times-1``, so the recovered worker (incarnation
      + 1) lets the record through. Scheduling the same ``key`` for
      several partitions kills them *simultaneously* — bystander
      partitions die too, even though the record was not routed to
      them.
    * ``"stall"`` — the worker sleeps ``seconds`` before journaling the
      record at sequence ``key`` (one slow partition; the others must
      keep draining).
    * ``"tear"`` — when partition ``partition`` is recovered after a
      crash, chop ``tear_bytes`` off its active journal segment first,
      simulating the unsynced tail a real power loss takes with it.
      Keyed by ``(partition, incarnation)``: ``times`` consecutive
      recoveries each tear, then the tail survives.
    """

    kind: str  # "crash" | "stall" | "tear"
    partition: int
    key: int = 0
    times: int = 1
    seconds: float = 0.0
    tear_bytes: int = 8


@dataclass
class FaultPlan:
    """A deterministic, picklable script of injected failures."""

    seed: int = 0
    worker_faults: List[WorkerFault] = field(default_factory=list)
    file_truncations: Dict[str, int] = field(default_factory=dict)
    crash_after: Optional[int] = None
    batch_faults: List[BatchFault] = field(default_factory=list)
    shard_faults: List[ShardFault] = field(default_factory=list)
    ingest_faults: List[IngestFault] = field(default_factory=list)
    partition_faults: List[PartitionFault] = field(default_factory=list)
    _files_written: int = field(default=0, repr=False)

    # ------------------------------------------------------------------
    # scripting

    def crash_worker(self, worker: int, superstep: int,
                     times: int = 1) -> "FaultPlan":
        """Kill ``worker``'s process on ``superstep`` (first ``times``
        attempts)."""
        self.worker_faults.append(WorkerFault(
            "crash", int(worker), int(superstep), int(times)))
        return self

    def delay_task(self, worker: int, superstep: int, seconds: float,
                   times: int = 1) -> "FaultPlan":
        """Stall ``worker``'s task on ``superstep`` for ``seconds``."""
        self.worker_faults.append(WorkerFault(
            "delay", int(worker), int(superstep), int(times),
            float(seconds)))
        return self

    def crash_random_worker(self, num_workers: int, max_superstep: int,
                            times: int = 1) -> Tuple[int, int]:
        """Script one seeded-random crash; returns its (worker, step)."""
        rng = random.Random(self.seed)
        worker = rng.randrange(num_workers)
        superstep = rng.randrange(1, max_superstep + 1)
        self.crash_worker(worker, superstep, times)
        return worker, superstep

    def truncate_file(self, name: str, keep_bytes: int = 64) -> "FaultPlan":
        """Tear the named checkpoint file down to ``keep_bytes`` after
        the save finishes its manifest (simulates post-write corruption
        or a torn page)."""
        self.file_truncations[name] = int(keep_bytes)
        return self

    def crash_after_files(self, count: int) -> "FaultPlan":
        """Crash the checkpoint writer after ``count`` files are
        written (simulates a process dying mid-save)."""
        self.crash_after = int(count)
        return self

    def crash_batch(self, batch: int, times: int = 1) -> "FaultPlan":
        """Make the update path raise while applying batch ``batch``
        (first ``times`` attempts)."""
        self.batch_faults.append(BatchFault("crash", int(batch),
                                            int(times)))
        return self

    def poison_batch(self, batch: int, times: int = 1) -> "FaultPlan":
        """Make batch ``batch`` yield a ranking with NaN scores (first
        ``times`` attempts) — the guardrails, not the apply, must stop
        it."""
        self.batch_faults.append(BatchFault("nan", int(batch),
                                            int(times)))
        return self

    def crash_shard(self, shard: int, epoch: int,
                    times: int = 1) -> "FaultPlan":
        """Kill serving shard ``shard`` while it refreshes to ``epoch``
        (first ``times`` attempts)."""
        self.shard_faults.append(ShardFault("crash", int(shard),
                                            int(epoch), int(times)))
        return self

    def poison_shard(self, shard: int, epoch: int,
                     times: int = 1) -> "FaultPlan":
        """NaN-poison shard ``shard``'s score slice at ``epoch`` (first
        ``times`` refresh attempts) — the per-shard guardrails, not the
        read, must stop it."""
        self.shard_faults.append(ShardFault("poison", int(shard),
                                            int(epoch), int(times)))
        return self

    def stall_source(self, record: int, seconds: float,
                     times: int = 1) -> "FaultPlan":
        """Stall the record source for ``seconds`` before delivering
        record ``record`` (first ``times`` attempts)."""
        self.ingest_faults.append(IngestFault(
            "stall", int(record), int(times), float(seconds)))
        return self

    def fail_source(self, record: int, times: int = 1) -> "FaultPlan":
        """Make the source raise a transient ``SourceError`` delivering
        record ``record`` (first ``times`` attempts)."""
        self.ingest_faults.append(IngestFault("error", int(record),
                                              int(times)))
        return self

    def crash_parser(self, record: int, times: int = 1) -> "FaultPlan":
        """Crash the parser on record ``record`` (first ``times``
        attempts). With ``times`` at or beyond the pipeline's parse
        attempt budget the record becomes poison and is quarantined."""
        self.ingest_faults.append(IngestFault("parse", int(record),
                                              int(times)))
        return self

    def crash_ingest(self, batch: int, times: int = 1) -> "FaultPlan":
        """Hard-kill the ingest worker while it applies batch ``batch``
        (first ``times`` incarnations)."""
        self.ingest_faults.append(IngestFault("crash", int(batch),
                                              int(times)))
        return self

    def crash_partition_worker(self, partition: int, seq: int,
                               times: int = 1) -> "FaultPlan":
        """Hard-kill ingest partition ``partition``'s worker when the
        router reaches global arrival sequence ``seq`` (first ``times``
        worker incarnations). Script the same ``seq`` for several
        partitions to kill them at the same instant."""
        self.partition_faults.append(PartitionFault(
            "crash", int(partition), int(seq), int(times)))
        return self

    def stall_partition_worker(self, partition: int, seq: int,
                               seconds: float,
                               times: int = 1) -> "FaultPlan":
        """Stall partition ``partition``'s worker for ``seconds``
        before it journals the record at sequence ``seq``."""
        self.partition_faults.append(PartitionFault(
            "stall", int(partition), int(seq), int(times),
            float(seconds)))
        return self

    def tear_partition_tail(self, partition: int, tear_bytes: int = 8,
                            times: int = 1) -> "FaultPlan":
        """Chop ``tear_bytes`` off partition ``partition``'s active
        journal segment each time the worker is recovered (first
        ``times`` recoveries) — the crash loses its unsynced tail."""
        self.partition_faults.append(PartitionFault(
            "tear", int(partition), 0, int(times),
            tear_bytes=int(tear_bytes)))
        return self

    # ------------------------------------------------------------------
    # query / fire side (called from engines and the checkpoint writer)

    def worker_fault(self, worker: int, superstep: int,
                     attempt: int = 0) -> Optional[WorkerFault]:
        """The scripted fault for this dispatch, if it should still fire."""
        for fault in self.worker_faults:
            if (fault.worker == worker and fault.superstep == superstep
                    and attempt < fault.times):
                return fault
        return None

    def fire_worker_fault(self, worker: int, superstep: int,
                          attempt: int = 0) -> None:
        """Execute the scripted fault inside a worker process."""
        fault = self.worker_fault(worker, superstep, attempt)
        if fault is None:
            return
        if fault.kind == "delay":
            time.sleep(fault.seconds)
        elif fault.kind == "crash":
            # A hard exit, not an exception: the pool must observe a
            # dead process, exactly like an OOM kill or segfault.
            os._exit(WORKER_CRASH_EXIT_CODE)

    def batch_fault(self, batch: int,
                    attempt: int = 0) -> Optional[BatchFault]:
        """The scripted fault for this batch attempt, if it should
        still fire."""
        for fault in self.batch_faults:
            if fault.batch == batch and attempt < fault.times:
                return fault
        return None

    def fire_batch_crash(self, batch: int, attempt: int = 0) -> None:
        """Raise :class:`InjectedCrash` if a ``"crash"`` batch fault is
        scripted for this attempt (called from inside the update path)."""
        fault = self.batch_fault(batch, attempt)
        if fault is not None and fault.kind == "crash":
            raise InjectedCrash(
                f"injected update-path crash applying batch {batch} "
                f"(attempt {attempt})")

    def shard_fault(self, shard: int, epoch: int,
                    attempt: int = 0) -> Optional[ShardFault]:
        """The scripted fault for this shard refresh attempt, if it
        should still fire."""
        for fault in self.shard_faults:
            if (fault.shard == shard and fault.epoch == epoch
                    and attempt < fault.times):
                return fault
        return None

    def fire_shard_crash(self, shard: int, epoch: int,
                         attempt: int = 0) -> None:
        """Raise :class:`InjectedCrash` if a ``"crash"`` shard fault is
        scripted for this refresh attempt. Shard worker processes turn
        the exception into a hard ``os._exit`` so the gateway sees a
        dead pipe, exactly like a real worker death."""
        fault = self.shard_fault(shard, epoch, attempt)
        if fault is not None and fault.kind == "crash":
            raise InjectedCrash(
                f"injected shard crash: shard {shard} refreshing to "
                f"epoch {epoch} (attempt {attempt})")

    def ingest_fault(self, kind: str, key: int,
                     attempt: int = 0) -> Optional[IngestFault]:
        """The scripted ingest fault of ``kind`` for this attempt, if
        it should still fire."""
        for fault in self.ingest_faults:
            if (fault.kind == kind and fault.key == key
                    and attempt < fault.times):
                return fault
        return None

    def fire_source_fault(self, record: int, attempt: int = 0) -> None:
        """Execute the scripted source fault delivering ``record``:
        sleep through a ``"stall"``, raise a transient
        :class:`repro.errors.SourceError` on an ``"error"``."""
        stall = self.ingest_fault("stall", record, attempt)
        if stall is not None:
            time.sleep(stall.seconds)
        if self.ingest_fault("error", record, attempt) is not None:
            from repro.errors import SourceError

            raise SourceError(
                f"injected transient source failure delivering record "
                f"{record} (attempt {attempt})", position=record)

    def fire_parse_crash(self, record: int, attempt: int = 0) -> None:
        """Raise :class:`InjectedCrash` if a ``"parse"`` fault is
        scripted for this record attempt (a flaky parser, retryable)."""
        if self.ingest_fault("parse", record, attempt) is not None:
            raise InjectedCrash(
                f"injected parser crash on record {record} "
                f"(attempt {attempt})")

    def fire_ingest_crash(self, batch: int, incarnation: int = 0) -> None:
        """Raise :class:`InjectedCrash` if a ``"crash"`` fault is
        scripted for this batch and pipeline incarnation. The pipeline
        does *not* catch it — the exception escapes like a real process
        death, and the resumed pipeline (incarnation + 1) lets the
        batch through."""
        if self.ingest_fault("crash", batch, incarnation) is not None:
            raise InjectedCrash(
                f"injected ingest-worker crash applying batch {batch} "
                f"(incarnation {incarnation})")

    def partition_fault(self, kind: str, partition: int, key: int,
                        attempt: int = 0) -> Optional[PartitionFault]:
        """The scripted partition fault of ``kind`` for this attempt,
        if it should still fire. For ``"crash"``/``"stall"`` the
        attempt is the worker incarnation; for ``"tear"`` it is the
        recovery count (``key`` is ignored — pass 0)."""
        for fault in self.partition_faults:
            if (fault.kind == kind and fault.partition == partition
                    and (kind == "tear" or fault.key == key)
                    and attempt < fault.times):
                return fault
        return None

    def fire_partition_stall(self, partition: int, seq: int,
                             incarnation: int = 0) -> None:
        """Sleep through a scripted ``"stall"`` for this partition at
        this arrival sequence."""
        fault = self.partition_fault("stall", partition, seq,
                                     incarnation)
        if fault is not None:
            time.sleep(fault.seconds)

    def fire_partition_crash(self, partition: int, seq: int,
                             incarnation: int = 0) -> None:
        """Raise :class:`InjectedCrash` if a ``"crash"`` partition
        fault is scripted for this sequence and worker incarnation."""
        if self.partition_fault("crash", partition, seq,
                                incarnation) is not None:
            raise InjectedCrash(
                f"injected partition-worker crash: partition "
                f"{partition} at arrival seq {seq} "
                f"(incarnation {incarnation})")

    def partition_tear_for(self, partition: int,
                           recovery: int = 0) -> Optional[int]:
        """Bytes to chop off ``partition``'s active segment during its
        ``recovery``-th crash recovery, or ``None``."""
        fault = self.partition_fault("tear", partition, 0, recovery)
        return fault.tear_bytes if fault is not None else None

    def on_file_written(self, name: str) -> None:
        """Checkpoint-writer hook, called after each file write."""
        self._files_written += 1
        if self.crash_after is not None \
                and self._files_written >= self.crash_after:
            raise InjectedCrash(
                f"injected crash after writing {self._files_written} "
                f"checkpoint file(s) (last: {name})")

    def truncation_for(self, name: str) -> Optional[int]:
        """Bytes to keep of ``name`` post-save, or None."""
        return self.file_truncations.get(name)


def tear_active_segment(directory, tear_bytes: int = 8) -> None:
    """Chop ``tear_bytes`` off a journal directory's active segment —
    the unsynced tail a simulated power loss takes with it."""
    for path in Path(directory).glob("segment-*.open"):
        size = path.stat().st_size
        with open(path, "rb+") as handle:
            handle.truncate(max(0, size - tear_bytes))
