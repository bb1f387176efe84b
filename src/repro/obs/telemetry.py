"""Solver/engine telemetry: what happened on the way to the fixed point.

:class:`SolverTelemetry` is a passive recorder handed into a solver or
engine via its ``telemetry=`` keyword (always optional, default off).
Call sites guard every record with ``if telemetry is not None`` so the
hot loops pay a single pointer comparison when telemetry is disabled —
and, crucially, telemetry never participates in the math: fixed points
are bit-identical with it on or off.

What it captures (each section filled only by the components that have
it):

* per-iteration/sweep residual trajectory (+ dangling mass for solvers
  that track it);
* per-superstep records for the block engines: wall-clock, boundary
  messages, residual, and per-block/worker inner-iteration attribution;
* bytes shipped to worker processes (payloads and per-superstep score
  exchanges);
* per-batch affected-area records for the incremental engine;
* recovery events (worker crashes/timeouts, respawns, degradations)
  from the resilient parallel engine;
* free-form named counters and nested stage timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.convergence import ConvergenceStream
from repro.obs.timers import StageTimings


@dataclass
class SuperstepRecord:
    """One superstep of a block-centric engine."""

    index: int
    seconds: float
    messages: int
    residual: float
    local_iterations: int = 0
    #: inner iterations per block id (worker attribution lives in
    #: :attr:`SolverTelemetry.worker_blocks`).
    block_iterations: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "seconds": self.seconds,
            "messages": self.messages,
            "residual": self.residual,
            "local_iterations": self.local_iterations,
            "block_iterations": {str(k): v
                                 for k, v in self.block_iterations.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SuperstepRecord":
        return cls(
            index=int(payload["index"]),
            seconds=float(payload["seconds"]),
            messages=int(payload["messages"]),
            residual=float(payload["residual"]),
            local_iterations=int(payload.get("local_iterations", 0)),
            block_iterations={int(k): int(v) for k, v
                              in payload.get("block_iterations",
                                             {}).items()})


@dataclass
class BatchRecord:
    """One update batch applied by the incremental engine."""

    index: int
    affected_nodes: int
    affected_fraction: float
    seeds: int
    iterations: int
    residual: float
    seconds: float
    num_nodes: int
    num_edges: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "affected_nodes": self.affected_nodes,
            "affected_fraction": self.affected_fraction,
            "seeds": self.seeds,
            "iterations": self.iterations,
            "residual": self.residual,
            "seconds": self.seconds,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BatchRecord":
        return cls(**{key: (int(payload[key]) if key in
                            ("index", "affected_nodes", "seeds",
                             "iterations", "num_nodes", "num_edges")
                            else float(payload[key]))
                      for key in ("index", "affected_nodes",
                                  "affected_fraction", "seeds",
                                  "iterations", "residual", "seconds",
                                  "num_nodes", "num_edges")})


@dataclass
class RecoveryRecord:
    """One fault-handling event in a resilient engine.

    ``kind`` is one of ``"crash"`` (a worker process died),
    ``"timeout"`` (a task blew its :class:`repro.resilience.Deadline`),
    ``"respawn"`` (a replacement worker pool was started and the blocks
    re-dispatched) or ``"degrade"`` (retries exhausted; the coordinator
    took the worker's blocks inline for the rest of the run).
    """

    index: int
    superstep: int
    worker: int
    kind: str
    attempt: int = 0
    blocks: List[int] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "superstep": self.superstep,
            "worker": self.worker,
            "kind": self.kind,
            "attempt": self.attempt,
            "blocks": list(self.blocks),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RecoveryRecord":
        return cls(index=int(payload["index"]),
                   superstep=int(payload["superstep"]),
                   worker=int(payload["worker"]),
                   kind=str(payload["kind"]),
                   attempt=int(payload.get("attempt", 0)),
                   blocks=[int(b) for b in payload.get("blocks", [])])


class SolverTelemetry:
    """Recorder for one solver/engine run (or one live session)."""

    def __init__(self, solver: str = "") -> None:
        self.solver = solver
        self.residuals: List[float] = []
        self.dangling_mass: List[float] = []
        self.supersteps: List[SuperstepRecord] = []
        self.batches: List[BatchRecord] = []
        self.recoveries: List[RecoveryRecord] = []
        self.worker_blocks: Dict[int, List[int]] = {}
        self.bytes_shipped: int = 0
        self.counters: Dict[str, float] = {}
        self.timings = StageTimings()
        self.convergence: Dict[str, ConvergenceStream] = {}

    # ------------------------------------------------------------------
    # recording (call sites guard with `if telemetry is not None`)

    def record_iteration(self, residual: float,
                         dangling_mass: Optional[float] = None) -> None:
        """One iteration/sweep of an iterative solver."""
        self.residuals.append(float(residual))
        if dangling_mass is not None:
            self.dangling_mass.append(float(dangling_mass))

    def record_superstep(self, seconds: float, messages: int,
                         residual: float, local_iterations: int = 0,
                         block_iterations: Optional[Dict[int, int]] = None
                         ) -> SuperstepRecord:
        """One superstep of a block/vertex-centric engine."""
        record = SuperstepRecord(
            index=len(self.supersteps), seconds=float(seconds),
            messages=int(messages), residual=float(residual),
            local_iterations=int(local_iterations),
            block_iterations=dict(block_iterations or {}))
        self.supersteps.append(record)
        return record

    def record_batch(self, affected_nodes: int, affected_fraction: float,
                     seeds: int, iterations: int, residual: float,
                     seconds: float, num_nodes: int,
                     num_edges: int) -> BatchRecord:
        """One incremental update batch."""
        record = BatchRecord(
            index=len(self.batches), affected_nodes=int(affected_nodes),
            affected_fraction=float(affected_fraction), seeds=int(seeds),
            iterations=int(iterations), residual=float(residual),
            seconds=float(seconds), num_nodes=int(num_nodes),
            num_edges=int(num_edges))
        self.batches.append(record)
        return record

    def record_recovery(self, superstep: int, worker: int, kind: str,
                        attempt: int = 0,
                        blocks: Optional[List[int]] = None
                        ) -> RecoveryRecord:
        """One fault-handling event (crash/timeout/respawn/degrade).

        Also bumps the matching ``resilience.<kind>s`` counter so cheap
        aggregate checks don't need to walk the event list.
        """
        record = RecoveryRecord(
            index=len(self.recoveries), superstep=int(superstep),
            worker=int(worker), kind=str(kind), attempt=int(attempt),
            blocks=[int(b) for b in (blocks or [])])
        self.recoveries.append(record)
        counter = "resilience.crashes" if kind == "crash" \
            else f"resilience.{kind}s"
        self.incr(counter)
        return record

    def record_worker(self, worker: int, blocks: List[int]) -> None:
        """Which blocks a worker owns (parallel-engine attribution)."""
        self.worker_blocks[int(worker)] = [int(b) for b in blocks]

    def record_bytes(self, count: int) -> None:
        """Bytes serialized toward worker processes."""
        self.bytes_shipped += int(count)

    def open_stream(self, name: str,
                    kind: str = "iteration") -> ConvergenceStream:
        """Get or create the named :class:`ConvergenceStream`.

        Solvers open one stream per solve (e.g. ``"gauss_seidel"``) and
        append a point per iteration; engines open ``"superstep"`` /
        ``"batch"`` streams. All streams serialize with the telemetry.
        """
        stream = self.convergence.get(name)
        if stream is None:
            stream = ConvergenceStream(name=name, kind=kind)
            self.convergence[name] = stream
        return stream

    def incr(self, name: str, value: float = 1.0) -> None:
        """Bump a named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def set_counter(self, name: str, value: float) -> None:
        """Set a named counter to an absolute value."""
        self.counters[name] = float(value)

    # ------------------------------------------------------------------
    # views

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(record.messages for record in self.supersteps)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of everything recorded."""
        payload: Dict[str, object] = {
            "solver": self.solver,
            "iterations": self.iterations,
            "residuals": list(self.residuals),
        }
        if self.dangling_mass:
            payload["dangling_mass"] = list(self.dangling_mass)
        if self.supersteps:
            payload["supersteps"] = [r.as_dict() for r in self.supersteps]
            payload["total_messages"] = self.total_messages
        if self.batches:
            payload["batches"] = [r.as_dict() for r in self.batches]
        if self.recoveries:
            payload["recoveries"] = [r.as_dict() for r in self.recoveries]
        if self.worker_blocks:
            payload["worker_blocks"] = {str(w): blocks for w, blocks
                                        in self.worker_blocks.items()}
        if self.bytes_shipped:
            payload["bytes_shipped"] = self.bytes_shipped
        if self.counters:
            payload["counters"] = dict(self.counters)
        if len(self.timings):
            payload["timings"] = self.timings.as_dict()
        if self.convergence:
            payload["convergence"] = [stream.as_dict() for stream
                                      in self.convergence.values()]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SolverTelemetry":
        """Rebuild a telemetry snapshot saved by :meth:`as_dict`.

        Inverse up to what ``as_dict`` serializes: ``timings`` come back
        flat (compound stage keys preserved, per-stage entry counts
        reset to 1), which keeps ``as_dict`` → ``from_dict`` →
        ``as_dict`` a fixed point.
        """
        telemetry = cls(solver=str(payload.get("solver", "")))
        telemetry.residuals = [float(r) for r
                               in payload.get("residuals", [])]
        telemetry.dangling_mass = [float(m) for m
                                   in payload.get("dangling_mass", [])]
        telemetry.supersteps = [SuperstepRecord.from_dict(r)
                                for r in payload.get("supersteps", [])]
        telemetry.batches = [BatchRecord.from_dict(r)
                             for r in payload.get("batches", [])]
        telemetry.recoveries = [RecoveryRecord.from_dict(r)
                                for r in payload.get("recoveries", [])]
        telemetry.worker_blocks = {
            int(worker): [int(b) for b in blocks]
            for worker, blocks in payload.get("worker_blocks",
                                              {}).items()}
        telemetry.bytes_shipped = int(payload.get("bytes_shipped", 0))
        telemetry.counters = {str(k): float(v) for k, v
                              in payload.get("counters", {}).items()}
        for key, seconds in payload.get("timings", {}).items():
            telemetry.timings.add(key, seconds)
        for stream in payload.get("convergence", []):
            parsed = ConvergenceStream.from_dict(stream)
            telemetry.convergence[parsed.name] = parsed
        return telemetry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SolverTelemetry(solver={self.solver!r}, "
                f"iterations={self.iterations}, "
                f"supersteps={self.num_supersteps}, "
                f"batches={len(self.batches)})")
