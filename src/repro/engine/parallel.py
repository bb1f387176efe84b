"""Multiprocessing executor for the block-centric engine.

Reproduces the paper's parallel-scalability experiment on one machine:
each worker process owns a set of blocks (built once, in the worker, via
an initializer), and every superstep ships the previous global score
vector to workers and block scores back — the in-process analogue of a
graph-centric distributed runtime. The superstep loop is not here:
:class:`ParallelBlockEngine` is a
:class:`repro.engine.blocks.BlockEngine` whose slots are worker
processes, and this module holds only what is parallel — the data
planes, dispatch and recovery.

Two data planes, selected by ``shared_memory``:

* **Zero-copy (default where available).** The coordinator packs the
  immutable CSR block operators and a score board — a double-buffered
  frontier (``2 × n``), a result vector (``n``) and an epoch counter —
  into :mod:`multiprocessing.shared_memory` segments created once per
  run. Workers attach at pool-init and build numpy views directly over
  the segments, so a superstep dispatch carries only ``(block_ids,
  epoch, TraceContext)`` and workers write their block scores straight
  into the result buffer: per-superstep pickled bytes drop to the
  control-message floor. The frontier is double-buffered and guarded by
  a seqlock-style epoch check (written *after* the frontier, verified
  before and after the worker's copy), so a task can never read a
  half-written frontier — an abandoned zombie task observing a stale
  epoch dies on :class:`repro.engine.shm.StaleFrontierError` instead.
* **Pickle (fallback and ``shared_memory=False``).** The original path:
  per-worker block payloads ship through the pool initializer and each
  superstep pickles the previous score vector to every live worker.
  Payloads and dispatch tuples are serialized exactly once — the same
  buffer feeds both the send path and ``telemetry.record_bytes``.

Payload discipline: every worker receives **only its own blocks**. Each
worker is backed by its own single-process pool so its initializer can be
handed exactly its chunk (or, zero-copy, exactly its segment) — a shared
pool would force one initargs tuple onto every worker. The telemetry
layer records the bytes actually serialized so regressions here are
measurable.

Failure handling: a superstep's inputs are immutable (the previous global
score vector), so any failed dispatch can be replayed without touching
history. When a worker process dies (``BrokenProcessPool``) or blows its
:class:`repro.resilience.Deadline`, the coordinator respawns that
worker's single-process pool — re-attaching the shared segments, or
re-shipping the pickled payload — and re-dispatches the same blocks
under a :class:`repro.resilience.RetryPolicy`; once retries are
exhausted the worker is *degraded* — its blocks are solved inline in the
coordinator through the very same code path — for the rest of the run.
A timed-out worker may still be alive, so its slot additionally stops
writing through shared memory (scores return by value from then on):
a zombie scribbling into the result buffer can never be read back.
Recovery never changes the math: the fixed point stays **bit-identical**
to the fault-free run, which the fault-injection suite asserts with
``np.array_equal``. Shared segments are closed and unlinked in a
``finally`` block, so neither a clean nor a crashed run leaks one.

With ``num_workers=1`` every :class:`BlockRankResult` field equals the
serial engine's (one slot, same loop), and the fixed point is identical
across data planes for any worker count; only wall-clock changes with
``num_workers`` (E5's speedup curve).
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager, nullcontext
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition
from repro.engine.blocks import (
    BlockEngine,
    BlockRankResult,
    _solve_block_set,
    flatten_block_payload,
    rebuild_block_payload,
)
from repro.engine.shm import (
    SHARED_MEMORY_AVAILABLE,
    SegmentLayout,
    StaleFrontierError,
    attach_arrays,
    destroy_segment,
    map_views,
    pack_arrays,
)
from repro.obs.handle import Observability, maybe_span
from repro.obs.telemetry import SolverTelemetry
from repro.obs.trace import Span, TraceContext, Tracer, _new_id
from repro.resilience import (WORKER_CRASH_EXIT_CODE, Deadline, FaultPlan,
                              InjectedCrash, RetryPolicy)

# Worker-process state, installed by _init_worker.
_WORKER_BLOCKS: Dict[int, tuple] = {}
_WORKER_DAMPING: float = 0.85
_WORKER_ID: int = -1
_WORKER_PLAN: Optional[FaultPlan] = None
#: Attached SharedMemory handles — referenced so views stay valid for
#: the worker's lifetime; the OS drops the mappings at process exit.
_WORKER_SEGMENTS: List[object] = []
#: Zero-copy score board views (``epoch``/``frontier``/``result``), or
#: ``None`` on the pickle data plane.
_WORKER_BOARD: Optional[Dict[str, np.ndarray]] = None
_WORKER_ATTACH_SECONDS: float = 0.0
_WORKER_ATTACH_START: float = 0.0
_WORKER_ATTACH_REPORTED: bool = False


@dataclass(frozen=True)
class ShmWorkerInit:
    """Pool-init manifest for the zero-copy data plane.

    Carries segment *layouts* (names, dtypes, offsets), never array
    data: this — plus per-superstep control tuples — is all that is
    pickled toward a shared-memory worker.
    """

    block_layout: SegmentLayout
    block_shapes: Dict[int, Tuple[Tuple[int, int], Tuple[int, int]]]
    scores_layout: SegmentLayout


def _init_worker(init_bytes: bytes, damping: float,
                 worker_id: int = -1,
                 fault_plan: Optional[FaultPlan] = None) -> None:
    """Install this worker's blocks (runs once per worker process).

    ``init_bytes`` unpickles either to the block payload dict (pickle
    plane) or to a :class:`ShmWorkerInit` (zero-copy plane), in which
    case the worker attaches the coordinator's segments and rebuilds
    the operators as views over them.
    """
    global _WORKER_BLOCKS, _WORKER_DAMPING, _WORKER_ID, _WORKER_PLAN, \
        _WORKER_BOARD, _WORKER_ATTACH_SECONDS, _WORKER_ATTACH_START, \
        _WORKER_ATTACH_REPORTED
    install = pickle.loads(init_bytes)
    if isinstance(install, ShmWorkerInit):
        _WORKER_ATTACH_START = time.time()
        start = time.perf_counter()
        block_segment, block_arrays = attach_arrays(install.block_layout)
        board_segment, board = attach_arrays(install.scores_layout)
        _WORKER_SEGMENTS.extend((block_segment, board_segment))
        _WORKER_BLOCKS = rebuild_block_payload(block_arrays,
                                               install.block_shapes)
        _WORKER_BOARD = board
        _WORKER_ATTACH_SECONDS = time.perf_counter() - start
    else:
        _WORKER_BLOCKS = install
        _WORKER_BOARD = None
    _WORKER_ATTACH_REPORTED = False
    _WORKER_DAMPING = damping
    _WORKER_ID = worker_id
    _WORKER_PLAN = fault_plan


def _read_frontier(epoch: int) -> np.ndarray:
    """Seqlock read of the dispatched epoch's frontier buffer.

    The coordinator fully writes buffer ``epoch % 2`` *before* bumping
    the shared epoch counter, and never rewrites that buffer until two
    epochs later — so ``epoch`` matching both before and after the copy
    proves the copy saw a fully written frontier.
    """
    board = _WORKER_BOARD
    if int(board["epoch"][0]) != epoch:
        raise StaleFrontierError(
            f"worker {_WORKER_ID} dispatched for epoch {epoch} but the "
            f"score board is at epoch {int(board['epoch'][0])}")
    previous = np.array(board["frontier"][epoch % 2])
    if int(board["epoch"][0]) != epoch:
        raise StaleFrontierError(
            f"epoch advanced past {epoch} during the frontier copy")
    return previous


def _attach_span(trace_ctx: TraceContext) -> Dict[str, object]:
    """The worker's segment-attach, reported as a finished span dict."""
    return Span(trace_id=trace_ctx.trace_id, span_id=_new_id(),
                parent_id=trace_ctx.span_id, name="ipc.attach",
                start=_WORKER_ATTACH_START,
                duration=_WORKER_ATTACH_SECONDS,
                attributes={"worker": _WORKER_ID}).as_dict()


def _solve_blocks_task(task_bytes: bytes
                       ) -> Tuple[List[Tuple[int, Optional[np.ndarray],
                                             int]],
                                  List[Dict[str, object]]]:
    """One worker task: fire any scripted fault, then solve the blocks.

    ``task_bytes`` unpickles to ``(block_ids, previous, epoch,
    write_shm, local_tol, local_max_iter, superstep, attempt,
    trace_ctx)``; on the zero-copy plane ``previous`` is ``None`` (the
    frontier comes from the score board) and ``write_shm`` says whether
    block scores go back through the result buffer (``None`` in the
    returned triples) or by value (after a timeout poisoned the slot).

    Returns ``(results, spans)``. When the coordinator ships a
    :class:`TraceContext`, the solve runs inside a ``worker.solve`` span
    parented under the coordinator's superstep span, the process's
    one-time segment attach is reported as an ``ipc.attach`` span, and
    the finished span dicts travel back with the results for the
    coordinator to :meth:`~repro.obs.trace.Tracer.adopt`. A scripted
    fault fires *inside* the span — a crashed attempt's span dies with
    the process and the coordinator's recovery spans document the gap
    instead.
    """
    global _WORKER_ATTACH_REPORTED
    (block_ids, previous, epoch, write_shm, local_tol, local_max_iter,
     superstep, attempt, trace_ctx) = pickle.loads(task_bytes)
    tracer = Tracer(parent=trace_ctx) if trace_ctx is not None else None
    span = tracer.span("worker.solve", worker=_WORKER_ID,
                       superstep=superstep, attempt=attempt,
                       blocks=len(block_ids), shm=previous is None) \
        if tracer is not None else nullcontext()
    with span:
        if _WORKER_PLAN is not None:
            try:
                _WORKER_PLAN.fire("worker", (_WORKER_ID, superstep),
                                  attempt)
            except InjectedCrash:
                # A hard exit, not an exception: the pool must observe
                # a dead process, exactly like an OOM kill or segfault.
                os._exit(WORKER_CRASH_EXIT_CODE)
        if previous is None:
            previous = _read_frontier(epoch)
        results = _solve_block_set(_WORKER_BLOCKS, block_ids, previous,
                                   _WORKER_DAMPING, local_tol,
                                   local_max_iter)
        if write_shm and _WORKER_BOARD is not None:
            result_view = _WORKER_BOARD["result"]
            for block_id, scores, _ in results:
                result_view[_WORKER_BLOCKS[block_id][3]] = scores
            results = [(block_id, None, inner)
                       for block_id, _, inner in results]
    spans = tracer.export() if tracer is not None else []
    if tracer is not None and _WORKER_BOARD is not None \
            and not _WORKER_ATTACH_REPORTED:
        _WORKER_ATTACH_REPORTED = True
        spans.append(_attach_span(trace_ctx))
    return results, spans


@dataclass
class _ShmRun:
    """Coordinator-side state of one zero-copy run."""

    segments: List[object]
    segment_names: List[str]
    total_bytes: int
    epoch: Optional[np.ndarray]
    frontier: Optional[np.ndarray]
    result: Optional[np.ndarray]
    #: per-worker pre-pickled :class:`ShmWorkerInit` (spawn + respawn).
    init_buffers: Dict[int, bytes]
    #: per-slot flag: may this worker still write scores through the
    #: result buffer?  Cleared forever once the slot times out — the
    #: abandoned process may still be alive and writing.
    write_ok: Dict[int, bool] = field(default_factory=dict)

    def cleanup(self) -> None:
        """Close + unlink every segment (idempotent, exception-safe)."""
        self.epoch = self.frontier = self.result = None
        while self.segments:
            destroy_segment(self.segments.pop())


class ParallelBlockEngine(BlockEngine):
    """Graph-centric PageRank across ``num_workers`` processes.

    A :class:`repro.engine.blocks.BlockEngine` whose slots are worker
    processes: blocks are dealt to workers in contiguous chunks, and
    each superstep dispatches one task per worker (the blocks of its
    slot the inherited coordinator decided to re-solve), so scheduling
    overhead stays constant as block count grows.

    ``shared_memory`` selects the IPC data plane: ``"auto"`` (default)
    uses zero-copy shared-memory segments when the platform supports
    them and falls back to pickling otherwise; ``True`` requires them
    (:class:`repro.errors.ConfigError` if unavailable); ``False`` forces
    the pickle path. The fixed point is bit-identical across planes.

    ``retry_policy`` (default :class:`repro.resilience.RetryPolicy`)
    bounds how often a crashed or hung worker is respawned before its
    blocks degrade to inline coordinator execution; ``deadline``
    (default none: wait forever) turns a hung worker into a retriable
    failure; ``fault_plan`` injects deterministic failures for the
    resilience test suite and must stay ``None`` in production runs.
    """

    _stream = "parallel_engine"

    def __init__(self, graph: CSRGraph, partition: Partition,
                 damping: float = 0.85, num_workers: int = 2,
                 jump: Optional[np.ndarray] = None,
                 edge_weights: Optional[np.ndarray] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 deadline: Optional[Deadline] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 shared_memory: Union[bool, str] = "auto") -> None:
        if num_workers <= 0:
            raise ConfigError("num_workers must be positive")
        if shared_memory not in (True, False, "auto"):
            raise ConfigError(
                f"shared_memory must be True, False or 'auto', "
                f"got {shared_memory!r}")
        super().__init__(graph, partition, damping, jump, edge_weights)
        self.num_workers = num_workers
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self.deadline = deadline
        self.fault_plan = fault_plan
        self.shared_memory = shared_memory
        #: segment names of the most recent zero-copy run (all unlinked
        #: by the time ``run`` returns; kept for tests/diagnostics).
        self.last_shm_segments: List[str] = []
        #: which data plane the most recent ``run`` actually used.
        self.last_used_shared_memory: bool = False

        # Contiguous chunks of blocks per worker (for a time-ordered range
        # partition, each worker owns one contiguous time span), processed
        # newest-first within the worker.
        chunk = -(-partition.num_blocks // num_workers)
        self._assignment_to_worker = [
            sorted(range(worker * chunk,
                         min((worker + 1) * chunk, partition.num_blocks)),
                   reverse=True)
            for worker in range(num_workers)
        ]
        # Per-worker payloads: each worker's initializer receives only
        # the blocks it owns, never the whole graph.
        self._worker_payloads: List[Dict[int, tuple]] = [
            {block: self._blocks[block] for block in block_ids}
            for block_ids in self._assignment_to_worker
        ]
        # Pickle-plane payload buffers, serialized once on first use and
        # reused for every (re)spawn *and* for byte accounting.
        self._payload_buffers: List[Optional[bytes]] = \
            [None] * num_workers

    # ------------------------------------------------------------------
    # data-plane plumbing

    def _resolve_shm(self) -> bool:
        """Whether this run should attempt the zero-copy plane."""
        if self.shared_memory is False:
            return False
        if self.shared_memory is True:
            if not SHARED_MEMORY_AVAILABLE:
                raise ConfigError(
                    "shared_memory=True but multiprocessing.shared_memory "
                    "is unavailable on this platform")
            return True
        return SHARED_MEMORY_AVAILABLE

    def _create_shm(self, active, n: int,
                    telemetry: Optional[SolverTelemetry],
                    obs: Optional[Observability]) -> _ShmRun:
        """Pack block operators and the score board into segments.

        Raises ``OSError`` when the platform refuses a segment; callers
        in ``"auto"`` mode catch it and fall back to pickling. Partially
        created segments are destroyed before re-raising, so a failed
        setup leaks nothing.
        """
        run = _ShmRun(segments=[], segment_names=[], total_bytes=0,
                      epoch=None, frontier=None, result=None,
                      init_buffers={})
        try:
            with maybe_span(obs, "ipc.shm_create", workers=len(active),
                            nodes=n):
                board_segment, board_layout = pack_arrays(
                    {"epoch": np.zeros(1, dtype=np.int64),
                     "frontier": np.zeros((2, n), dtype=np.float64),
                     "result": np.zeros(n, dtype=np.float64)},
                    prefix="repro-board")
                run.segments.append(board_segment)
                run.segment_names.append(board_segment.name)
                run.total_bytes += board_layout.total_bytes
                views = map_views(board_segment, board_layout)
                run.epoch = views["epoch"]
                run.frontier = views["frontier"]
                run.result = views["result"]
                for slot, (worker, _, payload) in enumerate(active):
                    arrays, shapes = flatten_block_payload(payload)
                    segment, layout = pack_arrays(
                        arrays, prefix=f"repro-blocks-w{worker}")
                    run.segments.append(segment)
                    run.segment_names.append(segment.name)
                    run.total_bytes += layout.total_bytes
                    run.init_buffers[worker] = pickle.dumps(
                        ShmWorkerInit(layout, shapes, board_layout),
                        pickle.HIGHEST_PROTOCOL)
                    run.write_ok[slot] = True
        except Exception:
            run.cleanup()
            raise
        if telemetry is not None:
            telemetry.set_counter("ipc.shm_bytes", run.total_bytes)
        if obs is not None:
            obs.metrics.gauge(
                "repro_ipc_shm_bytes",
                "Bytes placed in shared-memory segments for the "
                "current parallel run.").set(run.total_bytes)
        return run

    def _spawn_pool(self, worker: int, board: Optional[_ShmRun],
                    telemetry: Optional[SolverTelemetry],
                    obs: Optional[Observability]) -> ProcessPoolExecutor:
        """One single-process pool whose initializer ships exactly this
        worker's payload (segment layouts, or pickled blocks); accounts
        the (re)spawn: bytes, and attaches on shm."""
        if board is not None:
            init_bytes = board.init_buffers[worker]
        else:
            if self._payload_buffers[worker] is None:
                self._payload_buffers[worker] = pickle.dumps(
                    self._worker_payloads[worker], pickle.HIGHEST_PROTOCOL)
            init_bytes = self._payload_buffers[worker]
        if telemetry is not None:
            telemetry.record_bytes(len(init_bytes))
            if board is not None:
                telemetry.incr("ipc.attach")
        if obs is not None and board is not None:
            obs.metrics.counter(
                "repro_ipc_attaches_total",
                "Worker attaches to shared-memory segments "
                "(including respawns).").inc()
        return ProcessPoolExecutor(
            max_workers=1, initializer=_init_worker,
            initargs=(init_bytes, self.damping, worker, self.fault_plan))

    def _dispatch(self, pool: ProcessPoolExecutor, slot: int,
                  block_ids: List[int], previous: np.ndarray,
                  board: Optional[_ShmRun],
                  local_tol: float, local_max_iter: int, superstep: int,
                  attempt: int, trace_ctx: Optional[TraceContext],
                  telemetry: Optional[SolverTelemetry]):
        """Serialize one task exactly once, count it, and submit it.

        On the zero-copy plane the tuple carries no arrays — only block
        ids, the epoch, tolerances and the trace context — which is the
        control-message floor telemetry should observe.
        """
        if board is not None:
            # The frontier epoch is the superstep number.
            args = (block_ids, None, superstep,
                    board.write_ok.get(slot, False), local_tol,
                    local_max_iter, superstep, attempt, trace_ctx)
        else:
            args = (block_ids, previous, 0, False, local_tol,
                    local_max_iter, superstep, attempt, trace_ctx)
        task_bytes = pickle.dumps(args, pickle.HIGHEST_PROTOCOL)
        if telemetry is not None:
            telemetry.record_bytes(len(task_bytes))
        return pool.submit(_solve_blocks_task, task_bytes)

    # ------------------------------------------------------------------

    def run(self, tol: float = 1e-10, max_supersteps: int = 100,
            local_tol: float = 1e-12, local_max_iter: int = 50,
            telemetry: Optional[SolverTelemetry] = None,
            obs: Optional[Observability] = None
            ) -> BlockRankResult:
        """Run supersteps across the worker pool until convergence.

        Every non-empty worker is one slot of the inherited coordinator
        (:meth:`repro.engine.blocks.BlockEngine._run`, which states the
        block-skip rule): its blocks see each other's fresh values,
        other workers' are read from the previous superstep's frontier,
        and a worker with nothing to re-solve gets no dispatch at all.

        ``telemetry`` (optional) records per-superstep wall-clock,
        boundary messages, residual and per-block inner iterations, plus
        worker→block attribution, the bytes actually serialized toward
        workers (block payloads or segment manifests at startup, score
        vectors or control tuples per superstep — each buffer counted
        from the very bytes that are sent), shared-memory segment bytes
        (``ipc.shm_bytes``) and attach counts (``ipc.attach``), and
        every recovery event (crash / timeout / respawn / degrade). The
        fixed point is unchanged with telemetry on or off — with faults
        on or off — and with either IPC data plane.

        ``obs`` (optional) additionally produces **one trace** covering
        the whole run: a ``parallel.run`` root span, ``ipc.shm_create``
        for segment setup, one ``superstep`` span per superstep,
        ``worker.solve`` and ``ipc.attach`` spans shipped back from the
        worker processes (parented under the superstep span via a
        pickled :class:`repro.obs.trace.TraceContext`),
        ``recovery.respawn`` / ``recovery.degrade`` spans on the
        recovery path, and counters/histograms in ``obs.metrics``.
        """
        slots = [ids for ids in self._assignment_to_worker if ids]
        return self._run(slots, None, tol, max_supersteps, local_tol,
                         local_max_iter, telemetry, obs)

    @contextmanager
    def _solver(self, local_tol: float, local_max_iter: int,
                telemetry: Optional[SolverTelemetry],
                obs: Optional[Observability]) -> Iterator[Callable]:
        """Set up the data plane and the pools, yield the dispatching
        solve step inside the ``parallel.run`` span, tear everything
        down in ``finally`` — clean run or crashed coordinator alike."""
        n = self.graph.num_nodes
        active = [(worker, block_ids, self._worker_payloads[worker])
                  for worker, block_ids
                  in enumerate(self._assignment_to_worker) if block_ids]

        board: Optional[_ShmRun] = None
        if self._resolve_shm():
            try:
                board = self._create_shm(active, n, telemetry, obs)
            except OSError as exc:
                if self.shared_memory is True:
                    raise ConfigError(
                        f"shared_memory=True but segment creation "
                        f"failed: {exc}") from exc
                if obs is not None:
                    obs.event("ipc.shm_fallback", error=str(exc))
        # One single-process pool per worker; a ``None`` slot marks a
        # worker degraded to inline coordinator execution.
        pools: List[Optional[ProcessPoolExecutor]] = []
        retries = self.retry_policy.delays()

        def solve(superstep, previous, dispatch):
            if board is not None:
                # Fully publish the frontier, then bump the epoch: the
                # order is what the workers' seqlock read relies on.
                board.frontier[superstep % 2, :] = previous
                board.epoch[0] = superstep
            trace_ctx = obs.tracer.current_context() \
                if obs is not None else None
            futures = [
                self._dispatch(pools[slot], slot, block_ids, previous,
                               board, local_tol, local_max_iter,
                               superstep, 0, trace_ctx, telemetry)
                if block_ids and pools[slot] is not None else None
                for slot, block_ids in enumerate(dispatch)]
            for slot, block_ids in enumerate(dispatch):
                if not block_ids:
                    continue
                worker, _, payload = active[slot]
                if futures[slot] is None:
                    # Degraded earlier: traced so those supersteps stay
                    # visible in the trace.
                    with maybe_span(obs, "worker.solve_inline",
                                    worker=worker, blocks=len(block_ids),
                                    degraded=True):
                        results = _solve_block_set(
                            payload, block_ids, previous, self.damping,
                            local_tol, local_max_iter)
                else:
                    results = self._collect_with_recovery(
                        slot, futures[slot], worker, block_ids, payload,
                        pools, previous, local_tol, local_max_iter,
                        superstep, retries, telemetry, trace_ctx, obs,
                        board)
                for block, block_scores, inner in results:
                    if block_scores is None:
                        # Zero-copy return: the worker wrote straight
                        # into the result buffer.
                        block_scores = board.result[self._members[block]]
                    yield block, block_scores, inner

        try:
            self.last_used_shared_memory = board is not None
            self.last_shm_segments = list(board.segment_names) \
                if board is not None else []
            for worker, block_ids, _ in active:
                if telemetry is not None:
                    telemetry.record_worker(worker, block_ids)
                pools.append(self._spawn_pool(worker, board, telemetry,
                                              obs))
            with maybe_span(obs, "parallel.run", nodes=n,
                            workers=len(active),
                            blocks=self.partition.num_blocks,
                            shm=board is not None):
                yield solve
                if obs is not None:
                    obs.metrics.gauge(
                        "repro_active_workers",
                        "Workers still running in their own process "
                        "(not degraded to inline).").set(
                        sum(1 for pool in pools if pool is not None))
        finally:
            for pool in pools:
                if pool is not None:
                    pool.shutdown()
            if board is not None:
                board.cleanup()

    # ------------------------------------------------------------------
    # failure handling

    def _collect_with_recovery(self, slot, future, worker, block_ids,
                               payload, pools, previous, local_tol,
                               local_max_iter, superstep, retries,
                               telemetry, trace_ctx, obs, board):
        """Await one worker's results, retrying through crashes/hangs.

        On failure the worker's pool is torn down and respawned — on the
        zero-copy plane the replacement re-attaches the segments — and
        the identical task re-dispatched (inputs are immutable, so a
        replay is safe; replays and the degraded fallback solve exactly
        the dispatched ``block_ids`` subset). After
        ``retry_policy.max_retries`` replacements the worker is
        degraded: its pool slot becomes ``None`` and the coordinator
        solves its blocks inline — this superstep and every later one.

        A *timeout* additionally poisons the slot's shared-memory write
        path for the rest of the run: the abandoned process may still be
        alive, so its region of the result buffer can no longer be
        trusted — replacements return scores by value instead, and the
        zombie's eventual writes land in memory nobody reads (its next
        frontier read dies on the stale epoch check anyway).

        With ``obs``, every failure becomes a ``worker.failure`` event
        on the open superstep span, every respawn a ``recovery.respawn``
        span and every degradation a ``recovery.degrade`` span (the
        inline solve runs inside it), plus
        ``repro_worker_failures_total{kind=...}`` /
        ``repro_recoveries_total{kind=...}`` counters.
        """
        deadline_seconds = None if self.deadline is None \
            else self.deadline.seconds
        attempt = 0
        while True:
            try:
                results, spans = future.result(timeout=deadline_seconds)
                if obs is not None and spans:
                    obs.tracer.adopt(spans)
                return results
            except (BrokenProcessPool, FuturesTimeout) as exc:
                kind = "timeout" if isinstance(exc, FuturesTimeout) \
                    else "crash"
                if telemetry is not None:
                    telemetry.record_recovery(superstep, worker, kind,
                                              attempt, block_ids)
                if obs is not None:
                    obs.event("worker.failure", worker=worker,
                              cause=kind, attempt=attempt,
                              superstep=superstep)
                    obs.metrics.counter(
                        "repro_worker_failures_total",
                        "Worker failures seen by the coordinator.",
                        labels=("kind",)).inc(kind=kind)
                if board is not None and kind == "timeout" \
                        and board.write_ok.get(slot, False):
                    board.write_ok[slot] = False
                    if telemetry is not None:
                        telemetry.incr("ipc.poisoned")
                    if obs is not None:
                        obs.event("ipc.shm_poison", worker=worker,
                                  superstep=superstep)
                # A hung worker may still be executing: abandon its pool
                # without waiting (the process exits once it finishes).
                pools[slot].shutdown(wait=False, cancel_futures=True)
                pools[slot] = None
                attempt += 1
                if attempt > self.retry_policy.max_retries:
                    if telemetry is not None:
                        telemetry.record_recovery(superstep, worker,
                                                  "degrade", attempt,
                                                  block_ids)
                    if obs is not None:
                        obs.metrics.counter(
                            "repro_recoveries_total",
                            "Recovery actions taken by the coordinator.",
                            labels=("kind",)).inc(kind="degrade")
                    with maybe_span(obs, "recovery.degrade", worker=worker,
                                    superstep=superstep, attempt=attempt,
                                    blocks=len(block_ids)):
                        return _solve_block_set(
                            payload, block_ids, previous, self.damping,
                            local_tol, local_max_iter)
                with maybe_span(obs, "recovery.respawn", worker=worker,
                                superstep=superstep, attempt=attempt,
                                cause=kind):
                    delay = retries.next_delay()
                    if delay > 0:
                        time.sleep(delay)
                    pools[slot] = self._spawn_pool(worker, board,
                                                   telemetry, obs)
                    if telemetry is not None:
                        telemetry.record_recovery(superstep, worker,
                                                  "respawn", attempt,
                                                  block_ids)
                    if obs is not None:
                        obs.metrics.counter(
                            "repro_recoveries_total",
                            "Recovery actions taken by the coordinator.",
                            labels=("kind",)).inc(kind="respawn")
                    try:
                        future = self._dispatch(
                            pools[slot], slot, block_ids, previous,
                            board, local_tol, local_max_iter,
                            superstep, attempt, trace_ctx, telemetry)
                    except BrokenProcessPool:  # pragma: no cover
                        # The replacement died before accepting work;
                        # loop around as if the dispatch itself had
                        # crashed.
                        future = Future()
                        future.set_exception(
                            BrokenProcessPool("respawned pool broken"))
