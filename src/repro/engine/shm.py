"""Zero-copy shared-memory IPC for the parallel block engine.

Process-pool dispatch pays for every array it ships twice: once to
pickle it in the coordinator and once to unpickle it in the worker.
For the block-centric engine those arrays are *immutable* (the CSR
block operators) or *single-writer per superstep* (the score frontier),
so Pregel-style systems put them in shared address space and ship only
control messages. This module provides the minimal machinery for that
on one machine, on top of :mod:`multiprocessing.shared_memory`:

* :class:`ArraySpec` / :class:`SegmentLayout` — a picklable manifest
  describing where each named numpy array lives inside one segment
  (dtype, shape, byte offset). The manifest is the only thing that
  still crosses the process boundary by value.
* :func:`pack_arrays` — coordinator side: lay out named arrays into a
  freshly created segment (16-byte aligned) and return the live
  ``SharedMemory`` handle plus its layout.
* :func:`attach_arrays` — worker side: map an existing segment and
  rebuild zero-copy numpy views from its layout. Attachments are
  unregistered from the ``resource_tracker`` so ownership (and the
  single ``unlink``) stays with the coordinator — a worker dying must
  not tear the segment down under everyone else.

Lifecycle contract: the coordinator creates segments, workers attach
and only ever ``close`` (implicitly, at process exit); the coordinator
``close`` + ``unlink``\\ s every segment in a ``finally`` block, so no
named segment survives either a clean or a crashed run.
"""

from __future__ import annotations

import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly on every import
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory
    SHARED_MEMORY_AVAILABLE = True
except ImportError:  # pragma: no cover - platform without shm support
    SharedMemory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]
    SHARED_MEMORY_AVAILABLE = False

#: Segment offsets are rounded up to this many bytes so every view is
#: safely aligned for any dtype we store (float64/int64 need 8).
_ALIGN = 16


class StaleFrontierError(RuntimeError):
    """A worker observed an epoch other than the one it was dispatched.

    Raised by the seqlock-style frontier read: the coordinator bumps the
    shared epoch counter *after* fully writing a superstep's frontier
    buffer and *before* dispatching, so a legitimate worker can never
    see a mismatch. Only an abandoned (timed-out, still-running) zombie
    task can — its exception dies with its abandoned future instead of
    letting it read a half-written frontier.
    """


@dataclass(frozen=True)
class ArraySpec:
    """Where one named array lives inside a segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SegmentLayout:
    """Picklable manifest of one shared-memory segment."""

    segment: str
    total_bytes: int
    arrays: Tuple[ArraySpec, ...]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def new_segment_name(prefix: str = "repro") -> str:
    """A collision-resistant segment name (``/dev/shm`` is global)."""
    return f"{prefix}-{secrets.token_hex(8)}"


def pack_arrays(arrays: Dict[str, np.ndarray],
                prefix: str = "repro"
                ) -> Tuple["SharedMemory", SegmentLayout]:
    """Create one segment holding every given array, copied in once.

    Returns the owning ``SharedMemory`` handle (close + unlink it when
    the run ends) and the :class:`SegmentLayout` workers need to attach.
    Raises ``OSError`` when the platform cannot provide the segment —
    callers in ``"auto"`` mode catch that and fall back to pickling.
    """
    if not SHARED_MEMORY_AVAILABLE:  # pragma: no cover - platform guard
        raise OSError("multiprocessing.shared_memory is unavailable")
    specs = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        specs.append(ArraySpec(name=name, dtype=array.dtype.str,
                               shape=tuple(array.shape), offset=offset))
        offset += array.nbytes
    # A zero-byte segment is invalid; keep a minimal one so the layout
    # machinery works uniformly for degenerate (empty) payloads.
    total = max(offset, _ALIGN)
    segment = SharedMemory(name=new_segment_name(prefix), create=True,
                           size=total)
    layout = SegmentLayout(segment=segment.name, total_bytes=total,
                           arrays=tuple(specs))
    for spec in layout.arrays:
        view = np.ndarray(spec.shape, dtype=spec.dtype,
                          buffer=segment.buf, offset=spec.offset)
        view[...] = np.ascontiguousarray(arrays[spec.name])
    return segment, layout


def attach_arrays(layout: SegmentLayout
                  ) -> Tuple["SharedMemory", Dict[str, np.ndarray]]:
    """Map an existing segment and return zero-copy views per array.

    The returned handle must stay referenced as long as any view is
    used. The attachment is untracked: only the creating coordinator
    unlinks the segment.
    """
    if not SHARED_MEMORY_AVAILABLE:  # pragma: no cover - platform guard
        raise OSError("multiprocessing.shared_memory is unavailable")
    try:
        segment = SharedMemory(name=layout.segment, track=False)
    except TypeError:  # Python < 3.13: no track keyword
        with _registration_suppressed():
            segment = SharedMemory(name=layout.segment)
    views = {
        spec.name: np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=segment.buf, offset=spec.offset)
        for spec in layout.arrays
    }
    return segment, views


def map_views(segment: "SharedMemory",
              layout: SegmentLayout) -> Dict[str, np.ndarray]:
    """Views over a segment already held open (coordinator side).

    Unlike :func:`attach_arrays` this maps no new handle — the caller
    keeps the one :func:`pack_arrays` returned — so it is safe for the
    process that owns the segment and will later unlink it.
    """
    return {
        spec.name: np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=segment.buf, offset=spec.offset)
        for spec in layout.arrays
    }


# ----------------------------------------------------------------------
# serving score board: the cross-process publish/read protocol that the
# sharded serving tier (repro.serve.shard / repro.serve.gateway) runs on.

class ScoreBoardWriter:
    """Publish side of the shared-memory serving score board.

    The board holds the full ranked id/score state behind the same
    seqlock-epoch discipline the parallel engine's frontier uses:

    * ``ids`` — append-only ``int64[capacity]`` article ids (the corpus
      only ever grows under arrival batches);
    * ``scores`` — double-buffered ``float64[2, capacity]``; epoch
      ``e`` is written into buffer ``e % 2``, which is then left
      untouched until epoch ``e + 2``;
    * ``count`` — ``int64[2]`` articles valid per buffer;
    * ``epoch`` — ``int64[1]``, bumped *after* the buffer is fully
      written, so a reader seeing a stable epoch across its copy has
      proven the copy torn-free.

    Single-writer by contract (the gateway's publish path); any number
    of reader processes attach via :class:`ScoreBoardReader` with the
    picklable :attr:`layout`. The creator owns the segment: call
    :meth:`close` (idempotent) when serving ends.
    """

    def __init__(self, capacity: int,
                 prefix: str = "repro-serve") -> None:
        if capacity <= 0:
            raise ValueError(
                f"score board capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._segment, self.layout = pack_arrays(
            {"epoch": np.full(1, -1, dtype=np.int64),
             "count": np.zeros(2, dtype=np.int64),
             "ids": np.zeros(self.capacity, dtype=np.int64),
             "scores": np.zeros((2, self.capacity), dtype=np.float64)},
            prefix=prefix)
        views = map_views(self._segment, self.layout)
        self._epoch = views["epoch"]
        self._count = views["count"]
        self._ids = views["ids"]
        self._scores = views["scores"]
        self._ids_written = 0
        self._closed = False

    @property
    def epoch(self) -> int:
        """The last published epoch (-1 before the first publish)."""
        return int(self._epoch[0])

    def publish(self, ids: np.ndarray, scores: np.ndarray,
                epoch: int) -> None:
        """Publish one ``(ids, scores)`` state as ``epoch``.

        ``ids`` must extend the previously published ids (append-only:
        articles are never removed), ``epoch`` must be exactly the last
        published epoch plus one, and the state must fit the board's
        capacity — violations raise ``ValueError`` before any shared
        write happens, so a rejected publish can never tear the board.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        if ids.shape != scores.shape or ids.ndim != 1:
            raise ValueError("ids and scores must be aligned 1-d arrays")
        if ids.size > self.capacity:
            raise ValueError(
                f"score board capacity exceeded: {ids.size} articles "
                f"> capacity {self.capacity}")
        if epoch != int(self._epoch[0]) + 1:
            raise ValueError(
                f"epochs must be published consecutively: board is at "
                f"{int(self._epoch[0])}, got {epoch}")
        if ids.size < self._ids_written or not np.array_equal(
                ids[:self._ids_written], self._ids[:self._ids_written]):
            raise ValueError(
                "ids must extend the previously published ids "
                "(the board's id prefix is append-only)")
        # Only the tail of ``ids`` is new; the stable prefix is never
        # rewritten, so concurrent readers of older epochs see no
        # mutation at all.
        self._ids[self._ids_written:ids.size] = ids[self._ids_written:]
        self._ids_written = ids.size
        buffer = epoch % 2
        self._scores[buffer, :ids.size] = scores
        self._count[buffer] = ids.size
        # The epoch bump is the commit point: everything above must be
        # fully written before readers can observe the new epoch.
        self._epoch[0] = epoch

    def close(self) -> None:
        """Tear the segment down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._epoch = self._count = self._ids = self._scores = None
            destroy_segment(self._segment)


class ScoreBoardReader:
    """Reader side of the serving score board (any process).

    Attach with the writer's picklable layout; :meth:`read` returns a
    torn-free ``(epoch, ids, scores)`` copy via the seqlock check.
    """

    #: Consistency-check retries before a read gives up.
    MAX_RETRIES = 64

    def __init__(self, layout: SegmentLayout) -> None:
        self._segment, views = attach_arrays(layout)
        self._epoch = views["epoch"]
        self._count = views["count"]
        self._ids = views["ids"]
        self._scores = views["scores"]

    def epoch(self) -> int:
        """The currently published epoch (cheap shared read)."""
        return int(self._epoch[0])

    def read(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """One consistent published state, newest available.

        Seqlock read: buffer ``epoch % 2`` of epoch ``e`` stays
        untouched until epoch ``e + 2`` commits, so observing an epoch
        advance of less than two across the copy proves the copy is
        torn-free. Raises :class:`StaleFrontierError` after
        ``MAX_RETRIES`` racing publishes (pathological churn) and
        ``ValueError`` before the first publish.
        """
        for _ in range(self.MAX_RETRIES):
            before = int(self._epoch[0])
            if before < 0:
                raise ValueError("score board has no published epoch yet")
            buffer = before % 2
            count = int(self._count[buffer])
            ids = np.array(self._ids[:count])
            scores = np.array(self._scores[buffer, :count])
            if int(self._epoch[0]) - before < 2:
                return before, ids, scores
        raise StaleFrontierError(
            f"score board read raced {self.MAX_RETRIES} consecutive "
            f"publishes")

    def close(self) -> None:
        """Drop this attachment (the writer still owns the segment)."""
        self._epoch = self._count = self._ids = self._scores = None
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - exported views
            pass


@contextmanager
def _registration_suppressed():
    """Attach without telling the resource tracker (Python < 3.13).

    Older ``SharedMemory`` registers *attachments* too, which is wrong
    for a non-owning worker twice over: the tracker would warn about
    and unlink the segment when the worker exits, and — because forked
    workers share the coordinator's tracker process — a post-hoc
    ``unregister`` would instead erase the *coordinator's* registration
    (and a second worker's unregister then crashes the tracker with a
    ``KeyError``). Suppressing the register call entirely sends the
    shared tracker no message at all.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = original


def destroy_segment(segment: "SharedMemory") -> None:
    """Coordinator-side teardown: close and unlink, tolerant of races.

    Safe to call on a segment that was already unlinked (e.g. cleanup
    running again after a partially failed run).
    """
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - exported views
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
