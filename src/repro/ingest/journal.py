"""The ingest journal: an append-only, CRC-stamped record log.

At-least-once delivery needs a durable record of what the pipeline has
accepted: a worker that dies mid-batch must be able to replay exactly
the records it had pulled but not yet committed. The journal is the
standard write-ahead shape, specialised to JSONL so segments stay
greppable during an incident:

* **Segments** — ``segment-<seq>.jsonl`` files of at most
  ``segment_records`` records each. The active segment is written as
  ``segment-<seq>.open`` and sealed with an atomic ``os.replace`` when
  full, so rotation can never leave a half-renamed file; a crash leaves
  at most one ``.open`` tail segment.
* **Records** — one JSON object per line:
  ``{"o": offset, "c": crc32(payload), "r": payload}`` plus an optional
  ``"s": seq`` arrival-sequence stamp (used by the partitioned pipeline
  to fan records back in canonically). The CRC is computed over the
  canonical (sorted-keys, compact) JSON encoding of the payload, so a
  torn or bit-flipped line is detected on replay, not silently applied.
* **Cursor** — ``CURSOR.json``, rewritten atomically, holding the
  *committed offset*: the number of records durably reflected in the
  downstream engine's checkpoint. Replay starts there.
* **Archive** — ``ARCHIVE.json`` plus an ``archive/`` tier.
  :meth:`IngestJournal.compact` moves (or deletes) sealed segments that
  the committed cursor fully covers, so a long-running journal does not
  grow without bound. The manifest is written *before* the files move,
  and :class:`IngestJournal` finishes interrupted moves on open, so a
  crash mid-compaction never loses a segment. Replay from at or past
  ``archived_through`` never touches the archive; replay from below it
  reads archived segments when they still exist and raises
  :class:`~repro.errors.StorageError` when retention deleted them.

Recovery semantics: on open, the active (``.open``) segment's tail is
scanned and any torn suffix — a half-written last line from a crash or
an injected truncation — is dropped and accounted. Torn lines whose
offsets the committed cursor already covers are *not* counted in
:attr:`IngestJournal.torn_records_dropped`: those records are durably
inside a downstream checkpoint (the cursor is only ever rewritten after
a sync), so the tear lost bytes, not records. They are tracked
separately as :attr:`IngestJournal.torn_committed_dropped` — without
the split, a crash in the window between the cursor rewrite and a tail
truncation double-counts the same record on every resume cycle. Sealed
segments are never repaired: a bad line inside one is corruption, not a
torn write, and replay raises :class:`repro.errors.StorageError`
(tamper-evident, same contract as checkpoints).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import StorageError

PathLike = Union[str, Path]

CURSOR_FILE = "CURSOR.json"
ARCHIVE_FILE = "ARCHIVE.json"
ARCHIVE_DIR = "archive"
_SEALED_PATTERN = re.compile(r"^segment-(\d{8})\.jsonl$")
_OPEN_PATTERN = re.compile(r"^segment-(\d{8})\.open$")

#: Retention policies :meth:`IngestJournal.compact` understands.
RETENTION_ARCHIVE = "archive"
RETENTION_DELETE = "delete"


def payload_crc(payload: Dict[str, object]) -> int:
    """CRC32 of the canonical JSON encoding of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


@dataclass(frozen=True)
class JournalRecord:
    """One journaled record: its offset, payload, and arrival seq.

    ``seq`` is the global arrival sequence the record carried when it
    was appended (``None`` for journals written before seq stamping;
    with one partition, offset *is* the arrival order).
    """

    offset: int
    payload: Dict[str, object]
    seq: Optional[int] = None


@dataclass
class CompactionReport:
    """What one :meth:`IngestJournal.compact` call reclaimed."""

    segments_archived: int = 0
    segments_deleted: int = 0
    bytes_reclaimed: int = 0
    archived_through: int = 0

    def as_metrics(self) -> Dict[str, object]:
        return {
            "segments_archived": self.segments_archived,
            "segments_deleted": self.segments_deleted,
            "bytes_reclaimed": self.bytes_reclaimed,
            "archived_through": self.archived_through,
        }

    def render(self) -> str:
        return (f"archived {self.segments_archived} segment(s), "
                f"deleted {self.segments_deleted}, reclaimed "
                f"{self.bytes_reclaimed} bytes "
                f"(cursor-covered through offset "
                f"{self.archived_through})")


def _decode_line(line: str) -> Optional[JournalRecord]:
    """Parse and CRC-check one journal line; ``None`` when torn/bad."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(entry, dict):
        return None
    offset = entry.get("o")
    crc = entry.get("c")
    payload = entry.get("r")
    seq = entry.get("s")
    if not isinstance(offset, int) or not isinstance(crc, int) \
            or not isinstance(payload, dict):
        return None
    if seq is not None and not isinstance(seq, int):
        return None
    if payload_crc(payload) != crc:
        return None
    return JournalRecord(offset=offset, payload=payload, seq=seq)


class IngestJournal:
    """Append-only JSONL journal with CRC records and a commit cursor."""

    def __init__(self, directory: PathLike,
                 segment_records: int = 1024) -> None:
        """Open (or create) the journal under ``directory``.

        Existing segments are picked up; a torn tail on the active
        segment is dropped (see module docstring). ``segment_records``
        bounds records per segment — rotation keeps individual files
        small enough to triage and lets old, fully committed segments
        be archived independently.
        """
        if segment_records < 1:
            raise StorageError(
                f"segment_records must be >= 1, got {segment_records}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self.torn_records_dropped = 0
        self.torn_committed_dropped = 0
        self.last_seq: Optional[int] = None
        self._handle = None

        # The cursor loads *before* tail recovery: recovery needs to
        # know which offsets are already durable downstream so a torn
        # committed line is bytes lost, not a record lost.
        self.cursor_extra: Dict[str, object] = {}
        self._committed = self._load_cursor()
        self._manifest = self._load_manifest()
        self._repair_pending_archival()

        sealed = self._sealed_segments()
        open_segments = sorted(
            (path for path in self.directory.iterdir()
             if _OPEN_PATTERN.match(path.name)),
            key=lambda p: p.name)
        if len(open_segments) > 1:
            raise StorageError(
                f"journal {self.directory} has {len(open_segments)} "
                f".open segments; at most one active segment can exist")

        last_offset = self.archived_through - 1
        if self._manifest.get("last_seq") is not None:
            self.last_seq = int(self._manifest["last_seq"])
        for path in sealed:
            last, seq = self._last_offset_sealed(path)
            if last is not None:
                last_offset = max(last_offset, last)
            if seq is not None:
                self.last_seq = seq
        if open_segments:
            active = open_segments[0]
            if sealed and active.name <= sealed[-1].name.replace(
                    ".jsonl", ".open"):
                raise StorageError(
                    f"active segment {active.name} is older than "
                    f"sealed {sealed[-1].name}")
            kept, dropped = self._recover_tail(active,
                                               base_offset=last_offset
                                               + 1)
            self._active_path = active
            self._active_count = len(kept)
            self._active_seq = int(_OPEN_PATTERN.match(
                active.name).group(1))
            if kept:
                last_offset = max(last_offset, kept[-1].offset)
                if kept[-1].seq is not None:
                    self.last_seq = kept[-1].seq
        else:
            next_seq = int(self._manifest.get("next_segment_seq", 0))
            if sealed:
                next_seq = max(next_seq, int(_SEALED_PATTERN.match(
                    sealed[-1].name).group(1)) + 1)
            self._active_seq = next_seq
            self._active_path = self.directory / \
                f"segment-{self._active_seq:08d}.open"
            self._active_count = 0
        self.next_offset = last_offset + 1

    # ------------------------------------------------------------------
    # write side

    def append(self, payload: Dict[str, object],
               seq: Optional[int] = None) -> int:
        """Append one record; returns the offset it was assigned.

        ``seq`` optionally stamps the record's global arrival sequence
        (the partitioned pipeline's fan-in key); it rides outside the
        CRC'd payload, so stamping never changes content fingerprints.
        """
        offset = self.next_offset
        entry = {"o": offset, "c": payload_crc(payload), "r": payload}
        if seq is not None:
            entry["s"] = seq
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        if self._handle is None:
            self._handle = open(self._active_path, "a",
                                encoding="utf-8")
        self._handle.write(line)
        self.next_offset = offset + 1
        self._active_count += 1
        if seq is not None:
            self.last_seq = seq
        if self._active_count >= self.segment_records:
            self._rotate()
        return offset

    def flush(self, sync: bool = False) -> None:
        """Push buffered appends to the OS (and to disk with ``sync``)."""
        if self._handle is not None:
            self._handle.flush()
            if sync:
                os.fsync(self._handle.fileno())

    def commit(self, committed: int,
               extra: Optional[Dict[str, object]] = None) -> None:
        """Persist the committed offset (records durably applied).

        ``committed`` is exclusive: ``commit(10)`` means offsets
        ``0..9`` are reflected in durable downstream state and replay
        may start at 10. Written atomically (tmp + rename); never moves
        backwards. ``extra`` rides along in the cursor file — the
        pipeline stores the engine batch count and its incarnation
        there so resume can tell whether the checkpoint it recovered is
        at least as new as the cursor.
        """
        if committed < 0:
            raise StorageError(
                f"committed offset must be >= 0, got {committed}")
        if committed < self._committed:
            raise StorageError(
                f"commit cursor cannot move backwards "
                f"({self._committed} -> {committed})")
        self.flush(sync=True)
        payload = {"format_version": 1, "committed": committed,
                   "extra": dict(extra) if extra else {}}
        staging = self.directory / f".{CURSOR_FILE}.tmp"
        staging.write_text(json.dumps(payload, indent=2),
                           encoding="utf-8")
        os.replace(staging, self.directory / CURSOR_FILE)
        self._committed = committed
        self.cursor_extra = dict(extra) if extra else {}

    @property
    def committed(self) -> int:
        """Offset replay starts from (exclusive end of committed work)."""
        return self._committed

    @property
    def archived_through(self) -> int:
        """Exclusive end of the offset range reclaimed by compaction."""
        return int(self._manifest.get("archived_through", 0))

    def close(self) -> None:
        """Flush and release the active segment (it stays appendable)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "IngestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # archival / compaction

    def compact(self, retention: str = RETENTION_ARCHIVE
                ) -> CompactionReport:
        """Reclaim sealed segments fully covered by the commit cursor.

        A segment qualifies when its last offset is below ``committed``
        — every record in it is durably inside a downstream checkpoint,
        so no replay (which starts at the cursor) will ever need it.
        The active ``.open`` segment is never touched, so compaction is
        safe to run concurrently with an in-flight rotation: at worst a
        segment sealed after the scan waits for the next pass.

        ``retention="archive"`` moves segments into ``archive/`` (still
        readable for a from-scratch replay); ``"delete"`` removes them
        outright (cheapest, but a replay from offset 0 — the lost-
        checkpoint fallback — becomes impossible). Either way the
        manifest records what happened *before* the files move, so a
        crash mid-compaction is repaired on the next open.
        """
        if retention not in (RETENTION_ARCHIVE, RETENTION_DELETE):
            raise StorageError(
                f"retention must be {RETENTION_ARCHIVE!r} or "
                f"{RETENTION_DELETE!r}, got {retention!r}")
        report = CompactionReport(
            archived_through=self.archived_through)
        covered: List[Dict[str, object]] = []
        for path in self._sealed_segments():
            first, last, records, last_seq = self._segment_span(path)
            if last is None or last >= self._committed:
                # Segments are offset-ordered; the first uncovered one
                # ends the scan.
                break
            covered.append({
                "name": path.name, "first": first, "last": last,
                "records": records, "bytes": path.stat().st_size,
                "action": retention,
                "last_seq": last_seq,
            })
        if not covered:
            report.archived_through = self.archived_through
            return report

        manifest = dict(self._manifest)
        segments = list(manifest.get("segments", []))
        segments.extend(covered)
        manifest["format_version"] = 1
        manifest["archived_through"] = int(covered[-1]["last"]) + 1
        manifest["next_segment_seq"] = max(
            int(manifest.get("next_segment_seq", 0)),
            max(int(_SEALED_PATTERN.match(str(entry["name"]))
                    .group(1)) for entry in covered) + 1)
        if covered[-1]["last_seq"] is not None:
            manifest["last_seq"] = max(
                int(manifest.get("last_seq") or -1),
                int(covered[-1]["last_seq"]))
        manifest["segments"] = segments
        self._write_manifest(manifest)
        self._manifest = manifest
        self._repair_pending_archival()

        for entry in covered:
            if entry["action"] == RETENTION_ARCHIVE:
                report.segments_archived += 1
            else:
                report.segments_deleted += 1
            report.bytes_reclaimed += int(entry["bytes"])
        report.archived_through = self.archived_through
        return report

    def _write_manifest(self, manifest: Dict[str, object]) -> None:
        staging = self.directory / f".{ARCHIVE_FILE}.tmp"
        staging.write_text(json.dumps(manifest, indent=2),
                           encoding="utf-8")
        os.replace(staging, self.directory / ARCHIVE_FILE)

    def _repair_pending_archival(self) -> None:
        """Finish moves/deletes the manifest promised (idempotent).

        The manifest is intent, written before any file moves; a crash
        between the two leaves segments listed there but still in the
        journal directory. Completing the move here makes compaction
        crash-safe without a WAL of its own.
        """
        for entry in self._manifest.get("segments", []):
            src = self.directory / str(entry["name"])
            if not src.exists():
                continue
            if entry.get("action") == RETENTION_DELETE:
                src.unlink()
            else:
                archive = self.directory / ARCHIVE_DIR
                archive.mkdir(exist_ok=True)
                os.replace(src, archive / str(entry["name"]))

    def _load_manifest(self) -> Dict[str, object]:
        path = self.directory / ARCHIVE_FILE
        if not path.exists():
            return {}
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError("manifest must be a JSON object")
            int(manifest.get("archived_through", 0))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise StorageError(
                f"journal archive manifest {path} is unreadable "
                f"({exc})") from exc
        return manifest

    # ------------------------------------------------------------------
    # read side

    def replay(self, start: Optional[int] = None
               ) -> Iterator[JournalRecord]:
        """Yield journaled records with ``offset >= start`` in order.

        ``start`` defaults to the committed offset. CRCs are verified
        as records stream; a bad line in a *sealed* segment raises
        :class:`StorageError` (corruption is never skipped silently),
        while a torn tail on the active segment ends the replay — those
        bytes were never acknowledged. A ``start`` below
        ``archived_through`` reads the archive tier when the files are
        still there and raises :class:`StorageError` when retention
        deleted them; replay at or past the boundary never opens the
        archive at all.
        """
        self.flush()
        if start is None:
            start = self._committed
        if start < self.archived_through:
            yield from self._replay_archived(start)
        for path in self._sealed_segments():
            for number, line in self._lines(path):
                record = _decode_line(line)
                if record is None:
                    raise StorageError(
                        f"corrupt record in sealed journal segment "
                        f"{path.name}:{number}")
                if record.offset >= start:
                    yield record
        if self._active_path.exists():
            for number, line in self._lines(self._active_path):
                record = _decode_line(line)
                if record is None:
                    break  # torn tail: unacknowledged, not corruption
                if record.offset >= start:
                    yield record

    def _replay_archived(self, start: int) -> Iterator[JournalRecord]:
        archive = self.directory / ARCHIVE_DIR
        entries = sorted(self._manifest.get("segments", []),
                         key=lambda e: str(e["name"]))
        for entry in entries:
            last = entry.get("last")
            if isinstance(last, int) and last < start:
                continue
            path = archive / str(entry["name"])
            if not path.exists():
                raise StorageError(
                    f"replay from offset {start} needs archived "
                    f"segment {entry['name']}, but it is gone "
                    f"(retention={entry.get('action')!r}); earliest "
                    f"replayable offset is {self.archived_through}")
            for number, line in self._lines(path):
                record = _decode_line(line)
                if record is None:
                    raise StorageError(
                        f"corrupt record in archived journal segment "
                        f"{path.name}:{number}")
                if record.offset >= start:
                    yield record

    # ------------------------------------------------------------------
    # internals

    def _sealed_segments(self) -> List[Path]:
        return sorted(path for path in self.directory.iterdir()
                      if _SEALED_PATTERN.match(path.name))

    @staticmethod
    def _lines(path: Path) -> Iterator[Tuple[int, str]]:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    yield number, line

    def _last_offset_sealed(self, path: Path
                            ) -> Tuple[Optional[int], Optional[int]]:
        last, seq = None, None
        for number, line in self._lines(path):
            record = _decode_line(line)
            if record is None:
                raise StorageError(
                    f"corrupt record in sealed journal segment "
                    f"{path.name}:{number}")
            last = record.offset
            if record.seq is not None:
                seq = record.seq
        return last, seq

    def _segment_span(self, path: Path) -> Tuple[
            Optional[int], Optional[int], int, Optional[int]]:
        """``(first, last, records, last_seq)`` of one sealed segment,
        CRC-verified — compaction refuses to archive corruption."""
        first, last, seq = None, None, None
        records = 0
        for number, line in self._lines(path):
            record = _decode_line(line)
            if record is None:
                raise StorageError(
                    f"corrupt record in sealed journal segment "
                    f"{path.name}:{number}")
            if first is None:
                first = record.offset
            last = record.offset
            if record.seq is not None:
                seq = record.seq
            records += 1
        return first, last, records, seq

    def _recover_tail(self, path: Path, base_offset: int
                      ) -> Tuple[List[JournalRecord], int]:
        """Drop any torn suffix of the active segment, keeping the
        valid prefix in place; returns (kept records, dropped count).

        Torn lines at offsets the cursor already covers are accounted
        in ``torn_committed_dropped``, not ``torn_records_dropped``:
        the cursor is only rewritten after a sync, so those records
        live on inside a downstream checkpoint — counting them as
        dropped would double-count the same record on every
        crash-resume cycle that re-tears the tail.
        """
        kept: List[JournalRecord] = []
        good_bytes = 0
        dropped = 0
        with open(path, "rb") as handle:
            for raw in handle:
                record = _decode_line(raw.decode("utf-8",
                                                 errors="replace"))
                if record is None or not raw.endswith(b"\n"):
                    dropped += 1
                    # Everything after the first torn line is past the
                    # tear: count it and stop trusting the file.
                    for _ in handle:
                        dropped += 1
                    break
                kept.append(record)
                good_bytes += len(raw)
        if dropped:
            with open(path, "rb+") as handle:
                handle.truncate(good_bytes)
                os.fsync(handle.fileno())
        # Offsets are assigned sequentially, so the torn suffix spans
        # first_torn .. first_torn + dropped - 1.
        first_torn = kept[-1].offset + 1 if kept else base_offset
        already_safe = max(0, min(dropped,
                                  self._committed - first_torn))
        self.torn_committed_dropped += already_safe
        self.torn_records_dropped += dropped - already_safe
        return kept, dropped

    def _rotate(self) -> None:
        """Seal the full active segment and start the next (atomic)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
        sealed = self.directory / f"segment-{self._active_seq:08d}.jsonl"
        os.replace(self._active_path, sealed)
        self._active_seq += 1
        self._active_path = self.directory / \
            f"segment-{self._active_seq:08d}.open"
        self._active_count = 0

    def _load_cursor(self) -> int:
        path = self.directory / CURSOR_FILE
        if not path.exists():
            return 0
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            committed = int(payload["committed"])
            extra = payload.get("extra", {})
            self.cursor_extra = extra if isinstance(extra, dict) else {}
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise StorageError(
                f"journal cursor {path} is unreadable ({exc})") from exc
        if committed < 0:
            raise StorageError(
                f"journal cursor {path} holds negative offset "
                f"{committed}")
        return committed
