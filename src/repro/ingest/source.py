"""Record sources and the feed-record parser for streaming ingestion.

A *source* is anything with ``get(position) -> Optional[dict]``:
deterministic and seekable, so the pipeline can re-pull any position
after a crash (the at-least-once half of the delivery contract — the
journal plus the idempotent apply path provide the exactly-once half).
``None`` past the end means the feed is drained.

Feed records are plain JSON objects in one of two shapes, mirroring the
two ways a scholarly graph actually changes
(:class:`repro.engine.updates.UpdateBatch`):

* ``{"kind": "article", "id": 7, "title": ..., "year": 2012,
  "refs": [1, 2]}`` — a newly published article;
* ``{"kind": "cite", "citing": 7, "cited": 3}`` — a late-resolved
  citation between existing articles.

:func:`parse_record` turns a payload into a typed :class:`ParsedItem`
or raises :class:`repro.errors.ParseError` — data poison, never
retried, routed to quarantine. (Transient parser *crashes* are a
different failure and are injected by a ``parse:crash:RECORD``
:class:`repro.resilience.Fault`.)
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.data.schema import Article
from repro.ingest.journal import payload_crc


@dataclass(frozen=True)
class ParsedItem:
    """One successfully parsed feed record.

    Exactly one of ``article`` / ``citation`` is set, per ``kind``.
    ``fingerprint`` is the CRC of the canonical payload encoding — what
    the :class:`repro.ingest.dedup.Deduplicator` remembers, so a
    re-delivered record and a *conflicting* record under the same id
    can be told apart.
    """

    offset: int
    kind: str  # "article" | "cite"
    fingerprint: int
    article: Optional[Article] = None
    citation: Optional[Tuple[int, int]] = None


def _require_int(payload: Dict[str, object], key: str,
                 position: int) -> int:
    value = payload.get(key)
    # bool is an int subclass; a feed saying {"id": true} is malformed.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(
            f"feed record {position}: {key!r} must be an integer, "
            f"got {value!r}")
    return value


def parse_record(payload: Dict[str, object],
                 position: int) -> ParsedItem:
    """Typed view of one feed payload; :class:`ParseError` on poison."""
    if not isinstance(payload, dict):
        raise ParseError(
            f"feed record {position}: payload must be an object, "
            f"got {type(payload).__name__}")
    kind = payload.get("kind")
    fingerprint = payload_crc(payload)
    if kind == "article":
        article_id = _require_int(payload, "id", position)
        year = _require_int(payload, "year", position)
        refs = payload.get("refs", [])
        if not isinstance(refs, list) or any(
                not isinstance(r, int) or isinstance(r, bool)
                for r in refs):
            raise ParseError(
                f"feed record {position}: 'refs' must be a list of "
                f"integers")
        title = payload.get("title")
        if title is None:
            title = f"article-{article_id}"
        elif not isinstance(title, str):
            raise ParseError(
                f"feed record {position}: 'title' must be a string")
        article = Article(id=article_id, title=title, year=year,
                          venue_id=None, author_ids=(),
                          references=tuple(refs))
        return ParsedItem(offset=position, kind="article",
                          fingerprint=fingerprint, article=article)
    if kind == "cite":
        citing = _require_int(payload, "citing", position)
        cited = _require_int(payload, "cited", position)
        if citing == cited:
            raise ParseError(
                f"feed record {position}: self-citation ({citing})")
        return ParsedItem(offset=position, kind="cite",
                          fingerprint=fingerprint,
                          citation=(citing, cited))
    raise ParseError(
        f"feed record {position}: unknown kind {kind!r} "
        f"(expected 'article' or 'cite')")


def route_key(payload: Dict[str, object]) -> int:
    """The stable integer a raw payload partitions on.

    Articles route by ``id`` and citations by ``citing`` — the entity
    the record mutates — so every record touching one article lands in
    one partition's journal, and
    :func:`repro.ingest.partition.partition_of` stays consistent with
    :func:`repro.serve.shard.shard_of`. Unparseable payloads still need
    a deterministic home (they must be journaled before the parser can
    judge them), so they route by payload CRC.
    """
    if isinstance(payload, dict):
        kind = payload.get("kind")
        key = None
        if kind == "article":
            key = payload.get("id")
        elif kind == "cite":
            key = payload.get("citing")
        if isinstance(key, int) and not isinstance(key, bool):
            return key
    return payload_crc(payload if isinstance(payload, dict) else
                       {"_unroutable": repr(payload)})


class SyntheticSource:
    """A deterministic, seekable feed of synthetic arrivals.

    The whole stream is generated up front from ``seed`` (simulation
    scale, not production scale), so ``get`` is pure: position ``p``
    always yields the same payload, no matter how many times or in
    which order positions are pulled — exactly the property crash-
    resume needs from a real message queue.

    Chaos knobs shape the stream itself (the fault *plan* shapes its
    delivery):

    * ``duplicate_every=n`` — every n-th record verbatim re-delivers an
      earlier article (n small = a duplicate storm); the pipeline must
      apply none of them twice;
    * ``mangle_every=n`` — every n-th record is structurally broken
      (no ``id``); the parser must quarantine it, and no later record
      ever references a mangled article;
    * ``cite_every=n`` — every n-th record is a late citation between
      already-delivered articles.
    """

    def __init__(self, base_ids: List[int], total: int, *,
                 seed: int = 0, start_id: Optional[int] = None,
                 year: int = 2020, duplicate_every: int = 0,
                 mangle_every: int = 0, cite_every: int = 0) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if not base_ids:
            raise ValueError("SyntheticSource needs base article ids")
        rng = random.Random(seed)
        base_ids = sorted(base_ids)
        next_id = (max(base_ids) + 1) if start_id is None else start_id
        self._records: List[Dict[str, object]] = []
        clean_positions: List[int] = []  # positions of clean articles
        clean_ids: List[int] = []
        for position in range(total):
            if (duplicate_every and position % duplicate_every == 0
                    and clean_positions):
                original = self._records[rng.choice(clean_positions)]
                self._records.append(json.loads(json.dumps(original)))
                continue
            if mangle_every and position % mangle_every == 1:
                self._records.append({
                    "kind": "article",
                    "title": f"mangled-{position}", "year": year})
                continue
            if cite_every and position % cite_every == 2 and clean_ids:
                citing = rng.choice(clean_ids)
                cited = rng.choice(base_ids)
                self._records.append({"kind": "cite", "citing": citing,
                                      "cited": cited})
                continue
            citable = base_ids + clean_ids
            refs = sorted(rng.sample(citable, min(3, len(citable))))
            self._records.append({
                "kind": "article", "id": next_id,
                "title": f"stream-arrival-{next_id}", "year": year,
                "refs": refs})
            clean_positions.append(position)
            clean_ids.append(next_id)
            next_id += 1

    def __len__(self) -> int:
        return len(self._records)

    def get(self, position: int) -> Optional[Dict[str, object]]:
        """Payload at ``position``, or ``None`` past the end."""
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        if position >= len(self._records):
            return None
        # A fresh copy per delivery: callers may stamp or mangle it.
        return json.loads(json.dumps(self._records[position]))


class JsonlSource:
    """A feed backed by a JSONL file (one payload object per line).

    Positions are 0-based line indices; blank lines are skipped. The
    file is loaded once up front — this source exists for the CLI and
    tests, not for multi-gigabyte production feeds.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._records: List[Dict[str, object]] = []
        with open(self.path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(
                        f"not valid JSON: {exc}",
                        path=str(self.path), line=number) from exc
                if not isinstance(payload, dict):
                    raise ParseError(
                        "feed line must be a JSON object",
                        path=str(self.path), line=number)
                self._records.append(payload)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, position: int) -> Optional[Dict[str, object]]:
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        if position >= len(self._records):
            return None
        return json.loads(json.dumps(self._records[position]))
