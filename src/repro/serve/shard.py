"""Per-shard serving: one owner per slice of the article id space.

The sharded tier splits the corpus by ``article_id % num_shards``; each
shard is a :class:`ShardServer` owning exactly its articles. The server
attaches the shared-memory score board published by the gateway
(:class:`repro.engine.shm.ScoreBoardReader`), and on every ``refresh``
command performs its own guardrailed snapshot swap: read the board
(seqlock-consistent), slice out the owned articles, validate the slice
(:func:`repro.serve.guardrails.validate_shard_slice`), and only then
swap in a fresh :class:`repro.query.RankIndex`. A vetoed or failing
refresh leaves the previous shard snapshot serving — per-shard
staleness instead of tier-wide failure — and trips the shard's own
:class:`~repro.serve.breaker.CircuitBreaker`; reads go through the
shard's own :class:`~repro.serve.admission.AdmissionGate`.

The same state machine runs in two deployments:

* **inline** — :class:`InlineShardHandle` wraps the server in the
  gateway's process (tests, small corpora);
* **process** — :class:`ProcessShardHandle` spawns
  :func:`_shard_process_main` in a worker process and speaks a
  request/response protocol over a ``multiprocessing.Pipe``. Scores
  never cross the pipe — they travel through shared memory; the pipe
  carries control messages and per-query results only.

Chaos hooks: a :class:`repro.resilience.FaultPlan` shard fault fires at
the exact refresh point — ``"crash"`` hard-kills a worker process
(``os._exit``, the gateway observes a dead pipe) and ``"poison"``
NaN-poisons the slice so the guardrails must veto it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, ServeError, ShardUnavailableError
from repro.core.columns import ArticleColumns
from repro.data.schema import Article, ScholarlyDataset
from repro.engine.shm import ScoreBoardReader, SegmentLayout
from repro.query import RankEntry, RankIndex
from repro.resilience.faults import (WORKER_CRASH_EXIT_CODE, FaultPlan,
                                     InjectedCrash)
from repro.resilience.policy import Deadline, RetryPolicy
from repro.serve.admission import AdmissionGate
from repro.serve.breaker import CircuitBreaker, OPEN
from repro.serve.guardrails import GuardrailPolicy, validate_shard_slice

if TYPE_CHECKING:  # pragma: no cover - types only
    from multiprocessing.connection import Connection


def shard_of(article_id: int, num_shards: int) -> int:
    """The shard owning ``article_id`` (stable under corpus growth)."""
    return int(article_id) % num_shards


@dataclass(frozen=True)
class ShardSpec:
    """Which slice of the id space one shard owns."""

    shard: int
    num_shards: int

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigError(
                f"num_shards must be positive, got {self.num_shards}")
        if not 0 <= self.shard < self.num_shards:
            raise ConfigError(
                f"shard must be in [0, {self.num_shards}), "
                f"got {self.shard}")

    def owns(self, article_id: int) -> bool:
        return shard_of(article_id, self.num_shards) == self.shard


@dataclass(frozen=True)
class ShardConfig:
    """Picklable per-shard policy bundle (shipped to worker processes).

    Locks cannot cross a process boundary, so the gate and breaker are
    constructed *inside* the shard from these parameters.
    """

    guardrails: GuardrailPolicy = field(default_factory=GuardrailPolicy)
    max_inflight: int = 64
    max_waiting: int = 0
    failure_threshold: int = 3
    cooldown: Optional[RetryPolicy] = None
    fault_plan: Optional[FaultPlan] = None


@dataclass(frozen=True)
class ShardSnapshot:
    """One refreshed, validated, immutable per-shard view."""

    index: RankIndex
    epoch: int
    refreshed_at: float

    @property
    def num_articles(self) -> int:
        return len(self.index)


class ShardServer:
    """The per-shard state machine (identical inline and in-process).

    Queries (``top`` / ``score_of`` / ``count_above``) are admission-
    gated and answer from the current :class:`ShardSnapshot`; the
    ``refresh`` command is the shard's single-updater publish path.
    """

    def __init__(self, spec: ShardSpec, layout: SegmentLayout,
                 articles: Iterable[Article],
                 config: Optional[ShardConfig] = None) -> None:
        config = config if config is not None else ShardConfig()
        self.spec = spec
        self._layout = layout
        self._config = config
        self._guardrails = config.guardrails
        self._gate = AdmissionGate(max_inflight=config.max_inflight,
                                   max_waiting=config.max_waiting)
        breaker_kwargs = {} if config.cooldown is None \
            else {"cooldown": config.cooldown}
        self._breaker = CircuitBreaker(
            failure_threshold=config.failure_threshold, **breaker_kwargs)
        self._fault_plan = config.fault_plan
        self._dataset = ScholarlyDataset(name=f"shard-{spec.shard}")
        self._columns = ArticleColumns.from_articles(())
        self.absorb(articles)
        self._reader: Optional[ScoreBoardReader] = None
        self._snapshot: Optional[ShardSnapshot] = None
        self._last_scores: Optional[np.ndarray] = None
        self._target_epoch = -1
        self._refreshes_total = 0
        self._vetoes_total = 0
        self._last_violations: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # update path (single updater: the gateway's refresh scatter)

    def absorb(self, articles: Iterable[Article]) -> int:
        """Take ownership of newly arrived articles (metadata only).

        Scores arrive separately through the board; absorbing is the
        delta metadata sync that precedes a refresh. Articles this
        shard does not own are rejected loudly — a misrouted article
        means the gateway and the shard disagree about the partition.
        """
        owned = self._dataset.articles
        arrived = []
        for article in articles:
            if not self.spec.owns(article.id):
                raise ServeError(
                    f"article {article.id} does not belong to shard "
                    f"{self.spec.shard}/{self.spec.num_shards}")
            if article.id not in owned:
                owned[article.id] = article
                arrived.append(article)
        if arrived:
            # None (ids out of order) forces the one walk.
            self._columns = self._columns.appended(arrived) \
                or ArticleColumns.from_articles(owned.values())
        return len(arrived)

    def refresh(self, epoch: int, attempt: int = 0) -> Dict[str, object]:
        """Refresh the shard snapshot from the score board.

        Reads the newest consistent board state, slices out the owned
        articles, validates the slice, and swaps. Returns a status
        report: ``"refreshed"`` | ``"vetoed"`` (guardrails; previous
        snapshot keeps serving) | ``"deferred"`` (breaker open).
        """
        self._target_epoch = max(self._target_epoch, epoch)
        # A scripted crash escapes on purpose: in process mode the
        # worker main turns it into a hard exit, inline the handle plays
        # the process boundary. A "poison" fault comes back to act on.
        fault = self._fault_plan.fire(
            "shard", (self.spec.shard, epoch), attempt) \
            if self._fault_plan is not None else None
        if not self._breaker.allow():
            return {"shard": self.spec.shard, "status": "deferred",
                    "epoch": self._snapshot_epoch(),
                    "breaker": self._breaker.state}
        try:
            board_epoch, ids, scores = self._board().read()
            mask = ids % self.spec.num_shards == self.spec.shard
            slice_ids = ids[mask]
            slice_scores = scores[mask]
            if fault is not None:
                slice_scores = slice_scores.copy()
                slice_scores[:: max(1, slice_scores.size // 5)] = np.nan
            violations = validate_shard_slice(
                self._guardrails, self._columns.article_ids, slice_ids,
                slice_scores, previous_scores=self._last_scores)
        except InjectedCrash:
            raise
        except Exception as exc:  # noqa: BLE001 - refresh firewall
            self._breaker.record_failure()
            self._last_violations = (
                f"refresh raised {type(exc).__name__}: {exc}",)
            self._vetoes_total += 1
            return {"shard": self.spec.shard, "status": "vetoed",
                    "epoch": self._snapshot_epoch(),
                    "violations": list(self._last_violations),
                    "breaker": self._breaker.state}
        if violations:
            self._breaker.record_failure()
            self._vetoes_total += 1
            self._last_violations = tuple(violations)
            return {"shard": self.spec.shard, "status": "vetoed",
                    "epoch": self._snapshot_epoch(),
                    "violations": violations,
                    "breaker": self._breaker.state}
        index = RankIndex(self._dataset, slice_scores, ids=slice_ids,
                          columns=self._columns)
        # One reference store — readers see old or new, never torn.
        self._snapshot = ShardSnapshot(index=index, epoch=board_epoch,
                                       refreshed_at=time.time())
        self._last_scores = slice_scores
        self._last_violations = ()
        self._breaker.record_success()
        self._refreshes_total += 1
        return {"shard": self.spec.shard, "status": "refreshed",
                "epoch": board_epoch, "articles": int(slice_ids.size),
                "breaker": self._breaker.state}

    def _board(self) -> ScoreBoardReader:
        if self._reader is None:
            self._reader = ScoreBoardReader(self._layout)
        return self._reader

    def _snapshot_epoch(self) -> int:
        return self._snapshot.epoch if self._snapshot is not None else -1

    # ------------------------------------------------------------------
    # read path (gate-admitted)

    def _current(self) -> ShardSnapshot:
        snapshot = self._snapshot
        if snapshot is None:
            raise ServeError(
                f"shard {self.spec.shard} has no refreshed snapshot yet")
        return snapshot

    def top(self, k: int = 10, venue_id: Optional[int] = None,
            author_id: Optional[int] = None,
            year_range: Optional[Tuple[int, int]] = None,
            deadline: Optional[Deadline] = None
            ) -> Tuple[int, List[RankEntry]]:
        """Shard-local best ``k`` (ranks local; the gateway renumbers)."""
        with self._gate.admit(deadline):
            snapshot = self._current()
            return snapshot.epoch, snapshot.index.top(
                k, venue_id=venue_id, author_id=author_id,
                year_range=year_range)

    def score_of(self, article_id: int,
                 deadline: Optional[Deadline] = None
                 ) -> Tuple[int, float]:
        with self._gate.admit(deadline):
            snapshot = self._current()
            return snapshot.epoch, snapshot.index.score_of(article_id)

    def count_above(self, score: float, article_id: int,
                    deadline: Optional[Deadline] = None
                    ) -> Tuple[int, int]:
        """Owned articles globally ahead of ``(score, article_id)``."""
        with self._gate.admit(deadline):
            snapshot = self._current()
            return snapshot.epoch, snapshot.index.count_ranked_above(
                score, article_id)

    # ------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Per-shard health rung: fresh | lagging | tripped."""
        breaker_state = self._breaker.state
        epoch = self._snapshot_epoch()
        if breaker_state == OPEN:
            status = "tripped"
        elif epoch < self._target_epoch:
            status = "lagging"
        else:
            status = "fresh"
        return {
            "shard": self.spec.shard,
            "status": status,
            "epoch": epoch,
            "target_epoch": self._target_epoch,
            "articles": len(self._dataset.articles),
            "breaker": breaker_state,
            "refreshes_total": self._refreshes_total,
            "vetoes_total": self._vetoes_total,
            "last_violations": list(self._last_violations),
            "requests_admitted_total": self._gate.admitted_total,
            "requests_shed_total": self._gate.shed_total,
        }

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None


#: Methods a pipe request may invoke on the server (everything else is
#: rejected — the pipe is a control channel, not an RPC free-for-all).
_SHARD_METHODS = frozenset({"absorb", "refresh", "top", "score_of",
                            "count_above", "health"})


def _shard_process_main(conn: "Connection", spec: ShardSpec,
                        layout: SegmentLayout, articles: List[Article],
                        config: ShardConfig) -> None:
    """Worker-process request loop around one :class:`ShardServer`.

    Protocol: requests are ``(request_id, method, kwargs)``; responses
    ``(request_id, "ok", result)`` or ``(request_id, "error", exc)``.
    An :class:`InjectedCrash` becomes a hard ``os._exit`` — the parent
    must observe a dead pipe, exactly like a real worker death.
    """
    server = ShardServer(spec, layout, articles, config)
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            request_id, method, kwargs = request
            if method == "stop":
                conn.send((request_id, "ok", None))
                break
            try:
                if method not in _SHARD_METHODS:
                    raise ServeError(f"unknown shard method {method!r}")
                result = getattr(server, method)(**kwargs)
            except InjectedCrash:
                os._exit(WORKER_CRASH_EXIT_CODE)
            except Exception as exc:  # noqa: BLE001 - shipped to parent
                conn.send((request_id, "error", exc))
            else:
                conn.send((request_id, "ok", result))
    finally:
        server.close()
        conn.close()


class InlineShardHandle:
    """In-process shard (tests, small corpora): no pipe, same contract.

    The one thing it must still emulate is the process boundary's
    failure mode: an :class:`InjectedCrash` escaping the server marks
    the handle dead — the inline analogue of the worker's hard exit —
    and every later call raises :class:`ShardUnavailableError`, exactly
    what the gateway sees from a dead pipe.
    """

    mode = "inline"

    def __init__(self, spec: ShardSpec, layout: SegmentLayout,
                 articles: List[Article], config: ShardConfig) -> None:
        self.spec = spec
        self._server = ShardServer(spec, layout, articles, config)
        self._dead = False

    @property
    def alive(self) -> bool:
        return not self._dead

    def call(self, method: str, timeout: Optional[float] = None,
             **kwargs: object) -> object:
        if self._dead:
            raise ShardUnavailableError(
                f"shard {self.spec.shard} is down (crashed inline)",
                shard=self.spec.shard)
        try:
            return getattr(self._server, method)(**kwargs)
        except InjectedCrash as exc:
            self._dead = True
            self._server.close()
            raise ShardUnavailableError(
                f"shard {self.spec.shard} crashed: {exc}",
                shard=self.spec.shard) from None

    def stop(self) -> None:
        self._dead = True
        self._server.close()


class ProcessShardHandle:
    """Gateway-side handle for one shard worker process.

    Requests are serialized under a lock (one outstanding request per
    pipe); a timed-out request leaves its eventual response in the
    pipe, so replies are matched by request id and stale ones drained
    silently. A dead pipe (worker crashed) raises
    :class:`ShardUnavailableError` with the shard id — the gateway
    degrades or respawns, never blocks.
    """

    mode = "process"

    def __init__(self, spec: ShardSpec, layout: SegmentLayout,
                 articles: List[Article], config: ShardConfig,
                 timeout: float = 10.0) -> None:
        import multiprocessing

        self.spec = spec
        self._timeout = timeout
        self._lock = threading.Lock()
        self._request_id = 0
        self._stale_drained = 0
        self._dead = False
        context = multiprocessing.get_context()
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_shard_process_main,
            args=(child, spec, layout, list(articles), config),
            daemon=True, name=f"repro-shard-{spec.shard}")
        self._process.start()
        child.close()

    @property
    def alive(self) -> bool:
        return not self._dead and self._process.is_alive()

    @property
    def exit_code(self) -> Optional[int]:
        # A dropped pipe is observed before the OS reaps the child;
        # join briefly so a just-crashed worker reports its code.
        if self._dead:
            self._process.join(timeout=5.0)
        return self._process.exitcode

    def call(self, method: str, timeout: Optional[float] = None,
             **kwargs: object) -> object:
        budget = self._timeout if timeout is None else timeout
        with self._lock:
            if self._dead:
                raise ShardUnavailableError(
                    f"shard {self.spec.shard} is down",
                    shard=self.spec.shard)
            self._request_id += 1
            request_id = self._request_id
            try:
                self._conn.send((request_id, method, kwargs))
            except (OSError, ValueError) as exc:
                self._mark_dead()
                raise ShardUnavailableError(
                    f"shard {self.spec.shard} pipe is broken: {exc}",
                    shard=self.spec.shard) from exc
            expires = time.monotonic() + budget
            while True:
                remaining = expires - time.monotonic()
                if remaining <= 0 or not self._conn.poll(
                        max(0.0, remaining)):
                    # The response (if it ever lands) is now stale;
                    # later calls drain it by request id.
                    raise ShardUnavailableError(
                        f"shard {self.spec.shard} timed out after "
                        f"{budget:.3f}s answering {method!r}",
                        shard=self.spec.shard)
                try:
                    response_id, status, payload = self._conn.recv()
                except (EOFError, OSError) as exc:
                    self._mark_dead()
                    raise ShardUnavailableError(
                        f"shard {self.spec.shard} died answering "
                        f"{method!r} (exit code "
                        f"{self._process.exitcode})",
                        shard=self.spec.shard) from exc
                if response_id != request_id:
                    self._stale_drained += 1
                    continue
                if status == "error":
                    raise payload
                return payload

    def _mark_dead(self) -> None:
        self._dead = True
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    @property
    def stale_drained(self) -> int:
        """Stale (timed-out) responses skipped while matching replies."""
        return self._stale_drained

    def stop(self, join_timeout: float = 5.0) -> None:
        """Graceful stop, escalating to terminate."""
        if not self._dead:
            try:
                self.call("stop", timeout=join_timeout)
            except Exception:  # noqa: BLE001 - best-effort shutdown
                pass
        self._process.join(timeout=join_timeout)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=join_timeout)
        self._mark_dead()
