"""LiveRanker: full-model dynamic article ranking.

The incremental engine maintains the expensive part of the model —
TWPR prestige — under arrival batches; every other stage of the
assembled model (popularity, venue and author importance, the blend) is
linear-time and recomputed exactly per batch. :class:`LiveRanker` wires
the two together into the interface a live scholarly index would run:

    live = LiveRanker(bootstrap_dataset)
    for batch in arrivals:
        result, report = live.apply(batch)   # full RankingResult

A live service also has to survive its host: with ``checkpoint_dir``
set, the ranker writes a crash-safe checkpoint rotation every
``checkpoint_every`` batches (keeping the newest ``checkpoint_keep``),
and :meth:`LiveRanker.resume` restarts mid-stream from the newest
*intact* rotation — corrupt or torn rotations are skipped, not fatal.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.errors import ConfigError, StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.handle import Observability
    from repro.obs.telemetry import SolverTelemetry
from repro.core.model import ArticleRanker, RankerConfig, RankingResult
from repro.core.time_weight import exponential_decay
from repro.data.io import record_lines
from repro.data.schema import ScholarlyDataset
from repro.engine.incremental import IncrementalEngine, IncrementalReport
from repro.engine.state import (append_corpus, corpus_prefix, load_engine,
                                save_engine)
from repro.engine.updates import UpdateBatch

PathLike = Union[str, Path]

_LIVE_FILE = "live.json"
_ROTATION_PATTERN = re.compile(r"^ckpt-(\d{8})$")


def checkpoint_rotations(directory: PathLike) -> List[Path]:
    """Rotation directories under a live checkpoint root, newest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    rotations = [path for path in directory.iterdir()
                 if path.is_dir() and _ROTATION_PATTERN.match(path.name)]
    return sorted(rotations, key=lambda p: p.name, reverse=True)


class LiveRanker:
    """Maintains the full article ranking under update batches."""

    def __init__(self, dataset: ScholarlyDataset,
                 config: Optional[RankerConfig] = None,
                 delta_threshold: float = 1e-3,
                 telemetry: Optional["SolverTelemetry"] = None,
                 obs: Optional["Observability"] = None,
                 checkpoint_dir: Optional[PathLike] = None,
                 checkpoint_every: int = 0,
                 checkpoint_keep: int = 3,
                 fault_plan=None) -> None:
        """Bootstrap on ``dataset`` (one exact solve), then stay live.

        ``config.solver`` is ignored (prestige is maintained by the
        incremental engine); ``config.observation_year`` must be unset —
        the observation horizon tracks the newest article automatically.
        ``telemetry`` is handed to the incremental engine, so every
        applied batch appends one affected-area record; ``obs`` (an
        :class:`repro.obs.Observability` handle) additionally traces the
        bootstrap and every applied batch. The rankings are unchanged
        with either on or off.

        ``checkpoint_dir`` opts into crash safety: every
        ``checkpoint_every`` batches (0 = only on explicit
        :meth:`checkpoint` calls) the engine state is saved atomically
        under ``checkpoint_dir/ckpt-<batches>``, keeping the newest
        ``checkpoint_keep`` rotations beside one append-only corpus
        log (written whole by the session's first checkpoint only).

        ``fault_plan`` (a :class:`repro.resilience.FaultPlan`) is handed
        to every checkpoint save — the fault-injection suite's hook for
        crashing mid-save; leave it ``None`` in production.
        """
        self.config = config or RankerConfig()
        if self.config.observation_year is not None:
            raise ConfigError(
                "LiveRanker manages the observation horizon itself; "
                "leave observation_year unset")
        if checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if checkpoint_keep < 1:
            raise ConfigError("checkpoint_keep must be >= 1")
        if checkpoint_every > 0 and checkpoint_dir is None:
            raise ConfigError(
                "checkpoint_every needs a checkpoint_dir to write to")
        self._ranker = ArticleRanker(self.config)
        self._obs = obs
        self._engine = IncrementalEngine(
            dataset,
            damping=self.config.damping,
            decay=exponential_decay(self.config.prestige_decay),
            delta_threshold=delta_threshold,
            tol=self.config.tol,
            max_iter=self.config.max_iter,
            telemetry=telemetry,
            obs=obs)
        self._result = self._assemble()
        self._batches_applied = 0
        self._checkpoint_dir = None if checkpoint_dir is None \
            else Path(checkpoint_dir)
        self._checkpoint_every = checkpoint_every
        self._checkpoint_keep = checkpoint_keep
        self._fault_plan = fault_plan
        # The corpus-log prefix the last checkpoint sealed and, per
        # batch applied since, its JSONL lines; replaced, never mutated,
        # so whoever holds the old values can roll back to them.
        self._sealed = None
        self._unsaved: Tuple[Tuple[str, ...], ...] = ()

    # ------------------------------------------------------------------

    @property
    def dataset(self) -> ScholarlyDataset:
        return self._engine.dataset

    @property
    def result(self) -> RankingResult:
        """The current full-model ranking."""
        return self._result

    @property
    def checkpoint_dir(self) -> Optional[Path]:
        """Where rotations go, or ``None`` when checkpointing is off.

        Callers that layer their own durability on top (the ingest
        pipeline commits its journal cursor only after a rotation
        lands) use this to decide whether checkpoints exist at all.
        """
        return self._checkpoint_dir

    @property
    def batches_applied(self) -> int:
        """Update batches ingested since bootstrap (or since the batch
        count of the rotation this session resumed from)."""
        return self._batches_applied

    def _assemble(self) -> RankingResult:
        """The full model around the engine's prestige — its graph and
        columns go along, so nothing here walks the dataset."""
        engine = self._engine
        return self._ranker.rank_with_prestige(
            engine.dataset, engine.scores, graph=engine.graph,
            columns=engine.columns, obs=self._obs)

    def apply(self, batch: UpdateBatch
              ) -> Tuple[RankingResult, IncrementalReport]:
        """Ingest one batch; return the refreshed ranking and a report."""
        before = self._engine.dataset
        report = self._engine.apply(batch)
        if self._sealed is not None:  # else the log starts from the dataset
            self._unsaved += (tuple(record_lines(
                batch.venues, batch.authors, batch.articles,
                batch.citations, known=before)),)
        self._result = self._assemble()
        self._batches_applied += 1
        if (self._checkpoint_every
                and self._batches_applied % self._checkpoint_every == 0):
            self.checkpoint()
        return self._result, report

    def prestige_error_vs_exact(self) -> float:
        """Drift of maintained prestige vs a cold solve (L1)."""
        return self._engine.error_vs_exact()

    # ------------------------------------------------------------------
    # crash safety

    def checkpoint(self) -> Path:
        """Write one rotation now and prune old ones; returns its path."""
        if self._checkpoint_dir is None:
            raise ConfigError(
                "no checkpoint_dir configured on this LiveRanker")
        root = self._checkpoint_dir
        root.mkdir(parents=True, exist_ok=True)
        rotation = root / f"ckpt-{self._batches_applied:08d}"
        span = self._obs.span("live.checkpoint",
                              batches=self._batches_applied) \
            if self._obs is not None else nullcontext()
        with span as open_span:
            self._write_live_metadata(root)
            # Prune *before* saving as well as after: a crash between a
            # past save and its prune leaves keep+1 rotations behind,
            # and without this pass repeated crash-restart cycles would
            # accumulate rotations indefinitely. Only rotations already
            # beyond checkpoint_keep are touched — never fresh data.
            for stale in checkpoint_rotations(root)[self._checkpoint_keep:]:
                shutil.rmtree(stale)
            # The log first, then the rotation that names its prefix:
            # until that manifest seals, the append is an orphaned tail
            # no rotation sees and the next append cuts off.
            previous = self._sealed
            sealed = append_corpus(root, previous, self._engine.dataset,
                                   self._unsaved, self._fault_plan)
            save_engine(self._engine, rotation,
                        fault_plan=self._fault_plan, corpus=sealed)
            written = sealed.size - (previous.size if previous else 0) \
                + sum(path.stat().st_size for path in rotation.iterdir())
            for stale in checkpoint_rotations(root)[self._checkpoint_keep:]:
                shutil.rmtree(stale)
        records = sum(map(len, self._unsaved))
        self._sealed, self._unsaved = sealed, ()
        if self._obs is not None:
            open_span.attributes.update(bytes=written, records=records)
            metrics = self._obs.metrics
            metrics.counter(
                "repro_checkpoints_total",
                "Live checkpoint rotations written.").inc()
            metrics.counter(
                "repro_checkpoint_bytes_total",
                "Bytes checkpoints wrote (corpus-log appends plus "
                "rotation files).").inc(written)
            metrics.histogram(
                "repro_checkpoint_seconds",
                "Wall time of one live checkpoint.").observe(
                open_span.duration)
        return rotation

    def _write_live_metadata(self, root: Path) -> None:
        """Session metadata resume() needs beyond the engine state."""
        payload = {
            "format_version": 1,
            "config": asdict(self.config),
            "checkpoint_every": self._checkpoint_every,
            "checkpoint_keep": self._checkpoint_keep,
        }
        staging = root / f".{_LIVE_FILE}.tmp"
        staging.write_text(json.dumps(payload, indent=2),
                           encoding="utf-8")
        os.replace(staging, root / _LIVE_FILE)

    @classmethod
    def resume(cls, directory: PathLike,
               telemetry: Optional["SolverTelemetry"] = None,
               obs: Optional["Observability"] = None
               ) -> "LiveRanker":
        """Recover a live session from its checkpoint rotation root.

        Rotations are tried newest-first; a rotation that fails
        integrity verification (truncated file, checksum mismatch, torn
        write) is skipped in favour of the next older one, so a crash
        mid-save costs at most ``checkpoint_every`` batches of progress.
        Raises :class:`StorageError` when no intact rotation remains.
        """
        directory = Path(directory)
        live_path = directory / _LIVE_FILE
        if not live_path.exists():
            raise StorageError(
                f"no live checkpoint in {directory} (missing "
                f"{_LIVE_FILE})")
        try:
            meta = json.loads(live_path.read_text(encoding="utf-8"))
            config = RankerConfig(**meta["config"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise StorageError(
                f"live checkpoint metadata {live_path} is unreadable "
                f"({exc})") from exc
        rotations = checkpoint_rotations(directory)
        if not rotations:
            raise StorageError(
                f"live checkpoint {directory} has no rotations")
        failures: List[str] = []
        engine = None
        recovered = None
        for rotation in rotations:
            try:
                engine = load_engine(rotation)
                recovered = rotation
                break
            except StorageError as exc:
                failures.append(f"{rotation.name}: {exc}")
        if engine is None or recovered is None:
            raise StorageError(
                f"no intact checkpoint rotation in {directory}: "
                + " | ".join(failures))

        live = cls.__new__(cls)
        live.config = config
        live._ranker = ArticleRanker(config)
        if obs is not None and telemetry is None:
            telemetry = obs.telemetry
        engine.telemetry = telemetry
        engine.obs = obs
        live._obs = obs
        live._engine = engine
        live._result = live._assemble()
        live._batches_applied = int(
            _ROTATION_PATTERN.match(recovered.name).group(1))
        live._checkpoint_dir = directory
        live._checkpoint_every = int(meta.get("checkpoint_every", 0))
        live._checkpoint_keep = int(meta.get("checkpoint_keep", 3))
        live._fault_plan = None
        live._sealed, live._unsaved = corpus_prefix(recovered), ()
        return live
