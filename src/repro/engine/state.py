"""Crash-safe checkpointing for the incremental engine.

A dynamic ranking service must survive restarts without re-solving its
whole history. The corpus only grows, so its durable form does too: one
append-only corpus log (gzip JSONL) shared by every checkpoint. A
checkpoint directory holds what the engine maintains beside the corpus
— scores, graph, years and edge weights (one uncompressed ``.npz``),
configuration (JSON) — and a manifest with per-file SHA-256 checksums
plus the byte length and SHA-256 of the log *prefix* it stands on;
bytes past that prefix (a torn or orphaned append) are invisible to it.
:func:`load_engine` reconstructs an engine that continues exactly where
the saved one stopped — without re-running the initial TWPR solve.

Crash safety: :func:`save_engine` never touches an existing checkpoint
in place. It writes every file into a hidden sibling temp directory,
seals the manifest last, and only then swaps the temp directory into
place with directory renames — a crash at *any* point leaves either the
old intact checkpoint or the new intact checkpoint, never a torn mix.
:func:`load_engine` verifies sizes and checksums against the manifest
and converts every low-level failure mode (truncated arrays, missing
files, corrupt gzip, mangled JSON) into a :class:`StorageError` whose
message says what to do, instead of leaking raw ``numpy``/``zlib``
exceptions. ``docs/OPERATIONS.md`` documents the on-disk format.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import mmap
import os
import shutil
from itertools import chain
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import StorageError
from repro.core.columns import ArticleColumns
from repro.core.time_weight import exponential_decay
from repro.data.io import read_dataset_jsonl, save_dataset_jsonl
from repro.data.schema import ScholarlyDataset
from repro.engine.incremental import IncrementalEngine
from repro.graph.csr import CSRGraph
from repro.resilience import FaultPlan, InjectedCrash

PathLike = Union[str, Path]

_CORPUS_FILE = "corpus.jsonl.gz"
_ARRAYS_FILE = "state.npz"
_CONFIG_FILE = "engine.json"
_MANIFEST_FILE = "MANIFEST.json"
# v3 moves the corpus into the log and stops compressing the arrays.
# v2 (the corpus dumped whole into every checkpoint) and v1 (the same,
# no manifest, so no verification) still load.
_FORMAT_VERSION = 3
_LEGACY_DATASET = "dataset.jsonl.gz"
_SETTINGS = ("damping", "delta_threshold", "tol", "max_iter")


class SealedCorpus(NamedTuple):
    """A corpus-log prefix a checkpoint pins. Never mutated (extending
    one copies the hash), so whoever holds an old one can roll back."""
    path: Path
    size: int
    digest: "hashlib._Hash"


def _head(path: Path, length: int = 0) -> mmap.mmap:
    """The first ``length`` bytes of a file (0 = all of it), mapped."""
    with open(path, "rb") as handle:
        return mmap.mmap(handle.fileno(), length, access=mmap.ACCESS_READ)


def _sha256(path: Path, length: int = 0) -> "hashlib._Hash":
    with _head(path, length) as head:
        return hashlib.sha256(head)


def _manifest(directory: Path) -> dict:
    path = directory / _MANIFEST_FILE
    return json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {}


def _wrote(plan: Optional[FaultPlan], name: str) -> None:
    """One checkpoint write point: ``write:crash:N`` dies at the Nth
    the plan has seen (counted across saves)."""
    if plan is None:
        return
    plan.writes += 1
    try:
        plan.fire("write", (plan.writes,))
    except InjectedCrash as exc:
        raise InjectedCrash(f"{exc} after writing {name}") from None


def append_corpus(root: PathLike, sealed: Optional[SealedCorpus],
                  dataset: ScholarlyDataset,
                  batches: Iterable[Sequence[str]] = (),
                  fault_plan: Optional[FaultPlan] = None) -> SealedCorpus:
    """Make ``dataset`` durable in a corpus log; return its new prefix.

    With no ``sealed`` prefix to stand on, the log is written whole as
    ``root/corpus.jsonl.gz`` — a session's one O(n) write. Otherwise
    ``batches`` holds the :func:`repro.data.io.record_lines` of each
    update applied since ``sealed``: the file is cut back to the sealed
    length (dropping what a crashed or rolled-back append left) and
    grows by one gzip member.
    """
    if sealed is None:
        log = Path(root) / _CORPUS_FILE
        # Replaced whole: rotations of an earlier session keep their log
        # until this one is complete.
        save_dataset_jsonl(dataset, log.with_name("." + _CORPUS_FILE))
        os.replace(log.with_name("." + _CORPUS_FILE), log)
        sealed = SealedCorpus(log, log.stat().st_size, _sha256(log))
    else:
        member = gzip.compress(
            "".join(chain.from_iterable(batches)).encode("utf-8"), mtime=0)
        digest = sealed.digest.copy()
        digest.update(member)
        with open(sealed.path, "r+b") as handle:
            handle.truncate(sealed.size)
            handle.seek(sealed.size)
            handle.write(member)
        sealed = SealedCorpus(sealed.path, sealed.size + len(member),
                              digest)
    _wrote(fault_plan, _CORPUS_FILE)
    return sealed


def save_engine(engine: IncrementalEngine, directory: PathLike,
                fault_plan: Optional[FaultPlan] = None, *,
                corpus: Optional[SealedCorpus] = None) -> Path:
    """Atomically write ``engine`` to ``directory`` (created if missing).

    The checkpoint is staged in a hidden temp directory next to the
    target and renamed into place only once every file and the manifest
    are on disk, so a crash mid-save can never corrupt an existing
    checkpoint. ``corpus`` is the :func:`append_corpus` prefix of a
    shared log that holds ``engine.dataset``; without it the checkpoint
    writes its own log inside the directory. ``fault_plan`` is the test
    harness's hook for injecting crashes between writes and post-write
    truncation; leave it ``None`` outside the fault-injection suite.
    Do not read a directory while a save is overwriting it: readers
    finish a swap they find interrupted.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.parent / f".{directory.name}.tmp"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()

    if corpus is None:
        corpus = append_corpus(staging, None, engine.dataset,
                               fault_plan=fault_plan)
    # Uncompressed: the arrays cost a copy, not a deflate, per save.
    np.savez(
        staging / _ARRAYS_FILE,
        scores=engine.scores,
        years=engine.years,
        edge_weights=engine._edge_weights,
        node_ids=engine.graph.node_ids,
        indptr=engine.graph.indptr,
        indices=engine.graph.indices,
        graph_weights=engine.graph.weights,
    )
    _wrote(fault_plan, _ARRAYS_FILE)
    config = {"format_version": _FORMAT_VERSION,
              **{name: getattr(engine, name) for name in _SETTINGS},
              "decay_rate": getattr(engine.decay, "_repro_rate", None)}
    (staging / _CONFIG_FILE).write_text(json.dumps(config, indent=2),
                                        encoding="utf-8")
    _wrote(fault_plan, _CONFIG_FILE)

    manifest = {
        "format_version": _FORMAT_VERSION,
        "files": {
            name: {"sha256": _sha256(staging / name).hexdigest(),
                   "bytes": (staging / name).stat().st_size}
            for name in (_ARRAYS_FILE, _CONFIG_FILE)
        },
        # Staging sits beside the target, so the path holds for both.
        "corpus": {"path": os.path.relpath(corpus.path, staging),
                   "bytes": corpus.size,
                   "sha256": corpus.digest.hexdigest()},
    }
    (staging / _MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8")
    _wrote(fault_plan, _MANIFEST_FILE)

    # Post-manifest corruption (torn page, bit rot): checksums were
    # computed from the intact content, so load detects the damage.
    if fault_plan is not None:
        for path in staging.iterdir():
            torn = fault_plan.fire("write", (path.name,))
            if torn is not None:
                with open(path, "r+b") as handle:
                    handle.truncate(int(torn.value))

    # Publish: directory renames are atomic within a filesystem. If a
    # previous checkpoint exists it is parked aside first; a crash
    # between the two renames leaves a complete old copy and a complete
    # new one under hidden names, and the next load finishes the swap.
    if directory.exists():
        parked = directory.parent / f".{directory.name}.old"
        if parked.exists():
            shutil.rmtree(parked)
        os.rename(directory, parked)
        _wrote(fault_plan, parked.name)
        os.rename(staging, directory)
        shutil.rmtree(parked)
    else:
        os.rename(staging, directory)
    return directory


def _settle(directory: Path) -> Path:
    """Finish a swap that died between its renames: the sealed new copy
    wins, else the parked old one goes back."""
    staging = directory.parent / f".{directory.name}.tmp"
    parked = directory.parent / f".{directory.name}.old"
    if not directory.exists():
        if (staging / _MANIFEST_FILE).exists():
            os.rename(staging, directory)
        elif parked.is_dir():
            os.rename(parked, directory)
    return directory


def verify_checkpoint(directory: PathLike) -> List[str]:
    """Integrity problems of a checkpoint (empty list = healthy).

    Checks directory existence, manifest readability, and presence,
    size, and SHA-256 of every manifest-listed file and of the
    corpus-log prefix the manifest pins. Legacy v1 checkpoints (no
    manifest) report a single advisory problem only if their core files
    are missing. Like :func:`load_engine`, it first finishes an
    overwrite that crashed between its renames — the one write a reader
    makes, so neither may run beside a save of the same directory.
    """
    directory = _settle(Path(directory))
    problems: List[str] = []
    if not directory.is_dir():
        return [f"{directory} is not a checkpoint directory"]
    if not (directory / _MANIFEST_FILE).exists():
        for name in (_CONFIG_FILE, _ARRAYS_FILE, _LEGACY_DATASET):
            if not (directory / name).exists():
                problems.append(f"missing {name} (and no manifest)")
        return problems
    try:
        manifest = _manifest(directory)
        # (name, path, pinned bytes, pinned sha256, may the file be longer)
        pinned = [(name, directory / name, int(entry["bytes"]),
                   entry["sha256"], False)
                  for name, entry in manifest["files"].items()]
        log = manifest.get("corpus")
        if log is not None:
            pinned.append((f"corpus log {log['path']}",
                           directory / log["path"], int(log["bytes"]),
                           log["sha256"], True))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable manifest: {exc!r}"]
    for name, path, pin, sha256, grows in pinned:
        if not path.exists():
            problems.append(f"missing {name}")
            continue
        size = path.stat().st_size
        if not 0 < pin <= size or (size > pin and not grows):
            problems.append(
                f"{name} is {size} bytes, manifest says {pin} "
                f"(truncated or torn write)")
            continue
        digest = _sha256(path, pin).hexdigest()
        if digest != sha256:
            problems.append(
                f"{name} checksum mismatch in bytes [0, {pin}) "
                f"(expected {str(sha256)[:12]}…, got "
                f"{digest[:12]}…): file is corrupt")
    return problems


def load_engine(directory: PathLike) -> IncrementalEngine:
    """Reconstruct an engine saved by :func:`save_engine`.

    Verifies the manifest checksums first and raises
    :class:`StorageError` with an actionable message on any truncation
    or corruption — restore from an earlier checkpoint rotation in that
    case. The decay kernel is restored only for exponential kernels
    created by :func:`repro.core.time_weight.exponential_decay`;
    checkpoints of engines with custom kernels refuse to load (the
    kernel cannot be serialized faithfully).
    """
    directory = _settle(Path(directory))
    config_path = directory / _CONFIG_FILE
    if not config_path.exists():
        raise StorageError(f"no engine checkpoint in {directory}")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as exc:
        raise StorageError(
            f"checkpoint config {config_path} is unreadable ({exc}); "
            "restore from an earlier rotation") from exc
    version = config.get("format_version")
    if version not in (1, 2, _FORMAT_VERSION):
        raise StorageError(
            f"unsupported checkpoint version {version!r}")
    if version >= 2:
        problems = verify_checkpoint(directory)
        if problems:
            raise StorageError(
                f"checkpoint {directory} failed integrity verification: "
                + "; ".join(problems)
                + ". Restore from an earlier rotation.")
    if config.get("decay_rate") is None:
        raise StorageError(
            "checkpoint was saved with a non-exponential decay kernel; "
            "reconstruct the engine manually")

    # A legacy checkpoint's corpus is a log of its own, read to its end.
    log = _manifest(directory).get("corpus") \
        or {"path": _LEGACY_DATASET, "bytes": 0}
    try:
        with _head(directory / log["path"], log["bytes"]) as prefix, \
                gzip.open(prefix, "rt", encoding="utf-8") as lines:
            dataset = read_dataset_jsonl(lines, log["path"])
        with np.load(directory / _ARRAYS_FILE) as arrays:
            graph = CSRGraph(arrays["indptr"], arrays["indices"],
                             arrays["graph_weights"], arrays["node_ids"])
            years, scores, edge_weights = (
                arrays[name] for name in ("years", "scores",
                                          "edge_weights"))
    except Exception as exc:
        raise StorageError(
            f"checkpoint {directory} is unreadable or truncated "
            f"({exc.__class__.__name__}: {exc}); restore from an "
            "earlier rotation") from exc
    if graph.num_nodes != dataset.num_articles:
        raise StorageError("checkpoint arrays do not match its dataset")

    engine = IncrementalEngine.__new__(IncrementalEngine)
    for name in _SETTINGS:
        setattr(engine, name, config[name])
    engine.decay = exponential_decay(float(config["decay_rate"]))
    # Telemetry/observability recorders are in-memory observers, never
    # checkpointed; a restored engine starts unobserved (assign
    # engine.telemetry / engine.obs to re-attach them).
    engine.telemetry = None
    engine.obs = None
    engine._structure_cache = None
    engine.dataset = dataset
    engine.columns = ArticleColumns.from_dataset(dataset)  # derived
    engine.graph = graph
    engine.years = years
    engine.scores = scores
    engine._edge_weights = edge_weights
    return engine


def corpus_prefix(directory: PathLike) -> Optional[SealedCorpus]:
    """The log prefix a checkpoint stands on, re-hashed so that
    :func:`append_corpus` can extend it (``None`` for a legacy one)."""
    log = _manifest(Path(directory)).get("corpus")
    if log is None:
        return None
    path = Path(os.path.normpath(Path(directory) / log["path"]))
    return SealedCorpus(path, log["bytes"], _sha256(path, log["bytes"]))
