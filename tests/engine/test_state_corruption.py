"""Checkpoint corruption detection (torn writes, bit rot, tampering)."""

import json

import numpy as np
import pytest

from repro.errors import StorageError
from repro.engine.incremental import IncrementalEngine
from repro.engine.state import load_engine, save_engine, verify_checkpoint
from repro.engine.updates import fraction_update
from repro.resilience import FaultPlan, InjectedCrash


@pytest.fixture(scope="module")
def engine(small_dataset):
    base, batch = fraction_update(small_dataset, 0.05)
    engine = IncrementalEngine(base, delta_threshold=1e-3)
    engine.apply(batch)
    return engine


@pytest.fixture()
def checkpoint(engine, tmp_path):
    directory = tmp_path / "ckpt"
    save_engine(engine, directory)
    return directory


class TestVerifyCheckpoint:
    def test_healthy_checkpoint_has_no_problems(self, checkpoint):
        assert verify_checkpoint(checkpoint) == []

    def test_nonexistent_directory(self, tmp_path):
        problems = verify_checkpoint(tmp_path / "nope")
        assert len(problems) == 1
        assert "not a checkpoint directory" in problems[0]

    def test_unreadable_manifest(self, checkpoint):
        (checkpoint / "MANIFEST.json").write_text("{not json",
                                                  encoding="utf-8")
        [problem] = verify_checkpoint(checkpoint)
        assert "unreadable manifest" in problem

    @pytest.mark.parametrize("entry", ["corpus", "files/state.npz"])
    def test_manifest_entry_without_a_size_is_a_problem_not_a_crash(
            self, checkpoint, entry):
        manifest = json.loads((checkpoint / "MANIFEST.json").read_text())
        target = manifest
        for key in entry.split("/"):
            target = target[key]
        del target["bytes"]
        (checkpoint / "MANIFEST.json").write_text(json.dumps(manifest))
        [problem] = verify_checkpoint(checkpoint)
        assert "unreadable manifest" in problem and "bytes" in problem
        with pytest.raises(StorageError, match="unreadable manifest"):
            load_engine(checkpoint)


class TestTruncation:
    def test_truncated_arrays_detected_on_load(self, checkpoint):
        path = checkpoint / "state.npz"
        with open(path, "r+b") as handle:
            handle.truncate(64)
        assert any("truncated" in p for p in verify_checkpoint(checkpoint))
        with pytest.raises(StorageError, match="earlier rotation"):
            load_engine(checkpoint)

    def test_truncated_dataset_detected_on_load(self, checkpoint):
        path = checkpoint / "corpus.jsonl.gz"
        with open(path, "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(StorageError, match="integrity verification"):
            load_engine(checkpoint)

    def test_injected_truncation_fault(self, engine, tmp_path):
        # The fault plan tears the file *after* the manifest seals the
        # intact content — exactly the torn-page case checksums catch.
        plan = FaultPlan.of("write:truncate:state.npz@64")
        directory = tmp_path / "ckpt"
        save_engine(engine, directory, fault_plan=plan)
        assert (directory / "state.npz").stat().st_size == 64
        with pytest.raises(StorageError, match="truncated|torn"):
            load_engine(directory)


class TestMissingAndTampered:
    def test_missing_config_is_a_clear_error(self, checkpoint):
        (checkpoint / "engine.json").unlink()
        with pytest.raises(StorageError, match="no engine checkpoint"):
            load_engine(checkpoint)

    def test_missing_arrays_reported_by_name(self, checkpoint):
        (checkpoint / "state.npz").unlink()
        assert any("missing state.npz" in p
                   for p in verify_checkpoint(checkpoint))
        with pytest.raises(StorageError, match="state.npz"):
            load_engine(checkpoint)

    def test_bit_flip_same_size_caught_by_checksum(self, checkpoint):
        # Same byte count, different content: only the SHA-256 sees it.
        path = checkpoint / "state.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert any("checksum mismatch" in p
                   for p in verify_checkpoint(checkpoint))
        with pytest.raises(StorageError, match="checksum mismatch"):
            load_engine(checkpoint)


class TestCrashMidSave:
    @pytest.mark.faults
    @pytest.mark.parametrize("files_before_crash", [1, 2, 3])
    def test_crash_between_writes_preserves_old_checkpoint(
            self, engine, tmp_path, files_before_crash):
        directory = tmp_path / "ckpt"
        save_engine(engine, directory)
        reference = load_engine(directory).scores
        # Second save dies partway through its staging writes; the
        # published checkpoint must still be the complete first one.
        plan = FaultPlan.of(f"write:crash:{files_before_crash}")
        with pytest.raises(InjectedCrash):
            save_engine(engine, directory, fault_plan=plan)
        assert verify_checkpoint(directory) == []
        assert np.array_equal(load_engine(directory).scores, reference)

    @pytest.mark.faults
    def test_crash_before_any_publish_leaves_no_checkpoint(
            self, engine, tmp_path):
        directory = tmp_path / "ckpt"
        plan = FaultPlan.of("write:crash:1")
        with pytest.raises(InjectedCrash):
            save_engine(engine, directory, fault_plan=plan)
        assert not directory.exists()
        with pytest.raises(StorageError, match="no engine checkpoint"):
            load_engine(directory)

    @pytest.mark.faults
    @pytest.mark.parametrize("reader", [load_engine, verify_checkpoint])
    def test_crash_between_the_swap_renames_is_finished_on_read(
            self, engine, tmp_path, reader):
        # Old copy parked, new copy sealed but not yet renamed in: the
        # name itself is absent. The next reader finishes the swap.
        directory = tmp_path / "ckpt"
        save_engine(engine, directory)
        newer = IncrementalEngine.__new__(IncrementalEngine)
        newer.__dict__.update(engine.__dict__)
        newer.scores = engine.scores[::-1].copy()
        plan = FaultPlan.of("write:crash:5")  # 4 files, then the park
        with pytest.raises(InjectedCrash, match=r"\.ckpt\.old"):
            save_engine(newer, directory, fault_plan=plan)
        assert not directory.exists()
        assert (tmp_path / ".ckpt.old").is_dir()
        assert (tmp_path / ".ckpt.tmp" / "MANIFEST.json").exists()

        reader(directory)
        assert verify_checkpoint(directory) == []
        assert np.array_equal(load_engine(directory).scores, newer.scores)
        # The parked copy is debris now; the next save clears it.
        save_engine(engine, directory)
        assert not (tmp_path / ".ckpt.old").exists()

    def test_parked_copy_is_put_back_when_the_new_one_never_sealed(
            self, checkpoint, tmp_path):
        reference = load_engine(checkpoint).scores
        checkpoint.rename(tmp_path / ".ckpt.old")
        (tmp_path / ".ckpt.tmp").mkdir()  # staging without a manifest
        assert np.array_equal(load_engine(checkpoint).scores, reference)

    def test_stale_staging_directory_is_replaced(self, engine, tmp_path):
        # Leftover staging from a crashed save must not poison a retry.
        directory = tmp_path / "ckpt"
        staging = tmp_path / ".ckpt.tmp"
        staging.mkdir()
        (staging / "junk").write_text("stale", encoding="utf-8")
        save_engine(engine, directory)
        assert not staging.exists()
        assert verify_checkpoint(directory) == []


def _write_legacy(engine, directory, version):
    """A checkpoint exactly as the v1 / v2 writer left it: the corpus
    dumped whole, seven compressed arrays, a manifest from v2 on."""
    import hashlib

    from repro.data.io import save_dataset_jsonl

    directory.mkdir()
    save_dataset_jsonl(engine.dataset, directory / "dataset.jsonl.gz")
    np.savez_compressed(
        directory / "state.npz", scores=engine.scores, years=engine.years,
        edge_weights=engine._edge_weights, node_ids=engine.graph.node_ids,
        indptr=engine.graph.indptr, indices=engine.graph.indices,
        graph_weights=engine.graph.weights)
    (directory / "engine.json").write_text(json.dumps({
        "format_version": version, "damping": engine.damping,
        "delta_threshold": engine.delta_threshold, "tol": engine.tol,
        "max_iter": engine.max_iter,
        "decay_rate": engine.decay._repro_rate}), encoding="utf-8")
    if version >= 2:
        names = ("dataset.jsonl.gz", "state.npz", "engine.json")
        (directory / "MANIFEST.json").write_text(json.dumps({
            "format_version": version,
            "files": {name: {
                "sha256": hashlib.sha256(
                    (directory / name).read_bytes()).hexdigest(),
                "bytes": (directory / name).stat().st_size}
                for name in names}}), encoding="utf-8")


class TestLegacyV1:
    def test_v1_checkpoint_loads_without_manifest(self, engine,
                                                  tmp_path):
        directory = tmp_path / "ckpt"
        _write_legacy(engine, directory, version=1)
        assert verify_checkpoint(directory) == []
        assert np.array_equal(load_engine(directory).scores,
                              engine.scores)

    def test_v1_missing_files_still_reported(self, engine, tmp_path):
        directory = tmp_path / "ckpt"
        _write_legacy(engine, directory, version=1)
        (directory / "state.npz").unlink()
        assert any("no manifest" in p
                   for p in verify_checkpoint(directory))


class TestLegacyV2:
    def test_v2_checkpoint_loads_through_the_same_tail(self, engine,
                                                       tmp_path):
        directory = tmp_path / "ckpt"
        _write_legacy(engine, directory, version=2)
        assert verify_checkpoint(directory) == []
        loaded = load_engine(directory)
        assert loaded.dataset.articles == engine.dataset.articles
        for name in ("scores", "years", "_edge_weights"):
            assert np.array_equal(getattr(loaded, name),
                                  getattr(engine, name))
        for name in ("indptr", "indices", "weights", "node_ids"):
            assert np.array_equal(getattr(loaded.graph, name),
                                  getattr(engine.graph, name))

    def test_v2_manifest_is_still_enforced(self, engine, tmp_path):
        directory = tmp_path / "ckpt"
        _write_legacy(engine, directory, version=2)
        with open(directory / "state.npz", "r+b") as handle:
            handle.truncate(64)
        with pytest.raises(StorageError, match="truncated"):
            load_engine(directory)


def test_save_is_idempotent_over_existing(engine, tmp_path):
    directory = tmp_path / "ckpt"
    save_engine(engine, directory)
    first = load_engine(directory).scores
    save_engine(engine, directory)  # exercises the park-and-swap path
    assert verify_checkpoint(directory) == []
    assert np.array_equal(load_engine(directory).scores, first)
    assert not (tmp_path / ".ckpt.old").exists()
    assert not (tmp_path / ".ckpt.tmp").exists()
