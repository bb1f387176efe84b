"""LiveRanker auto-checkpointing, rotation pruning, and resume."""

import numpy as np
import pytest

from repro.errors import ConfigError, StorageError
from repro.engine.live import LiveRanker, checkpoint_rotations
from repro.engine.updates import yearly_updates


@pytest.fixture(scope="module")
def stream(small_dataset):
    base, batches = yearly_updates(small_dataset, from_year=2011)
    assert len(batches) >= 4
    return base, batches


class TestValidation:
    def test_every_requires_a_directory(self, stream):
        base, _ = stream
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            LiveRanker(base, checkpoint_every=2)

    def test_negative_every_rejected(self, stream, tmp_path):
        base, _ = stream
        with pytest.raises(ConfigError, match="checkpoint_every"):
            LiveRanker(base, checkpoint_dir=tmp_path,
                       checkpoint_every=-1)

    def test_keep_must_be_positive(self, stream, tmp_path):
        base, _ = stream
        with pytest.raises(ConfigError, match="checkpoint_keep"):
            LiveRanker(base, checkpoint_dir=tmp_path, checkpoint_keep=0)

    def test_explicit_checkpoint_needs_directory(self, stream):
        base, _ = stream
        with pytest.raises(ConfigError, match="no checkpoint_dir"):
            LiveRanker(base).checkpoint()


class TestRotation:
    def test_auto_checkpoint_every_batch_keeps_newest_k(self, stream,
                                                        tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_every=1, checkpoint_keep=2)
        for batch in batches[:4]:
            live.apply(batch)
        names = [p.name for p in checkpoint_rotations(tmp_path)]
        assert names == ["ckpt-00000004", "ckpt-00000003"]

    def test_every_n_skips_intermediate_batches(self, stream, tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_every=2)
        for batch in batches[:3]:
            live.apply(batch)
        assert [p.name for p in checkpoint_rotations(tmp_path)] == \
            ["ckpt-00000002"]

    def test_zero_every_means_manual_only(self, stream, tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path)
        live.apply(batches[0])
        assert checkpoint_rotations(tmp_path) == []
        rotation = live.checkpoint()
        assert rotation.name == "ckpt-00000001"


class TestResume:
    def test_resume_continues_bit_identical(self, stream, tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_every=1)
        for batch in batches[:2]:
            live.apply(batch)

        resumed = LiveRanker.resume(tmp_path)
        assert resumed.batches_applied == 2
        assert np.array_equal(resumed.result.scores, live.result.scores)

        # Continue both sessions in lockstep: the resumed one must track
        # the uninterrupted one exactly.
        expected, _ = live.apply(batches[2])
        actual, _ = resumed.apply(batches[2])
        assert np.array_equal(actual.scores, expected.scores)
        assert np.array_equal(actual.node_ids, expected.node_ids)

    def test_resume_skips_corrupt_newest_rotation(self, stream,
                                                  tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_every=1, checkpoint_keep=3)
        for batch in batches[:2]:
            live.apply(batch)
        newest = checkpoint_rotations(tmp_path)[0]
        with open(newest / "state.npz", "r+b") as handle:
            handle.truncate(32)

        resumed = LiveRanker.resume(tmp_path)
        assert resumed.batches_applied == 1  # fell back one rotation

    def test_resume_with_all_rotations_corrupt(self, stream, tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_every=1)
        live.apply(batches[0])
        for rotation in checkpoint_rotations(tmp_path):
            (rotation / "engine.json").unlink()
        with pytest.raises(StorageError, match="no intact checkpoint"):
            LiveRanker.resume(tmp_path)

    def test_resume_without_metadata(self, tmp_path):
        with pytest.raises(StorageError, match="live.json"):
            LiveRanker.resume(tmp_path)

    def test_resume_restores_checkpoint_settings(self, stream,
                                                 tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_every=1, checkpoint_keep=2)
        live.apply(batches[0])
        resumed = LiveRanker.resume(tmp_path)
        assert resumed._checkpoint_every == 1
        assert resumed._checkpoint_keep == 2
        # ... and keeps checkpointing: the next batch writes ckpt-2.
        resumed.apply(batches[1])
        assert checkpoint_rotations(tmp_path)[0].name == "ckpt-00000002"

    def test_resume_preserves_config(self, stream, tmp_path):
        from repro.core.model import RankerConfig

        base, batches = stream
        config = RankerConfig(theta=0.7, weight_venue=0.4)
        live = LiveRanker(base, config=config, checkpoint_dir=tmp_path,
                          checkpoint_every=1)
        live.apply(batches[0])
        resumed = LiveRanker.resume(tmp_path)
        assert resumed.config == config


class TestPruneBeforeSave:
    @pytest.mark.faults
    def test_crash_mid_save_still_prunes_stale_backlog(self, stream,
                                                       tmp_path):
        from repro.resilience import FaultPlan, InjectedCrash

        base, batches = stream
        # Fabricate the debris of repeated crash-restart cycles: each
        # crashed predecessor saved a rotation but died before its
        # post-save prune, leaving a backlog beyond checkpoint_keep.
        for number in range(1, 6):
            stale = tmp_path / f"ckpt-{number:08d}"
            stale.mkdir(parents=True)
            (stale / "engine.json").write_text("{}")
        assert len(checkpoint_rotations(tmp_path)) == 5

        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_keep=2,
                          fault_plan=FaultPlan.of("write:crash:1"))
        for batch in batches[:2]:
            live.apply(batch)
        with pytest.raises(InjectedCrash):
            live.checkpoint()

        # The save crashed, but the pre-save prune already cleared the
        # backlog: at most keep survivors plus the torn new rotation.
        names = [p.name for p in checkpoint_rotations(tmp_path)]
        assert len(names) <= 3
        for number in range(1, 4):
            assert f"ckpt-{number:08d}" not in names

    def test_rotations_never_exceed_keep_after_checkpoint(self, stream,
                                                          tmp_path):
        base, batches = stream
        for number in range(1, 6):
            stale = tmp_path / f"ckpt-{number:08d}"
            stale.mkdir(parents=True)
            (stale / "engine.json").write_text("{}")

        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_keep=2)
        for batch in batches[:2]:
            live.apply(batch)
        live.checkpoint()
        assert len(checkpoint_rotations(tmp_path)) == 2
