"""Serving score board: seqlock publish/read across the shm segment."""

import numpy as np
import pytest

from repro.engine.shm import (SHARED_MEMORY_AVAILABLE, ScoreBoardReader,
                              ScoreBoardWriter)

pytestmark = pytest.mark.skipif(
    not SHARED_MEMORY_AVAILABLE,
    reason="multiprocessing.shared_memory unavailable")


@pytest.fixture()
def writer():
    board = ScoreBoardWriter(capacity=16)
    yield board
    board.close()


class TestPublish:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ScoreBoardWriter(capacity=0)

    def test_roundtrip_is_bit_identical(self, writer):
        ids = np.array([3, 1, 7], dtype=np.int64)
        scores = np.array([0.1, 0.7, 1 / 3], dtype=np.float64)
        writer.publish(ids, scores, epoch=0)
        reader = ScoreBoardReader(writer.layout)
        epoch, got_ids, got_scores = reader.read()
        assert epoch == 0
        assert np.array_equal(got_ids, ids)
        # Bit-exact: the serving tie order depends on it.
        assert got_scores.tobytes() == scores.tobytes()
        reader.close()

    def test_read_before_first_publish_raises(self, writer):
        reader = ScoreBoardReader(writer.layout)
        with pytest.raises(ValueError, match="no published epoch"):
            reader.read()
        reader.close()

    def test_epochs_must_be_consecutive(self, writer):
        ids = np.arange(3, dtype=np.int64)
        scores = np.ones(3)
        writer.publish(ids, scores, epoch=0)
        with pytest.raises(ValueError, match="consecutively"):
            writer.publish(ids, scores, epoch=2)

    def test_ids_are_append_only(self, writer):
        writer.publish(np.array([5, 2]), np.array([1.0, 2.0]), epoch=0)
        with pytest.raises(ValueError, match="append-only"):
            writer.publish(np.array([2, 5, 9]),
                           np.array([1.0, 2.0, 3.0]), epoch=1)
        # Extending the prefix is fine.
        writer.publish(np.array([5, 2, 9]),
                       np.array([1.0, 2.0, 3.0]), epoch=1)
        assert writer.epoch == 1

    def test_shrinking_rejected(self, writer):
        writer.publish(np.array([5, 2]), np.array([1.0, 2.0]), epoch=0)
        with pytest.raises(ValueError, match="append-only"):
            writer.publish(np.array([5]), np.array([1.0]), epoch=1)

    def test_capacity_enforced(self, writer):
        too_many = np.arange(17, dtype=np.int64)
        with pytest.raises(ValueError, match="capacity"):
            writer.publish(too_many, too_many.astype(float), epoch=0)

    def test_misaligned_arrays_rejected(self, writer):
        with pytest.raises(ValueError, match="aligned"):
            writer.publish(np.array([1, 2]), np.array([1.0]), epoch=0)

    def test_double_buffering_keeps_old_epoch_intact(self, writer):
        """Epoch e's buffer is untouched until e+2 — the seqlock
        window a reader's consistency check relies on."""
        writer.publish(np.array([1, 2]), np.array([1.0, 2.0]), epoch=0)
        reader = ScoreBoardReader(writer.layout)
        writer.publish(np.array([1, 2, 3]),
                       np.array([9.0, 8.0, 7.0]), epoch=1)
        epoch, ids, scores = reader.read()
        assert epoch == 1
        assert scores.tolist() == [9.0, 8.0, 7.0]
        reader.close()

    def test_close_is_idempotent(self):
        board = ScoreBoardWriter(capacity=4)
        board.close()
        board.close()


class TestFloat32Mode:
    """The float32 board option is gone; float64 is the only lane."""

    def test_float64_roundtrip_still_bit_exact(self):
        board = ScoreBoardWriter(capacity=4)
        try:
            scores = np.array([0.1, 1 / 3])
            board.publish(np.array([1, 2]), scores, epoch=0)
            reader = ScoreBoardReader(board.layout)
            _, _, got = reader.read()
            assert got.dtype == np.float64
            assert got.tobytes() == scores.tobytes()
            reader.close()
        finally:
            board.close()
