"""Engine checkpoint save/load tests."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.core.time_weight import linear_decay
from repro.engine.incremental import IncrementalEngine
from repro.engine.state import load_engine, save_engine
from repro.engine.updates import fraction_update


@pytest.fixture(scope="module")
def engine(small_dataset):
    base, batch = fraction_update(small_dataset, 0.05)
    engine = IncrementalEngine(base, delta_threshold=1e-3)
    engine.apply(batch)
    return engine


class TestRoundTrip:
    def test_scores_and_graph_preserved(self, engine, tmp_path):
        save_engine(engine, tmp_path / "ckpt")
        loaded = load_engine(tmp_path / "ckpt")
        assert np.allclose(loaded.scores, engine.scores)
        assert loaded.graph.num_nodes == engine.graph.num_nodes
        assert loaded.graph.num_edges == engine.graph.num_edges
        assert loaded.dataset.num_articles == engine.dataset.num_articles
        assert loaded.damping == engine.damping
        assert loaded.delta_threshold == engine.delta_threshold

    def test_loaded_engine_continues(self, small_dataset, tmp_path):
        base, batch = fraction_update(small_dataset, 0.10)
        half = fraction_update(base, 0.05)
        bootstrap, first_batch = half
        engine = IncrementalEngine(bootstrap, delta_threshold=1e-3)
        engine.apply(first_batch)
        save_engine(engine, tmp_path / "ckpt")

        loaded = load_engine(tmp_path / "ckpt")
        report = loaded.apply(batch)
        assert report.converged
        assert loaded.dataset.num_articles == small_dataset.num_articles
        # Continuing from the checkpoint matches continuing in-process.
        engine.apply(batch)
        assert np.allclose(loaded.scores, engine.scores)

    def test_no_initial_resolve_on_load(self, engine, tmp_path,
                                        monkeypatch):
        save_engine(engine, tmp_path / "ckpt")
        import repro.engine.incremental as incremental_module

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("load must not re-solve")

        monkeypatch.setattr(incremental_module,
                            "time_weighted_pagerank", boom)
        loaded = load_engine(tmp_path / "ckpt")
        assert len(loaded.scores) == engine.graph.num_nodes


class TestErrors:
    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(StorageError, match="no engine checkpoint"):
            load_engine(tmp_path / "nowhere")

    def test_custom_kernel_rejected(self, small_dataset, tmp_path):
        base, _ = fraction_update(small_dataset, 0.05)
        engine = IncrementalEngine(base, decay=linear_decay(20.0))
        save_engine(engine, tmp_path / "ckpt")
        with pytest.raises(StorageError, match="non-exponential"):
            load_engine(tmp_path / "ckpt")

    def test_bad_version(self, engine, tmp_path):
        save_engine(engine, tmp_path / "ckpt")
        config = (tmp_path / "ckpt" / "engine.json")
        config.write_text(config.read_text().replace(
            '"format_version": 3', '"format_version": 99'))
        with pytest.raises(StorageError, match="unsupported"):
            load_engine(tmp_path / "ckpt")
