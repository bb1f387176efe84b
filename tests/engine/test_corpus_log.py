"""The append-only corpus log under live checkpoint rotations.

A rotation is ``state.npz`` (the engine's arrays, uncompressed) +
``engine.json`` + a manifest that pins a byte length and SHA-256 of
``corpus.jsonl.gz``; the corpus itself is read from that prefix. These
tests hold the format to its three promises: a load equals the live
engine at that batch, a crash at any write leaves the previous rotation
loadable and the log repairable by the next append, and a checkpoint
writes the batch's records plus the arrays, never the corpus.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.schema import Article, Author, ScholarlyDataset, Venue
from repro.engine.live import LiveRanker, checkpoint_rotations
from repro.engine.state import load_engine, verify_checkpoint
from repro.engine.updates import UpdateBatch, yearly_updates
from repro.errors import StorageError
from repro.resilience import FaultPlan, InjectedCrash

ENGINE_ARRAYS = ("scores", "years", "_edge_weights")
GRAPH_ARRAYS = ("indptr", "indices", "weights", "node_ids")


def engine_arrays(engine):
    """The seven arrays a rotation carries."""
    arrays = {name: getattr(engine, name) for name in ENGINE_ARRAYS}
    arrays.update({name: getattr(engine.graph, name)
                   for name in GRAPH_ARRAYS})
    return arrays


def assert_same_engine(loaded, dataset, arrays):
    assert list(loaded.dataset.articles.items()) == \
        list(dataset.articles.items())
    assert loaded.dataset.venues == dataset.venues
    assert loaded.dataset.authors == dataset.authors
    assert loaded.dataset.name == dataset.name
    for name, expected in arrays.items():
        actual = engine_arrays(loaded)[name]
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name


def pinned(rotation):
    """``(bytes, sha256)`` of the log prefix a rotation stands on."""
    corpus = json.loads(
        (rotation / "MANIFEST.json").read_text())["corpus"]
    assert corpus["path"] == "../corpus.jsonl.gz"
    return corpus["bytes"], corpus["sha256"]


def flip_byte(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="module")
def stream(small_dataset):
    """A base corpus and five arrival batches: new articles with the
    venues and authors they bring, plus — from the second batch on — a
    late citation between articles already in the corpus, delivered
    twice."""
    base, batches = yearly_updates(small_dataset, from_year=2010)
    batches = batches[:5]
    for index in range(1, len(batches)):
        citing = batches[index - 1].articles[0]
        cited = next(a for a in sorted(base.articles)
                     if a not in citing.references)
        batches[index] = replace(
            batches[index],
            citations=((citing.id, cited), (citing.id, cited)))
    return base, batches


def run_live(base, batches, root, **kwargs):
    """Apply ``batches`` with a rotation after each; returns the ranker
    and, per batch count, the dataset and arrays the engine held."""
    live = LiveRanker(base, checkpoint_dir=root, checkpoint_every=1,
                      checkpoint_keep=len(batches) + 1, **kwargs)
    held = {}
    for batch in batches:
        live.apply(batch)
        held[live.batches_applied] = (live.dataset,
                                      engine_arrays(live._engine))
    return live, held


# ----------------------------------------------------------------------
# layout and cost


class TestLayout:
    def test_root_holds_one_log_and_small_rotations(self, stream,
                                                    tmp_path):
        base, batches = stream
        run_live(base, batches[:3], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ckpt-00000001", "ckpt-00000002", "ckpt-00000003",
            "corpus.jsonl.gz", "live.json"]
        for rotation in checkpoint_rotations(tmp_path):
            assert sorted(p.name for p in rotation.iterdir()) == [
                "MANIFEST.json", "engine.json", "state.npz"]
        sizes = [pinned(r)[0]
                 for r in reversed(checkpoint_rotations(tmp_path))]
        assert sizes == sorted(set(sizes))  # prefixes strictly grow
        assert sizes[-1] == (tmp_path / "corpus.jsonl.gz").stat().st_size

    def test_every_rotation_loads_what_the_engine_held(self, stream,
                                                       tmp_path):
        base, batches = stream
        live, held = run_live(base, batches, tmp_path)
        for rotation in checkpoint_rotations(tmp_path):
            count = int(rotation.name[-8:])
            assert verify_checkpoint(rotation) == []
            loaded = load_engine(rotation)
            assert_same_engine(loaded, *held[count])
            for batch in batches[count:]:
                loaded.apply(batch)
            assert np.array_equal(loaded.scores, live._engine.scores)

    def test_checkpoint_cost_is_the_batch_plus_the_arrays(self, tmp_path):
        # The claim the format rests on, without a clock: the same
        # three batches append the same bytes to a 500- and a 2 000-
        # article corpus, and a rotation is the seven arrays (8 bytes
        # each per article or per citation) plus a constant.
        small = generate_dataset(GeneratorConfig(num_articles=500,
                                                 seed=3))
        large = generate_dataset(GeneratorConfig(num_articles=2000,
                                                 seed=3))
        cited = sorted(small.articles)[:12]
        assert all(a in large.articles for a in cited)
        batches = [UpdateBatch(
            articles=tuple(
                Article(id=100_000 + 10 * b + i, title=f"arrival {b}.{i}",
                        year=2030, venue_id=900 + b, author_ids=(7000 + b,),
                        references=tuple(cited[i::3]))
                for i in range(6)),
            venues=(Venue(id=900 + b, name=f"venue {b}"),),
            authors=(Author(id=7000 + b, name=f"author {b}"),),
            citations=((cited[-1], cited[b]),))
            for b in range(3)]

        appended, overhead, first = {}, {}, {}
        for name, corpus in (("small", small), ("large", large)):
            root = tmp_path / name
            live, _ = run_live(corpus, batches, root)
            sizes = [pinned(r)[0]
                     for r in reversed(checkpoint_rotations(root))]
            first[name] = sizes[0]
            appended[name] = [b - a for a, b in zip(sizes, sizes[1:])]
            for rotation in checkpoint_rotations(root):
                graph = load_engine(rotation).graph
                overhead.setdefault(name, []).append(
                    sum(p.stat().st_size for p in rotation.iterdir())
                    # scores, years, node_ids, indptr / indices, weights x2
                    - 8 * (4 * graph.num_nodes + 1 + 3 * graph.num_edges))
        assert appended["small"] == appended["large"]
        assert all(0 < size < 1024 for size in appended["small"])
        assert first["large"] > 2 * first["small"]  # only this grows
        # Only the digit counts of the pinned byte lengths may differ.
        for a, b in zip(overhead["small"], overhead["large"]):
            assert abs(a - b) <= 4

    def test_later_checkpoints_never_walk_the_corpus(self, stream,
                                                     tmp_path):
        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path)
        live.apply(batches[0])
        # The first checkpoint writes the dataset; nothing is held for it.
        assert live._unsaved == ()
        live.checkpoint()
        live.apply(batches[1])
        assert len(live._unsaved) == 1  # one entry per batch, not per line

        class Unwalkable(dict):
            def _refuse(self, *args):
                raise AssertionError("checkpoint iterated the corpus")
            __iter__ = keys = values = items = _refuse

        dataset = live._engine.dataset
        walkable = {name: getattr(dataset, name)
                    for name in ("articles", "venues", "authors")}
        for name, mapping in walkable.items():
            setattr(dataset, name, Unwalkable(mapping))
        rotation = live.checkpoint()
        assert rotation.name == "ckpt-00000002"
        for name, mapping in walkable.items():
            setattr(dataset, name, mapping)
        assert load_engine(rotation).dataset.articles == dataset.articles

    def test_no_checkpoint_dir_remembers_nothing(self, stream):
        base, batches = stream
        live = LiveRanker(base)
        live.apply(batches[0])
        assert live._unsaved == () and live._sealed is None


# ----------------------------------------------------------------------
# crashes and corruption

WRITES = ("corpus.jsonl.gz", "state.npz", "engine.json", "MANIFEST.json")


@pytest.mark.faults
class TestCrashAtEveryWrite:
    @pytest.mark.parametrize("write", range(len(WRITES)))
    def test_third_of_five_checkpoints_dies(self, stream, tmp_path,
                                            write):
        base, batches = stream
        clean, _ = run_live(base, batches, tmp_path / "clean")

        root = tmp_path / "crashed"
        plan = FaultPlan.of(f"write:crash:{2 * len(WRITES) + write + 1}")
        with pytest.raises(InjectedCrash, match=WRITES[write]):
            run_live(base, batches, root, fault_plan=plan)
        newest = checkpoint_rotations(root)[0]
        assert newest.name == "ckpt-00000002"
        sealed_bytes, _ = pinned(newest)
        log = root / "corpus.jsonl.gz"
        # The third append landed before anything could crash: it is an
        # orphaned tail no sealed rotation can see.
        assert log.stat().st_size > sealed_bytes
        assert verify_checkpoint(newest) == []

        resumed = LiveRanker.resume(root)
        assert resumed.batches_applied == 2
        reference, held = run_live(base, batches[:2], tmp_path / "two")
        assert_same_engine(resumed._engine, *held[2])
        assert np.array_equal(resumed.result.scores,
                              reference.result.scores)

        for batch in batches[2:]:
            resumed.apply(batch)
        rotations = checkpoint_rotations(root)
        assert [r.name for r in rotations][0] == "ckpt-00000005"
        assert all(verify_checkpoint(r) == [] for r in rotations)
        # The orphaned tail is gone: the log ends where rotation 5 says.
        assert log.stat().st_size == pinned(rotations[0])[0]
        assert not (root / ".ckpt-00000003.tmp").exists()
        assert np.array_equal(resumed.result.scores, clean.result.scores)
        assert np.array_equal(resumed.result.node_ids,
                              clean.result.node_ids)
        assert_same_engine(load_engine(rotations[0]), clean.dataset,
                           engine_arrays(clean._engine))


class TestLogDamage:
    @pytest.fixture()
    def root(self, stream, tmp_path):
        base, batches = stream
        run_live(base, batches[:3], tmp_path)
        return tmp_path

    def sizes(self, root):
        return [pinned(r)[0]
                for r in reversed(checkpoint_rotations(root))]

    def test_tail_torn_mid_line_past_every_rotation(self, stream, root):
        # A fourth append that died mid-write: half a gzip member.
        import gzip

        base, batches = stream
        log = root / "corpus.jsonl.gz"
        member = gzip.compress(b'{"kind": "article", "id": 99, "ti')
        with open(log, "ab") as handle:
            handle.write(member[:len(member) // 2])
        assert all(verify_checkpoint(r) == []
                   for r in checkpoint_rotations(root))
        resumed = LiveRanker.resume(root)
        assert resumed.batches_applied == 3
        resumed.apply(batches[3])
        newest = checkpoint_rotations(root)[0]
        assert newest.name == "ckpt-00000004"
        assert log.stat().st_size == pinned(newest)[0]
        assert verify_checkpoint(newest) == []

    def test_log_torn_inside_the_newest_prefix(self, root):
        _, second, third = self.sizes(root)
        with open(root / "corpus.jsonl.gz", "r+b") as handle:
            handle.truncate((second + third) // 2)
        newest, middle, _ = checkpoint_rotations(root)
        [problem] = verify_checkpoint(newest)
        assert "corpus log ../corpus.jsonl.gz" in problem
        assert f"manifest says {third}" in problem
        assert verify_checkpoint(middle) == []
        assert LiveRanker.resume(root).batches_applied == 2

    def test_bit_flip_between_two_prefixes_costs_one_rotation(
            self, root, capsys):
        _, second, third = self.sizes(root)
        flip_byte(root / "corpus.jsonl.gz", (second + third) // 2)
        newest, middle, oldest = checkpoint_rotations(root)
        [problem] = verify_checkpoint(newest)
        assert "corpus log ../corpus.jsonl.gz checksum mismatch" \
            in problem
        assert f"bytes [0, {third})" in problem
        assert verify_checkpoint(middle) == []
        assert verify_checkpoint(oldest) == []
        with pytest.raises(StorageError, match="corpus log"):
            load_engine(newest)

        assert main(["resume", str(root)]) == 0
        out = capsys.readouterr().out
        assert "ckpt-00000003: CORRUPT — corpus log" in out
        assert "ckpt-00000002: ok" in out
        assert "resumed from ckpt-00000002" in out

    def test_bit_flip_in_the_shared_prefix_is_reported_by_all(
            self, root, capsys):
        first = self.sizes(root)[0]
        flip_byte(root / "corpus.jsonl.gz", first // 2)
        for rotation in checkpoint_rotations(root):
            [problem] = verify_checkpoint(rotation)
            assert "corpus log" in problem
            assert "checksum mismatch" in problem
        with pytest.raises(StorageError, match="no intact checkpoint"):
            LiveRanker.resume(root)
        assert main(["resume", str(root)]) == 1
        out = capsys.readouterr().out
        for number in (1, 2, 3):
            assert f"ckpt-0000000{number}: CORRUPT — corpus log" in out

    def test_missing_log_is_reported_by_name(self, root):
        (root / "corpus.jsonl.gz").unlink()
        [problem] = verify_checkpoint(checkpoint_rotations(root)[0])
        assert problem == "missing corpus log ../corpus.jsonl.gz"


# ----------------------------------------------------------------------
# rollback: a vetoed batch never reaches the log


@pytest.mark.serve
class TestVetoedBatch:
    @pytest.mark.parametrize("every", [0, 1])
    def test_rolled_back_batch_leaves_no_record(self, stream, tmp_path,
                                                every):
        # The serving tier applies a candidate batch to the shared
        # ranker and rolls the engine back when guardrails veto it. With
        # checkpoint_every=1 the vetoed batch even reached the log and a
        # rotation before the rollback; the next checkpoint must cut it
        # off again.
        from repro.serve.service import _EngineGuard

        base, batches = stream
        live = LiveRanker(base, checkpoint_dir=tmp_path,
                          checkpoint_every=every)
        live.apply(batches[0])
        live.checkpoint()
        guard = _EngineGuard(live)
        vetoed = replace(batches[2], citations=())
        live.apply(vetoed)  # the candidate the guardrails turn down
        guard.restore()
        live.apply(batches[1])
        rotation = live.checkpoint()
        assert rotation.name == "ckpt-00000002"
        assert verify_checkpoint(rotation) == []
        assert_same_engine(load_engine(rotation), live.dataset,
                           engine_arrays(live._engine))
        assert not set(a.id for a in batches[2].articles) \
            & set(load_engine(rotation).dataset.articles)


# ----------------------------------------------------------------------
# observability


@pytest.mark.obs
def test_checkpoints_export_seconds_bytes_and_records(stream, tmp_path):
    from repro.obs import Observability

    base, batches = stream
    obs = Observability("checkpoints")
    live = LiveRanker(base, checkpoint_dir=tmp_path, obs=obs,
                      checkpoint_every=1)
    for batch in batches[:3]:
        live.apply(batch)
    spans = [s for s in obs.tracer.finished if s.name == "live.checkpoint"]
    assert [s.attributes["batches"] for s in spans] == [1, 2, 3]
    # Update records appended: none by the first checkpoint, which
    # writes the corpus whole (its bytes say so), then each batch's.
    lines = [len(b.articles) + len(b.venues) + len(b.authors)
             + len(b.citations) for b in batches[:3]]
    assert [s.attributes["records"] for s in spans] == [0, *lines[1:]]
    on_disk = (tmp_path / "corpus.jsonl.gz").stat().st_size + sum(
        p.stat().st_size for r in checkpoint_rotations(tmp_path)
        for p in r.iterdir())
    assert sum(s.attributes["bytes"] for s in spans) == on_disk
    # The first checkpoint's log write carries the corpus; the others'
    # a batch.
    logged = [span.attributes["bytes"]
              - sum(p.stat().st_size for p in rotation.iterdir())
              for span, rotation
              in zip(spans, reversed(checkpoint_rotations(tmp_path)))]
    assert logged[0] > 5 * logged[1] > 0

    snapshot = obs.metrics.snapshot()
    assert snapshot["repro_checkpoints_total"]["values"][0]["value"] == 3
    assert snapshot["repro_checkpoint_bytes_total"]["values"][0][
        "value"] == on_disk
    seconds = snapshot["repro_checkpoint_seconds"]
    assert seconds["kind"] == "histogram"
    assert sum(seconds["values"][0]["counts"]) == 3


# ----------------------------------------------------------------------
# the property: a load is the live engine, whatever the stream did


@st.composite
def streams(draw):
    """A tiny corpus and its arrival batches.

    Ids are multiples of ten so a straggler (id 15) can arrive late and
    push the engine down its out-of-order full-rebuild path. References
    point anywhere: at earlier arrivals, at the article itself, at id 7,
    which never arrives, and at ids that arrive *later* — a reference
    that dangles on arrival, which the engine's append path drops and a
    rebuild from the corpus would resolve (see
    ``test_reference_that_dangled_on_arrival``).
    """
    total = draw(st.integers(min_value=5, max_value=14))
    order = [10 * (i + 1) for i in range(total)]
    if draw(st.booleans()):
        order.insert(draw(st.integers(min_value=3, max_value=total)), 15)
    articles = []
    for article_id in order:
        refs = draw(st.lists(st.sampled_from(order + [7]), max_size=4))
        articles.append(Article(
            id=article_id, title=f"t{article_id}",
            year=2000 + draw(st.integers(min_value=0, max_value=9)),
            venue_id=draw(st.sampled_from([None, 1, 2, 3])),
            author_ids=tuple(draw(st.lists(
                st.sampled_from([1, 2, 3, 4]), max_size=2, unique=True))),
            references=tuple(refs)))
    base_size = draw(st.integers(min_value=2, max_value=3))
    cuts = sorted(draw(st.sets(
        st.integers(min_value=base_size + 1, max_value=len(order) - 1),
        max_size=4)))
    bounds = [base_size] + cuts + [len(order)]

    def entities(group):
        venues = [Venue(id=a.venue_id, name=f"v{a.venue_id}")
                  for a in group if a.venue_id is not None]
        authors = [Author(id=i, name=f"a{i}")
                   for a in group for i in a.author_ids]
        return venues, authors

    base = ScholarlyDataset(name="property")
    venues, authors = entities(articles[:base_size])
    for venue in venues:
        base.venues.setdefault(venue.id, venue)
    for author in authors:
        base.authors.setdefault(author.id, author)
    for article in articles[:base_size]:
        base.add_article(article)

    batches = []
    for start, stop in zip(bounds, bounds[1:]):
        group = articles[start:stop]
        # Venues and authors are listed as a feed would: everything the
        # batch uses, known or not, repeats included.
        venues, authors = entities(group)
        present = order[:stop]
        pairs = draw(st.lists(
            st.tuples(st.sampled_from(present), st.sampled_from(present))
            .filter(lambda pair: pair[0] != pair[1]), max_size=3))
        if pairs and draw(st.booleans()):
            pairs.append(pairs[0])  # the same late cite, twice
        batches.append(UpdateBatch(
            articles=tuple(group), venues=tuple(venues),
            authors=tuple(authors), citations=tuple(pairs)))
    return base, batches


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(streams())
def test_every_rotation_is_the_live_engine_at_that_batch(stream):
    base, batches = stream
    with tempfile.TemporaryDirectory() as scratch:
        live, held = run_live(base, batches, Path(scratch))
        rotations = checkpoint_rotations(scratch)
        assert len(rotations) == len(batches)
        for rotation in rotations:
            count = int(rotation.name[-8:])
            assert verify_checkpoint(rotation) == []
            loaded = load_engine(rotation)
            assert_same_engine(loaded, *held[count])
            for batch in batches[count:]:
                loaded.apply(batch)
            assert np.array_equal(loaded.scores, live._engine.scores)
            assert list(loaded.dataset.articles.items()) == \
                list(live.dataset.articles.items())


def test_reference_that_dangled_on_arrival(tmp_path):
    """Why a rotation carries the graph instead of rebuilding it.

    Article 20 cites 30 before 30 exists. The engine's append path drops
    a reference that dangles on arrival and never revisits it, while a
    graph rebuilt from the corpus resolves it once 30 has arrived. A
    crash and resume must not change rankings, so a load hands back the
    graph the engine held, not the one a cold start would build.
    """
    base = ScholarlyDataset(name="forward")
    base.add_article(Article(id=10, title="a", year=2000))
    batches = [
        UpdateBatch(articles=(
            Article(id=20, title="b", year=2001, references=(10, 30)),)),
        UpdateBatch(articles=(
            Article(id=30, title="c", year=2002, references=(10,)),)),
        UpdateBatch(articles=(
            Article(id=40, title="d", year=2003, references=(20, 30)),))]
    live, held = run_live(base, batches, tmp_path)
    assert live.dataset.citation_csr().num_edges \
        == live._engine.graph.num_edges + 1  # 20→30 never entered

    resumed = LiveRanker.resume(tmp_path)
    assert resumed.batches_applied == 3
    assert_same_engine(resumed._engine, *held[3])
    middle = load_engine(tmp_path / "ckpt-00000002")
    assert_same_engine(middle, *held[2])
    middle.apply(batches[2])
    assert np.array_equal(middle.scores, live._engine.scores)
