"""JSONL round-trip and parse-error tests."""

import pytest

from repro.errors import ParseError
from repro.data.io import load_dataset_jsonl, save_dataset_jsonl


class TestRoundTrip:
    def test_plain_jsonl(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset_jsonl(tiny_dataset, path)
        loaded = load_dataset_jsonl(path)
        assert loaded.name == tiny_dataset.name
        assert loaded.articles == tiny_dataset.articles
        assert loaded.venues == tiny_dataset.venues
        assert loaded.authors == tiny_dataset.authors

    def test_gzip_jsonl(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.jsonl.gz"
        save_dataset_jsonl(tiny_dataset, path)
        loaded = load_dataset_jsonl(path)
        assert loaded.articles == tiny_dataset.articles

    def test_generated_dataset_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "gen.jsonl"
        save_dataset_jsonl(small_dataset, path)
        loaded = load_dataset_jsonl(path)
        assert loaded.num_articles == small_dataset.num_articles
        assert loaded.num_citations == small_dataset.num_citations
        sample_id = next(iter(small_dataset.articles))
        assert loaded.articles[sample_id] == \
            small_dataset.articles[sample_id]


class TestParseErrors:
    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "dataset", "name": "x"}\nnot json\n')
        with pytest.raises(ParseError, match="bad.jsonl:2"):
            load_dataset_jsonl(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ParseError, match="unknown record kind"):
            load_dataset_jsonl(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "article", "id": 1}\n')
        with pytest.raises(ParseError, match="missing field"):
            load_dataset_jsonl(path)

    def test_blank_lines_tolerated(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset_jsonl(tiny_dataset, path)
        path.write_text(path.read_text() + "\n\n")
        loaded = load_dataset_jsonl(path)
        assert loaded.num_articles == tiny_dataset.num_articles


class TestUpdateRecords:
    """A dataset file followed by update records loads as the updated
    dataset — what lets a corpus file grow by appends."""

    def batch(self, dataset):
        from repro.data.schema import Article, Author, Venue
        from repro.engine.updates import UpdateBatch

        known_venue = next(iter(dataset.venues.values()))
        cited = sorted(dataset.articles)[0]
        citing = sorted(dataset.articles)[-1]
        assert cited not in dataset.articles[citing].references
        new_venue = Venue(id=900, name="new venue")
        new_author = Author(id=7000, name="new author")
        return UpdateBatch(
            articles=(Article(id=5000, title="arrival", year=2031,
                              venue_id=900, author_ids=(7000,),
                              references=(cited,)),),
            # What the corpus holds and what the batch repeats is
            # skipped, as apply_update skips it.
            venues=(known_venue, new_venue, new_venue),
            authors=(new_author, new_author),
            citations=((citing, cited), (citing, cited), (5000, cited)))

    def test_appended_update_loads_as_apply_update(self, tiny_dataset,
                                                   tmp_path):
        from repro.data.io import record_lines
        from repro.engine.updates import apply_update

        batch = self.batch(tiny_dataset)
        lines = list(record_lines(batch.venues, batch.authors,
                                  batch.articles, batch.citations,
                                  known=tiny_dataset))
        assert [line.split('"')[3] for line in lines] == [
            "venue", "author", "article", "cite", "cite", "cite"]
        path = tmp_path / "corpus.jsonl"
        save_dataset_jsonl(tiny_dataset, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(lines)
        loaded = load_dataset_jsonl(path)
        expected = apply_update(tiny_dataset, batch)
        assert list(loaded.articles.items()) == \
            list(expected.articles.items())
        assert list(loaded.venues.items()) == list(expected.venues.items())
        assert list(loaded.authors.items()) == \
            list(expected.authors.items())

    def test_cite_of_an_unknown_article_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "cite", "citing": 4, "cited": 2}\n')
        with pytest.raises(ParseError, match="unknown article 4"):
            load_dataset_jsonl(path)
