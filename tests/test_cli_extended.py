"""Tests for the extended CLI commands (top / venues / authors)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.jsonl"
    assert main(["generate", str(path), "--articles", "600",
                 "--venues", "8", "--authors", "150", "--seed", "4"]) == 0
    return path


class TestTop:
    def test_global(self, dataset_path, capsys):
        assert main(["top", str(dataset_path), "--top", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].lstrip().startswith("1")

    def test_year_filter(self, dataset_path, capsys):
        assert main(["top", str(dataset_path), "--top", "5",
                     "--years", "2000-2005"]) == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            year = int(line.split("[")[1][:4])
            assert 2000 <= year <= 2005

    def test_venue_filter(self, dataset_path, capsys):
        assert main(["top", str(dataset_path), "--top", "3",
                     "--venue", "0"]) == 0

    def test_bad_years(self, dataset_path, capsys):
        assert main(["top", str(dataset_path), "--years", "oops"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_match(self, dataset_path, capsys):
        assert main(["top", str(dataset_path), "--venue", "999"]) == 0
        assert "no articles match" in capsys.readouterr().out


class TestEntityCommands:
    def test_venues(self, dataset_path, capsys):
        assert main(["venues", str(dataset_path), "--top", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "Venue-" in lines[0]

    def test_authors(self, dataset_path, capsys):
        assert main(["authors", str(dataset_path), "--top", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "Author-" in lines[0]
