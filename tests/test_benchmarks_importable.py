"""Every benchmark and example module must import cleanly (catches
bit-rot early).

The benchmark suite runs separately (`pytest benchmarks/
--benchmark-only`) and the examples run by hand; this smoke test keeps
them from silently breaking when library APIs move — an import failure
here fails the *unit* suite.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted((ROOT / "benchmarks").glob("bench_*.py"))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _import(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", BENCHMARKS,
                         ids=[p.stem for p in BENCHMARKS])
def test_benchmark_module_imports(path):
    module = _import(path, path.stem)
    # Each benchmark must define at least one pytest-discoverable test.
    assert any(name.startswith("test_") for name in dir(module))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_module_imports(path):
    # Examples keep their work behind ``if __name__ == "__main__"``, so
    # importing under another name only resolves their imports.
    module = _import(path, f"example_{path.stem}")
    assert callable(module.main)


def test_all_experiments_have_benchmarks():
    """DESIGN.md's experiment index and the benchmark files must agree."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    stems = {p.stem for p in BENCHMARKS}
    for experiment in range(1, 13):
        matching = [stem for stem in stems
                    if stem.startswith(f"bench_e{experiment}_")]
        assert matching, f"no benchmark file for experiment E{experiment}"
        assert matching[0] in design, \
            f"{matching[0]} not referenced in DESIGN.md"
