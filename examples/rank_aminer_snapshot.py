"""Rank a real AMiner citation dump (or a generated stand-in).

Usage:
    python examples/rank_aminer_snapshot.py [path/to/aminer.txt]

Without an argument, the script writes a small AMiner-format file from
the synthetic generator first, so the full pipeline — parse the AMiner
text format, persist as JSONL, reload, rank, compare against baselines —
runs end-to-end offline. Point it at a genuine ``DBLP-Citation-network``
dump and the identical code ranks the real corpus.
"""

import sys
import tempfile
from pathlib import Path

from repro import ArticleRanker
from repro.data.aminer import parse_aminer, write_aminer
from repro.data.generator import aminer_like_config, generate_dataset
from repro.data.io import load_dataset_jsonl, save_dataset_jsonl
from repro.ranking import citation_count, pagerank


def ensure_input(argv) -> Path:
    if len(argv) > 1:
        return Path(argv[1])
    path = Path(tempfile.gettempdir()) / "aminer_demo.txt"
    print(f"no input given — writing a synthetic AMiner file to {path}")
    dataset = generate_dataset(aminer_like_config(scale=8_000))
    write_aminer(dataset, path)
    return path


def main() -> None:
    path = ensure_input(sys.argv)
    dataset = parse_aminer(path)
    problems = dataset.validate()
    print(f"parsed {dataset.num_articles} articles "
          f"({dataset.num_citations} resolvable citations, "
          f"{len(problems)} schema problems)")

    # Persist once; re-ranking later skips the parse.
    snapshot_path = Path(tempfile.gettempdir()) / "aminer_demo.jsonl"
    save_dataset_jsonl(dataset, snapshot_path)
    dataset = load_dataset_jsonl(snapshot_path)
    print(f"saved and reloaded the snapshot via {snapshot_path}")

    result = ArticleRanker().rank(dataset)
    graph = dataset.citation_csr()
    ids = [int(i) for i in graph.node_ids]
    pr_top = sorted(zip(ids, pagerank(graph).scores),
                    key=lambda p: -p[1])[:5]
    print("\npagerank top-5 ids: "
          f"{[article_id for article_id, _ in pr_top]}")

    print("\nmodel top-5 vs citation-count top-5:")
    counts = citation_count(graph)
    count_top = sorted(zip(ids, counts), key=lambda p: -p[1])[:5]
    for (m_id, m_score), (c_id, c_count) in zip(result.top(5), count_top):
        m_title = dataset.articles[m_id].title[:32]
        c_title = dataset.articles[c_id].title[:32]
        print(f"  {m_score:.4f} {m_title:<34} || "
              f"{c_count:6.0f} {c_title}")


if __name__ == "__main__":
    main()
