"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands:
    generate  — synthesize a scholarly dataset and write it as JSONL.
    rank      — rank a dataset (JSONL/AMiner/MAG) and print the top-k.
    top       — filtered top-k (venue / author / year range).
    venues    — rank the dataset's venues.
    authors   — rank the dataset's authors.
    stats     — print citation-graph statistics of a dataset.
    evaluate  — rank a *synthetic* dataset and score it against its
                planted ground truth.
    profile   — rank a dataset with solver telemetry on and print the
                stage/iteration breakdown (optionally save JSON).
    trace     — run a ranking under span tracing and pretty-print the
                span tree with critical-path annotation.
    metrics   — run a ranking with the metrics registry attached and
                export it (Prometheus text exposition or JSON).
    resume    — inspect a live-ranker checkpoint directory (rotation
                health, manifest) and continue the session from the
                newest intact rotation.
    serve-load — drill the gateway (``--shards 1`` = the single-process
                tier) with arrival batches under concurrent readers,
                optionally crash/NaN-poisoning batches and shards
                (``--fault``): health timeline, QPS, latency, merge
                parity and the delivery contract.
    ingest-sim — drill the streaming-ingest pipeline (journal, dedup,
                backpressure, crash-resume) into the gateway from a
                synthetic record feed; ``--partitions K`` workers,
                ``--fault`` arms source/parse/ingest/partition faults.
    ingest-compact — archive (or delete) the sealed, cursor-covered
                segments of every partition journal under a journal
                root and report the bytes reclaimed.
    watch     — the serve-load drill printing a live health/SLO/
                freshness table per batch, or offline triage of an
                incident bundle (``--bundle``).

The three drills are one harness (:mod:`repro.drill`); ``--json``
saves its one artifact, a RunReport ``benchmarks/compare.py`` gates.

``profile`` and ``trace`` also accept ``--bundle PATH`` to render the
metrics / span tree frozen inside an incident bundle instead of running
anything; ``metrics --serve PORT`` exposes the registry over HTTP in
Prometheus text format.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.core.model import ArticleRanker, RankerConfig
from repro.data.aminer import parse_aminer
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.ground_truth import build_ground_truth
from repro.data.io import load_dataset_jsonl, save_dataset_jsonl
from repro.data.mag import parse_mag_directory
from repro.data.schema import ScholarlyDataset
from repro.eval.protocol import evaluate_ranking
from repro.graph.stats import compute_stats


def _load_any(path: str) -> ScholarlyDataset:
    """Load a dataset by sniffing the path type."""
    target = Path(path)
    if target.is_dir():
        return parse_mag_directory(target)
    if target.suffix in (".jsonl", ".gz") or target.name.endswith(
            ".jsonl.gz"):
        return load_dataset_jsonl(target)
    return parse_aminer(target)


def _add_ranker_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--damping", type=float, default=0.85)
    parser.add_argument("--prestige-decay", type=float, default=0.1,
                        help="lambda: TWPR edge time decay per year")
    parser.add_argument("--popularity-decay", type=float, default=0.4,
                        help="sigma: popularity decay per year")
    parser.add_argument("--theta", type=float, default=0.5,
                        help="prestige weight inside importance")
    parser.add_argument("--weights", type=str, default="0.6,0.25,0.15",
                        help="article,venue,author blend weights")


def _ranker_from_args(args: argparse.Namespace) -> ArticleRanker:
    try:
        w_article, w_venue, w_author = (float(part) for part
                                        in args.weights.split(","))
    except ValueError:
        raise ReproError(
            f"--weights must be three comma-separated floats, "
            f"got {args.weights!r}") from None
    config = RankerConfig(
        damping=args.damping, prestige_decay=args.prestige_decay,
        popularity_decay=args.popularity_decay, theta=args.theta,
        weight_article=w_article, weight_venue=w_venue,
        weight_author=w_author)
    return ArticleRanker(config)


def _command_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        num_articles=args.articles, num_venues=args.venues,
        num_authors=args.authors, start_year=args.start_year,
        end_year=args.end_year, seed=args.seed)
    dataset = generate_dataset(config)
    save_dataset_jsonl(dataset, args.output)
    print(f"wrote {dataset.num_articles} articles, "
          f"{dataset.num_citations} citations to {args.output}")
    return 0


def _command_rank(args: argparse.Namespace) -> int:
    dataset = _load_any(args.dataset)
    result = _ranker_from_args(args).rank(dataset)
    print(f"# top {args.top} of {dataset.num_articles} articles "
          f"({dataset.name})")
    for rank, (article_id, score) in enumerate(result.top(args.top),
                                               start=1):
        title = dataset.articles[article_id].title[:60]
        year = dataset.articles[article_id].year
        print(f"{rank:4d}  {score:.6f}  [{year}] {title}")
    return 0


def _command_top(args: argparse.Namespace) -> int:
    from repro.query import RankIndex

    dataset = _load_any(args.dataset)
    result = _ranker_from_args(args).rank(dataset)
    index = RankIndex(dataset, result.by_id())
    year_range = None
    if args.years:
        try:
            low, high = (int(part) for part in args.years.split("-"))
        except ValueError:
            raise ReproError(
                f"--years must look like 2005-2010, got {args.years!r}"
            ) from None
        year_range = (low, high)
    entries = index.top(args.top, venue_id=args.venue,
                        author_id=args.author, year_range=year_range)
    if not entries:
        print("(no articles match the filters)")
        return 0
    for entry in entries:
        print(f"{entry.rank:4d}  {entry.score:.6f}  [{entry.year}] "
              f"{entry.title[:60]}")
    return 0


def _command_venues(args: argparse.Namespace) -> int:
    from repro.core.entity_rank import EntityRanker

    dataset = _load_any(args.dataset)
    ranking = EntityRanker(_ranker_from_args(args).config).rank_venues(
        dataset)
    for position, (venue_id, score) in enumerate(
            ranking.top(args.top), start=1):
        print(f"{position:4d}  {score:.6f}  "
              f"{dataset.venues[venue_id].name}")
    return 0


def _command_authors(args: argparse.Namespace) -> int:
    from repro.core.entity_rank import EntityRanker

    dataset = _load_any(args.dataset)
    ranking = EntityRanker(_ranker_from_args(args).config).rank_authors(
        dataset)
    for position, (author_id, score) in enumerate(
            ranking.top(args.top), start=1):
        print(f"{position:4d}  {score:.6f}  "
              f"{dataset.authors[author_id].name}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    dataset = _load_any(args.dataset)
    graph = dataset.citation_csr()
    stats = compute_stats(graph, dataset.article_years(graph))
    print(f"# {dataset.name}")
    for key, value in stats.as_row().items():
        print(f"{key:>12}: {value}")
    print(f"{'venues':>12}: {dataset.num_venues}")
    print(f"{'authors':>12}: {dataset.num_authors}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    dataset = _load_any(args.dataset)
    truth = build_ground_truth(dataset, num_pairs=args.pairs,
                               seed=args.seed)
    result = _ranker_from_args(args).rank(dataset)
    report = evaluate_ranking(result.by_id(), truth)
    for key, value in report.as_row().items():
        print(f"{key:>12}: {value}")
    return 0


def _fault_spec(text: str):
    from repro.resilience import Fault

    try:
        return Fault.parse(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_fault_argument(command: argparse.ArgumentParser, *sites: str,
                        when=lambda args: True) -> None:
    """``--fault SPEC`` (repeatable) for a command that consults
    ``sites`` — only when ``when(args)``; ``main`` rejects the rest."""
    command.add_argument(
        "--fault", metavar="SPEC", type=_fault_spec, action="append",
        default=[],
        help=f"arm one injected fault, SITE:KIND:KEY[,KEY...][xTIMES]"
             f"[@VALUE] (sites: {', '.join(sites)}; repeatable; see the "
             f"drills table in docs/OPERATIONS.md)")
    command.set_defaults(
        fault_sites=lambda args: sites if when(args) else ())


def _fault_plan(args: argparse.Namespace):
    """The plan ``--fault`` armed, in flag order; ``None`` when none."""
    from repro.resilience import FaultPlan

    return FaultPlan.of(*args.fault) if args.fault else None


def _shm_mode(value: str):
    """CLI spelling -> engine flag (`on`/`off`/`auto`)."""
    return {"on": True, "off": False, "auto": "auto"}[value]


def _parallel_engine_from_args(args: argparse.Namespace, dataset,
                               fault_plan=None):
    from repro.engine.parallel import ParallelBlockEngine
    from repro.graph.partition import range_partition
    from repro.resilience import RetryPolicy

    graph = dataset.citation_csr()
    return ParallelBlockEngine(
        graph, range_partition(graph, args.blocks),
        num_workers=args.workers, fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_retries=2, base_delay=0.0),
        shared_memory=_shm_mode(args.shared_memory))


def _profile_parallel(args: argparse.Namespace, dataset) -> int:
    from repro.obs import RunReport, SolverTelemetry

    telemetry = SolverTelemetry()
    engine = _parallel_engine_from_args(args, dataset)
    start = time.perf_counter()
    result = engine.run(telemetry=telemetry)
    seconds = time.perf_counter() - start
    plane = "shared-memory" if engine.last_used_shared_memory \
        else "pickle"
    print(f"# profile: {dataset.name} ({dataset.num_articles} articles, "
          f"{dataset.num_citations} citations), engine=parallel "
          f"({plane}, {args.workers} workers, {args.blocks} blocks)")
    print(f"supersteps: {result.supersteps}, "
          f"converged={result.converged}, {seconds:.3f}s")
    print(f"bytes shipped over IPC: {telemetry.bytes_shipped}")
    for counter, value in sorted(telemetry.counters.items()):
        print(f"{counter}: {value:g}")

    if args.json:
        report = RunReport(f"profile-{dataset.name}",
                           telemetry=telemetry)
        report.record_metric("engine", "parallel")
        report.record_metric("shared_memory",
                             engine.last_used_shared_memory)
        report.record_metric("workers", args.workers)
        report.record_metric("blocks", args.blocks)
        report.record_metric("supersteps", result.supersteps)
        report.record_metric("bytes_shipped", telemetry.bytes_shipped)
        report.record_metric("run_seconds", seconds)
        print(f"wrote {report.save(args.json)}")
    return 0


def _load_bundle(path: str):
    from repro.obs import IncidentBundle

    try:
        return IncidentBundle.load(path)
    except (OSError, ValueError) as exc:
        raise ReproError(
            f"cannot load incident bundle {path}: {exc}") from exc


def _render_bundle(path: str) -> int:
    """Offline triage of an incident bundle (``profile``/``watch``)."""
    from repro.drill import freshness_line
    from repro.obs import SLOStatus, render_slo_table

    bundle = _load_bundle(path)
    print(bundle.render())
    if bundle.slo:
        print()
        print(render_slo_table([SLOStatus.from_dict(payload)
                                for payload in bundle.slo]))
    if bundle.metrics:
        print(f"\n# metrics ({len(bundle.metrics)} instruments)")
        for name in sorted(bundle.metrics):
            snap = bundle.metrics[name]
            kind = snap.get("kind")
            if kind == "histogram":
                total = sum(v.get("count", 0)
                            for v in snap.get("values", []))
                total_sum = sum(v.get("sum", 0.0)
                                for v in snap.get("values", []))
                mean = total_sum / total if total else 0.0
                print(f"{name}: histogram count={total} "
                      f"mean={mean:.6g}")
            else:
                total = sum(v.get("value", 0.0)
                            for v in snap.get("values", []))
                print(f"{name}: {kind} {total:g}")
        line = freshness_line(bundle.metrics)
        if line:
            print(line)
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    from repro.obs import RunReport, SolverTelemetry, StageTimings

    if args.bundle:
        return _render_bundle(args.bundle)
    if not args.dataset:
        raise ReproError("profile needs a dataset (or --bundle PATH)")
    dataset = _load_any(args.dataset)
    if args.engine == "parallel":
        return _profile_parallel(args, dataset)
    ranker = _ranker_from_args(args).with_config(solver=args.method)
    telemetry = SolverTelemetry()
    try:
        result = ranker.rank(dataset, telemetry=telemetry)
    except Exception as exc:
        # The report is the profiling artifact: a failed run still
        # leaves one behind (status "failed") so automation can see
        # what was measured before the failure.
        if args.json:
            report = RunReport(f"profile-{dataset.name}",
                               telemetry=telemetry)
            report.record_metric("status", "failed")
            report.record_metric("error",
                                 f"{type(exc).__name__}: {exc}")
            print(f"wrote {report.save(args.json)} (run failed)",
                  file=sys.stderr)
        raise

    timings = StageTimings()
    for stage, seconds in result.diagnostics.get("timings", {}).items():
        timings.add(stage, seconds)
    method = result.diagnostics.get("twpr_method", args.method)
    print(f"# profile: {dataset.name} ({dataset.num_articles} articles, "
          f"{dataset.num_citations} citations), solver={method}")
    print(timings.render("stage breakdown"))

    iterations = telemetry.iterations
    converged = result.diagnostics.get("twpr_converged")
    print(f"\ntwpr: {iterations} iteration(s), converged={converged}")
    residuals = telemetry.residuals
    if residuals:
        shown = residuals if len(residuals) <= 8 \
            else residuals[:4] + residuals[-3:]
        trajectory = "  ".join(f"{r:.3e}" for r in shown)
        if len(residuals) > 8:
            trajectory = trajectory.replace(
                f"{residuals[3]:.3e}  ", f"{residuals[3]:.3e}  ...  ", 1)
        print(f"residual trajectory: {trajectory}")
    for counter, value in sorted(telemetry.counters.items()):
        print(f"{counter}: {value:g}")

    if args.json:
        report = RunReport(f"profile-{dataset.name}", timings=timings,
                           telemetry=telemetry)
        report.record_metric("num_articles", dataset.num_articles)
        report.record_metric("num_citations", dataset.num_citations)
        report.record_metric("solver", method)
        report.record_metric("twpr_iterations", iterations)
        print(f"wrote {report.save(args.json)}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import Observability, render_trace

    if args.bundle:
        bundle = _load_bundle(args.bundle)
        print(render_trace(
            bundle.spans, title=f"incident: {bundle.trigger}"))
        return 0
    if not args.dataset:
        raise ReproError("trace needs a dataset (or --bundle PATH)")
    dataset = _load_any(args.dataset)
    with Observability(f"trace-{dataset.name}") as obs:
        if args.engine == "model":
            _ranker_from_args(args).rank(dataset, obs=obs)
        else:
            engine = _parallel_engine_from_args(
                args, dataset, fault_plan=_fault_plan(args))
            engine.run(obs=obs)
        print(render_trace(obs.tracer.export(),
                           title=f"trace: {dataset.name}"))
        if args.json:
            report = obs.report(f"trace-{dataset.name}")
            print(f"wrote {report.save(args.json)}")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from repro.obs import Observability

    dataset = _load_any(args.dataset)
    with Observability(f"metrics-{dataset.name}") as obs:
        _ranker_from_args(args).rank(dataset, obs=obs)
        text = obs.metrics.to_prometheus() if args.format == "prom" \
            else obs.metrics.to_json() + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    if args.serve is not None:
        from repro.obs import MetricsServer

        server = MetricsServer(obs.metrics, port=args.serve)
        print(f"serving {server.url} (Ctrl-C to stop)",
              file=sys.stderr)
        server.serve_forever()
    return 0


def _command_resume(args: argparse.Namespace) -> int:
    import json as json_module
    import random
    from itertools import islice

    from repro.drill import arrival_batches
    from repro.engine.live import LiveRanker, checkpoint_rotations
    from repro.engine.state import verify_checkpoint

    root = Path(args.checkpoint)
    rotations = checkpoint_rotations(root)
    if not rotations:
        raise ReproError(f"no checkpoint rotations under {root}")
    print(f"# checkpoint health: {root}")
    for rotation in rotations:
        problems = verify_checkpoint(rotation)
        print(f"{rotation.name}: "
              + ("ok" if not problems else f"CORRUPT — {problems[0]}"))

    live = LiveRanker.resume(root)
    used = root / f"ckpt-{live.batches_applied:08d}"
    manifest_path = used / "MANIFEST.json"
    if manifest_path.exists():
        manifest = json_module.loads(
            manifest_path.read_text(encoding="utf-8"))
        pinned = sorted(manifest.get("files", {}).items())
        if "corpus" in manifest:  # the log prefix, relative to `used`
            pinned.append((manifest["corpus"]["path"], manifest["corpus"]))
        for name, entry in pinned:
            print(f"  {used.name}/{name}: {entry['bytes']} bytes, "
                  f"sha256 {entry['sha256'][:12]}…")
    dataset = live.dataset
    print(f"resumed from {used.name}: {dataset.num_articles} articles, "
          f"{dataset.num_citations} citations, "
          f"batch count {live.batches_applied}")

    arrivals = arrival_batches(live.dataset, args.batch_size,
                               random.Random(args.seed))
    for batch in islice(arrivals, args.batches):
        _, report = live.apply(batch)
        print(f"applied batch {live.batches_applied}: affected "
              f"{report.affected.fraction:.1%} of "
              f"{report.num_nodes} nodes in "
              f"{report.iterations} iteration(s)")

    dataset = live.dataset
    print(f"# top {args.top} of {dataset.num_articles} articles")
    for rank, (article_id, score) in enumerate(live.result.top(args.top),
                                               start=1):
        article = dataset.articles[article_id]
        print(f"{rank:4d}  {score:.6f}  [{article.year}] "
              f"{article.title[:60]}")
    return 0


def _finish_drill(report, args: argparse.Namespace) -> int:
    """Print and save a drill's report; exit 1 unless it held."""
    from repro.drill import contract_held, render

    if args.command != "watch":
        print(render(report))
    # Written even for degraded/failed runs: a missing artifact in CI
    # must mean the command never ran, not that the drill broke.
    if getattr(args, "json", None):
        print(f"wrote {report.save(args.json)}")
    metrics = report.metrics
    if metrics["status"] == "failed":
        print(f"error: {args.command} run failed: {metrics['error']}",
              file=sys.stderr)
        return 1
    if not contract_held(report):
        print("error: delivery contract violated (loss, duplicate "
              "application, ranking divergence or merge mismatch)",
              file=sys.stderr)
        return 1
    return 0


def _command_serve_load(args: argparse.Namespace) -> int:
    from repro.drill import ArrivalFeed, run_drill

    report = run_drill(
        _load_any(args.dataset),
        ArrivalFeed(batches=args.batches, batch_size=args.batch_size,
                    shards=args.shards, mode=args.mode),
        readers=args.readers, queries=args.queries, top=args.top,
        fault_plan=_fault_plan(args), seed=args.seed,
        bundle_dir=Path(args.bundle_dir) if args.bundle_dir else None)
    return _finish_drill(report, args)


def _command_ingest_sim(args: argparse.Namespace) -> int:
    from repro.drill import RecordFeed, run_drill

    report = run_drill(
        _load_any(args.dataset) if args.dataset else None,
        RecordFeed(records=args.records,
                   duplicate_every=args.duplicate_every,
                   mangle_every=args.mangle_every,
                   cite_every=args.cite_every,
                   partitions=args.partitions, min_batch=args.min_batch,
                   max_batch=args.max_batch, max_queue=args.max_queue,
                   checkpoint_batches=args.checkpoint_batches,
                   segment_records=args.segment_records,
                   compaction=None if args.compaction == "off"
                   else args.compaction),
        fault_plan=_fault_plan(args), seed=args.seed,
        bundle_dir=Path(args.bundle_dir) if args.bundle_dir else None)
    return _finish_drill(report, args)


def _command_ingest_compact(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.ingest.journal import CURSOR_FILE, IngestJournal

    root = Path(args.journal)
    journal_dirs = sorted(path for path in root.glob("partition-*")
                          if path.is_dir())
    if not journal_dirs and (any(root.glob("segment-*"))
                             or (root / CURSOR_FILE).exists()):
        journal_dirs = [root]  # the path *is* a partition directory
    if not journal_dirs:
        # Opening would create an empty journal in place — an operator
        # pointing compaction at the wrong path must hear about it.
        print(f"error: no journal at {root} (expected partition-NNNN/ "
              f"directories or segment files)", file=sys.stderr)
        return 1
    totals: dict = {}
    for journal_dir in journal_dirs:
        with IngestJournal(journal_dir) as journal:
            report = journal.compact(retention=args.retention)
        print(f"{journal_dir.name}: {report.render()}")
        for key, value in report.as_metrics().items():
            totals[key] = totals.get(key, 0) + value
    if args.json:
        Path(args.json).write_text(
            json_module.dumps(totals, indent=2) + "\n",
            encoding="utf-8")
        print(f"wrote {args.json}")
    return 0


def _command_watch(args: argparse.Namespace) -> int:
    if args.bundle:
        # Offline triage: everything comes from the frozen bundle.
        return _render_bundle(args.bundle)
    if not args.dataset:
        raise ReproError("watch needs a dataset (or --bundle PATH)")

    from repro.drill import ArrivalFeed, freshness_line, run_drill
    from repro.obs import FlightRecorder, Observability, render_slo_table

    iterations = 1 if args.once else args.iterations
    dataset = _load_any(args.dataset)
    recorder = FlightRecorder(bundle_dir=args.bundle_dir)

    def _tick(drill, entry) -> None:
        for _ in range(args.queries):
            drill.gateway.top_sync(args.top)
        health = drill.gateway.health()
        recorder.record_health(health)
        statuses = drill.monitor.tick()
        tick = entry["tick"] + 1
        print(f"# watch tick {tick}/{iterations}: "
              f"status={health['status']} "
              f"board_epoch={health['board_epoch']} "
              f"degraded={list(health['degraded_shards'])}")
        print(render_slo_table(statuses))
        line = freshness_line(drill.obs.metrics.snapshot())
        if line:
            print(line)
        if tick < iterations and args.interval > 0:
            time.sleep(args.interval)

    report = run_drill(
        dataset, ArrivalFeed(batches=iterations,
                             batch_size=args.batch_size,
                             shards=args.shards),
        top=args.top, seed=args.seed, on_tick=_tick,
        obs=Observability(f"watch-{dataset.name}", recorder=recorder))
    for path in recorder.saved_paths:
        print(f"wrote {path}")
    return _finish_drill(report, args)


def _add_drill_arguments(command: argparse.ArgumentParser,
                         handler) -> None:
    command.add_argument("--seed", type=int, default=0)
    command.add_argument("--bundle-dir", type=str, default=None,
                         help="write incident bundles (a coordinator "
                              "crash, an SLO breach while a fault is "
                              "live) here")
    command.add_argument("--json", type=str, default=None,
                         help="also save the drill's RunReport as JSON "
                              "(benchmarks/compare.py gates it)")
    command.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query-independent scholarly article ranking")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a dataset to JSONL")
    generate.add_argument("output")
    generate.add_argument("--articles", type=int, default=10_000)
    generate.add_argument("--venues", type=int, default=50)
    generate.add_argument("--authors", type=int, default=3_000)
    generate.add_argument("--start-year", type=int, default=1990)
    generate.add_argument("--end-year", type=int, default=2015)
    generate.add_argument("--seed", type=int, default=7)
    generate.set_defaults(handler=_command_generate)

    rank = commands.add_parser(
        "rank", help="rank a dataset (JSONL / AMiner / MAG dir)")
    rank.add_argument("dataset")
    rank.add_argument("--top", type=int, default=20)
    _add_ranker_arguments(rank)
    rank.set_defaults(handler=_command_rank)

    top = commands.add_parser(
        "top", help="filtered top-k over the ranking")
    top.add_argument("dataset")
    top.add_argument("--top", type=int, default=10)
    top.add_argument("--venue", type=int, default=None,
                     help="restrict to one venue id")
    top.add_argument("--author", type=int, default=None,
                     help="restrict to one author id")
    top.add_argument("--years", type=str, default=None,
                     help="publication-year range, e.g. 2005-2010")
    _add_ranker_arguments(top)
    top.set_defaults(handler=_command_top)

    venues = commands.add_parser("venues", help="rank venues")
    venues.add_argument("dataset")
    venues.add_argument("--top", type=int, default=15)
    _add_ranker_arguments(venues)
    venues.set_defaults(handler=_command_venues)

    authors = commands.add_parser("authors", help="rank authors")
    authors.add_argument("dataset")
    authors.add_argument("--top", type=int, default=15)
    _add_ranker_arguments(authors)
    authors.set_defaults(handler=_command_authors)

    stats = commands.add_parser("stats", help="citation-graph statistics")
    stats.add_argument("dataset")
    stats.set_defaults(handler=_command_stats)

    evaluate = commands.add_parser(
        "evaluate", help="score a synthetic dataset against ground truth")
    evaluate.add_argument("dataset")
    evaluate.add_argument("--pairs", type=int, default=2_000)
    evaluate.add_argument("--seed", type=int, default=0)
    _add_ranker_arguments(evaluate)
    evaluate.set_defaults(handler=_command_evaluate)

    profile = commands.add_parser(
        "profile", help="rank with telemetry on; print the stage and "
                        "iteration breakdown")
    profile.add_argument("dataset", nargs="?", default=None)
    profile.add_argument("--bundle", type=str, default=None,
                         help="render the metrics frozen in an incident "
                              "bundle instead of running a ranking")
    profile.add_argument("--method", default="auto",
                         choices=["auto", "power", "levels"],
                         help="TWPR solver to profile")
    profile.add_argument("--engine", default="model",
                         choices=["model", "parallel"],
                         help="what to profile: the full ranking model "
                              "or the parallel block engine")
    profile.add_argument("--workers", type=int, default=2,
                         help="parallel engine worker count")
    profile.add_argument("--blocks", type=int, default=4,
                         help="parallel engine partition block count")
    profile.add_argument("--shared-memory", default="auto",
                         choices=["auto", "on", "off"],
                         help="parallel engine IPC data plane: "
                              "zero-copy shared memory, pickle, or "
                              "auto-detect")
    profile.add_argument("--json", type=str, default=None,
                         help="also save the report as JSON to this path")
    _add_ranker_arguments(profile)
    profile.set_defaults(handler=_command_profile)

    trace = commands.add_parser(
        "trace", help="run a ranking under span tracing and print the "
                      "span tree (critical path starred)")
    trace.add_argument("dataset", nargs="?", default=None)
    trace.add_argument("--bundle", type=str, default=None,
                       help="render the span tree frozen in an incident "
                            "bundle instead of running a ranking")
    trace.add_argument("--engine", default="model",
                       choices=["model", "parallel"],
                       help="what to trace: the full ranking model or "
                            "the parallel block engine")
    trace.add_argument("--workers", type=int, default=2,
                       help="parallel engine worker count")
    trace.add_argument("--blocks", type=int, default=4,
                       help="parallel engine partition block count")
    trace.add_argument("--shared-memory", default="auto",
                       choices=["auto", "on", "off"],
                       help="parallel engine IPC data plane: zero-copy "
                            "shared memory, pickle, or auto-detect")
    _add_fault_argument(
        trace, "worker",
        when=lambda args: args.engine == "parallel" and not args.bundle)
    trace.add_argument("--json", type=str, default=None,
                       help="also save the RunReport (spans + metrics) "
                            "to this path")
    _add_ranker_arguments(trace)
    trace.set_defaults(handler=_command_trace)

    metrics = commands.add_parser(
        "metrics", help="run a ranking with the metrics registry on "
                        "and export it")
    metrics.add_argument("dataset")
    metrics.add_argument("--format", default="prom",
                         choices=["prom", "json"],
                         help="Prometheus text exposition or JSON")
    metrics.add_argument("--output", type=str, default=None,
                         help="write to this path instead of stdout")
    metrics.add_argument("--serve", type=int, default=None,
                         metavar="PORT",
                         help="after the run, serve the registry over "
                              "HTTP in Prometheus text format "
                              "(0 = ephemeral port)")
    _add_ranker_arguments(metrics)
    metrics.set_defaults(handler=_command_metrics)

    watch = commands.add_parser(
        "watch", help="live health/SLO/freshness table from a small "
                      "inline gateway sim, or offline triage of an "
                      "incident bundle")
    watch.add_argument("dataset", nargs="?", default=None,
                       help="base corpus for the live sim")
    watch.add_argument("--bundle", type=str, default=None,
                       help="render a saved incident bundle instead of "
                            "running anything")
    watch.add_argument("--once", action="store_true",
                       help="exactly one tick (CI smoke)")
    watch.add_argument("--iterations", type=int, default=5,
                       help="ticks to run (ignored with --once)")
    watch.add_argument("--interval", type=float, default=0.0,
                       help="seconds to sleep between ticks")
    watch.add_argument("--shards", type=int, default=2)
    watch.add_argument("--batch-size", type=int, default=12,
                       help="synthetic arrival batch size per tick")
    watch.add_argument("--queries", type=int, default=10,
                       help="reads issued per tick")
    watch.add_argument("--top", type=int, default=10)
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument("--bundle-dir", type=str, default=None,
                       help="auto-save incident bundles here")
    watch.set_defaults(handler=_command_watch)

    resume = commands.add_parser(
        "resume", help="report a live checkpoint's health and continue "
                       "ranking from its newest intact rotation")
    resume.add_argument("checkpoint",
                        help="LiveRanker checkpoint rotation directory")
    resume.add_argument("--top", type=int, default=10)
    resume.add_argument("--batches", type=int, default=0,
                        help="apply N synthetic arrival batches after "
                             "resuming (continues auto-checkpointing)")
    resume.add_argument("--batch-size", type=int, default=20)
    resume.add_argument("--seed", type=int, default=0)
    resume.set_defaults(handler=_command_resume)

    serve_load = commands.add_parser(
        "serve-load", help="readers vs a faultable feed on the "
                           "serving gateway: health timeline, QPS, "
                           "merge parity; optional batch and "
                           "shard crash/poison faults")
    serve_load.add_argument("dataset")
    serve_load.add_argument("--shards", type=int, default=2,
                            help="partitions of the article id space "
                                 "(1 = the single-process tier)")
    serve_load.add_argument("--mode", choices=("inline", "process"),
                            default="inline",
                            help="shard deployment: same-process or "
                                 "one worker process per shard")
    serve_load.add_argument("--batches", type=int, default=4,
                            help="synthetic arrival batches to feed "
                                 "(each one is a full publish + shard "
                                 "refresh)")
    serve_load.add_argument("--batch-size", type=int, default=16)
    serve_load.add_argument("--readers", type=int, default=4,
                            help="concurrent reader threads")
    serve_load.add_argument("--queries", type=int, default=50,
                            help="queries each reader issues")
    serve_load.add_argument("--top", type=int, default=10,
                            help="k each reader requests")
    _add_fault_argument(serve_load, "batch", "shard")
    _add_drill_arguments(serve_load, _command_serve_load)

    ingest_sim = commands.add_parser(
        "ingest-sim", help="streaming-ingest chaos harness: journal, "
                           "dedup, backpressure, crash-resume; "
                           "verifies the delivery contract")
    ingest_sim.add_argument("dataset", nargs="?", default=None,
                            help="base corpus (default: a small "
                                 "generated one)")
    ingest_sim.add_argument("--records", type=int, default=80,
                            help="feed records to stream")
    ingest_sim.add_argument("--duplicate-every", type=int, default=0,
                            help="every n-th record re-delivers an "
                                 "earlier one (duplicate storm)")
    ingest_sim.add_argument("--mangle-every", type=int, default=0,
                            help="every n-th record is structurally "
                                 "broken (quarantine path)")
    ingest_sim.add_argument("--cite-every", type=int, default=0,
                            help="every n-th record is a late "
                                 "citation between existing articles")
    _add_fault_argument(ingest_sim, "source", "parse", "ingest",
                        "partition")
    ingest_sim.add_argument("--min-batch", type=int, default=8)
    ingest_sim.add_argument("--max-batch", type=int, default=32)
    ingest_sim.add_argument("--max-queue", type=int, default=48,
                            help="coalescer queue bound (backpressure "
                                 "kicks in at 75%% of this)")
    ingest_sim.add_argument("--checkpoint-batches", type=int,
                            default=1,
                            help="checkpoint + cursor commit cadence, "
                                 "in applied batches")
    ingest_sim.add_argument("--partitions", type=int, default=1,
                            help="run K partition workers with "
                                 "crash-isolated journals "
                                 "(default: 1)")
    ingest_sim.add_argument("--segment-records", type=int,
                            default=1024,
                            help="journal segment size in records "
                                 "(small values make archival "
                                 "observable in short runs)")
    ingest_sim.add_argument("--compaction",
                            choices=("off", "archive", "delete"),
                            default="off",
                            help="reclaim sealed cursor-covered "
                                 "journal segments after each commit")
    _add_drill_arguments(ingest_sim, _command_ingest_sim)

    ingest_compact = commands.add_parser(
        "ingest-compact", help="archive or delete the sealed, cursor-"
                               "covered segments of an ingest journal")
    ingest_compact.add_argument("journal",
                                help="journal root (every "
                                     "partition-NNNN directory under "
                                     "it is compacted) or one "
                                     "partition directory")
    ingest_compact.add_argument("--retention",
                                choices=("archive", "delete"),
                                default="archive",
                                help="move covered segments to "
                                     "archive/ (default) or delete "
                                     "them outright")
    ingest_compact.add_argument("--json", type=str, default=None,
                                help="also save the compaction report "
                                     "as JSON")
    ingest_compact.set_defaults(handler=_command_ingest_compact)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for fault in getattr(args, "fault", ()):
        if fault.site not in args.fault_sites(args):
            parser.error(f"--fault {fault}: repro {args.command} never "
                         f"consults the {fault.site!r} site here")
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
