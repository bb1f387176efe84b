"""Runner: one workload in this process, or the whole suite in children.

``--workload NAME`` runs one workload here — the invoking process *is*
the workload's fresh process, so peak RSS, allocator and GC state never
leak between workloads — and prints the contract's result object as the
last line of standard output. Without ``--workload`` every workload is
launched that way in its own child, sequentially, and the results are
gathered into one table (and ``--out`` file).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import metrics
from benchmarks.e2e.trace import TABLE, Recorder, instrument, resolve

ROOT = Path(__file__).resolve().parents[2]
#: scratch space inside the checkout (git-ignored), one dir per run.
WORK_DIR = ".e2e_work"
DEFAULT_SEED = 20180416
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
CHECK_SCALE_DIV = 20
CHECK_BUDGET_S = 30.0


def shm_segments() -> set:
    """Names of this program's segments currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro")}
    except FileNotFoundError:
        return set()


def descendants() -> List[int]:
    """Processes below this one, found through ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # ended while we were listing
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: List[int] = []
    frontier = {os.getpid()}
    while frontier:
        frontier = {pid for pid, parent in parents.items()
                    if parent in frontier and pid not in found}
        found.extend(frontier)
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has
    ended, so nothing outlives the run. The one that would is
    multiprocessing's resource tracker (started by the first
    ``SharedMemory``): it ignores SIGTERM and ends only when its pipe
    closes, normally *after* this process is gone. Anything else still
    alive after ``grace_s`` is killed."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # EOF: the tracker cleans up and exits
        tracker._fd = tracker._pid = None
    # A segment finalised while the interpreter shuts down would start
    # a second tracker just to tell it so.
    resource_tracker.register = resource_tracker.unregister = \
        lambda name, rtype: None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            reaped, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # every child has ended and been waited for
        if reaped:
            continue
        if time.monotonic() > deadline:
            for pid in descendants():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def layer_metrics(out, recorder: Recorder, write_window_s: float,
                  attributed_s: float) -> Dict[str, float]:
    """Every declared per-layer metric; a layer that did not run in
    this workload reports the 0 calls and 0 seconds it really had."""
    from benchmarks.e2e.workloads import percentile

    layer = {name: 0.0 for name, _, _ in metrics.per_layer()}
    totals = recorder.totals()
    for name, kind, spans in metrics.FROM_SPANS:
        field = 1 if kind == "self_s" else 0  # (calls, self seconds)
        layer[name] = sum(totals.get(span, (0, 0.0))[field]
                          for span in spans)
    counts = recorder.counts
    for name, value in counts.items():
        if name in layer:
            layer[name] = value
    applies = layer["engine.incremental.apply_calls"]
    if applies:
        layer["engine.incremental.affected_share"] = \
            counts["engine.incremental.affected_share_sum"] / applies
    quiet = [seconds for _, start, seconds, _ in out.reads
             if not any(start < end and begin < start + seconds
                        for begin, end in out.publishes)]
    if out.publishes:
        layer["serve.gateway.read_quiet_p95_ms"] = \
            percentile(quiet, 95) * 1e3
        layer["serve.gateway.read_stalled_share"] = \
            1.0 - len(quiet) / len(out.reads)
    layer["trace.unattributed_share"] = \
        1.0 - attributed_s / write_window_s
    layer["trace.spans"] = recorder.num_spans()
    layer.update(out.layer)
    return layer


def run_workload(args) -> int:
    """Set up, warm up, measure and verify one workload in-process."""
    from benchmarks.e2e.workloads import (WORKLOADS, Outcome, Run,
                                          percentile, tail_percentile)

    clock = time.perf_counter
    traced = bool(args.trace)
    recorder = Recorder(f"{args.workload}-{args.seed}-{os.getpid()}")
    if traced:
        instrument(recorder)
    work_root = Path.cwd() / WORK_DIR
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    segments_before = shm_segments()
    workload = WORKLOADS[args.workload](Run(
        seed=args.seed, seconds=args.seconds, scale_div=args.scale_div,
        workdir=workdir))
    out = Outcome()
    setup_times: List[float] = []
    try:
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.close()
            gc.collect()
            start = clock()
            workload.setup()
            setup_times.append(clock() - start)
        try:
            workload.warm_up()
            gc.collect()
            gc.freeze()
            recorder.enabled = traced
            start = clock()
            workload.measure(out)
            write_window_s = clock() - start
            attributed_s = recorder.root_seconds()
            workload.read_phase(out)
            window_s = clock() - start
            recorder.enabled = False
            workload.verify(out, traced)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = shm_segments() - segments_before
    out.check(not leaked, f"shm segments left behind: {sorted(leaked)}")
    out.layer["engine.shm.segments_leaked"] = len(leaked)

    read_seconds = [seconds for _, _, seconds, _ in out.reads]

    def over_read_chunks(statistic) -> float:
        return statistics.median(
            statistic(read_seconds[first:end], wall)
            for wall, first, end in out.read_chunks)

    served_tail = tail_percentile(len(out.served_ms))
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "served_p50_ms": statistics.median(out.served_ms),
        "served_tail_ms": percentile(out.served_ms, served_tail),
        "served_per_s": out.records / out.busy_s,
        "read_p50_ms": over_read_chunks(
            lambda chunk, wall: statistics.median(chunk)) * 1e3,
        "read_p95_ms": over_read_chunks(
            lambda chunk, wall: percentile(chunk, 95)) * 1e3,
        "read_qps": over_read_chunks(
            lambda chunk, wall: len(chunk) / wall),
    }
    if traced:
        values = layer_metrics(out, recorder, write_window_s,
                               attributed_s)
        units = {name: unit for name, unit, _ in metrics.per_layer()}
        if args.trace_out:
            recorder.dump(Path(args.trace_out), args.workload)
    else:
        values = end_to_end
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}

    correct = out.failed == 0
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={int(traced)} articles={workload.scale} "
          f"plan={out.info}")
    samples = {"served_p50_ms": len(out.served_ms),
               "served_tail_ms": f"{len(out.served_ms)} "
                                 f"(p{served_tail:g})",
               "read_p50_ms": len(read_seconds),
               "read_p95_ms": f"{len(read_seconds)} in "
                              f"{len(out.read_chunks)} chunks",
               "setup_s": len(setup_times)}
    for name, value in values.items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:44s} {value:16.6f} {units[name]}{count}")
    print(f"ops_total {out.attempted}  ops_failed {out.failed}  "
          f"top100_digest {out.top100_digest}")
    for failure in out.failures:
        print(f"FAILED: {failure}")
    if not correct:
        print("INVALID: a correctness check failed; the metrics above "
              "must not be compared")
    print("detail: " + json.dumps({
        "window_s": window_s, "write_window_s": write_window_s,
        "top100_digest": out.top100_digest, "plan": out.info,
        "articles": workload.scale, "samples": samples}))
    print(json.dumps({
        "correct": correct, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# suite mode: every workload in its own child process

def launch(workload: str, args, trace: int,
           trace_out: Optional[Path] = None,
           echo: bool = True) -> Dict[str, object]:
    """Run one workload in a fresh child; returns its parsed result."""
    command = [sys.executable, "-m", "benchmarks.e2e",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale-div", str(args.scale_div)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    started = time.perf_counter()
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, check=False)
    wall = time.perf_counter() - started
    if echo or child.returncode:
        sys.stdout.write(child.stdout)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 and not (lines
                                      and lines[-1].startswith("{")):
        raise SystemExit(f"{workload} (trace={trace}) exited "
                         f"{child.returncode} without a result")
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail: "):])
                  for line in lines if line.startswith("detail: "))
    return {"wall_s": wall, **result, **detail}


def run_set(args, echo: bool = True) -> Dict[str, object]:
    """One complete set: every workload untraced, then (``--trace``)
    traced, with the tracing overhead taken between the two windows."""
    run_set_result: Dict[str, object] = {}
    for workload, _ in metrics.WORKLOADS:
        entry = {"untraced": launch(workload, args, 0, echo=echo)}
        if args.trace:
            trace_out = None if args.trace_dir is None \
                else Path(args.trace_dir).resolve() / f"{workload}.json"
            traced = launch(workload, args, 1, trace_out, echo)
            traced["trace.overhead_share"] = \
                traced["window_s"] / entry["untraced"]["window_s"] - 1.0
            entry["traced"] = traced
        run_set_result[workload] = entry
    return run_set_result


#: Per-layer counts that two runs of one seed must reproduce exactly.
EXACT = re.compile(r"(_calls|\.affected_nodes|\.supersteps|\.batches|"
                   r"\.bytes_shipped_\w+|\.slots_built|\.iterations|"
                   r"\.sweeps|\.messages|\.local_iterations)$")
#: ...except what counts the reads of a window that is timed, not counted.
READ_DRIVEN = {"serve.shard.call_calls", "serve.merge.merge_calls"}


def disagreements(first: Dict, second: Dict) -> List[str]:
    """Where two sets of one commit and seed differ by more than the
    benchmark allows: bounds for end-to-end metrics, exact equality for
    digests, failures and deterministic work counts."""
    bounds = {name: (better, bound)
              for name, _, better, bound in metrics.END_TO_END}
    problems = []
    for workload, entry in first.items():
        other = second[workload]
        for mode, run in entry.items():
            twin = other[mode]
            for key in ("failed", "top100_digest"):
                if run[key] != twin[key]:
                    problems.append(f"{workload}/{mode} {key}: "
                                    f"{run[key]} vs {twin[key]}")
            for name, metric in run["metrics"].items():
                a, b = metric["value"], twin["metrics"][name]["value"]
                if name in bounds:
                    better, bound = bounds[name]
                    worse = b / a - 1.0 if better == "lower" \
                        else a / b - 1.0
                    if abs(worse) > bound:
                        problems.append(
                            f"{workload} {name}: {a:.4f} vs {b:.4f} "
                            f"({worse:+.1%}, bound {bound:.0%})")
                elif EXACT.search(name) and a != b and not (
                        workload == "read_churn_50k"
                        and name in READ_DRIVEN):
                    problems.append(f"{workload} {name}: {a} vs {b}")
    return problems


def run_suite(args) -> int:
    sets = [run_set(args) for _ in range(args.sets)]
    runs = [run for one in sets for entry in one.values()
            for run in entry.values()]
    problems = [problem for other in sets[1:]
                for problem in disagreements(sets[0], other)]
    print("\n== summary (last set) ==")
    for workload, entry in sets[-1].items():
        for mode, run in entry.items():
            print(f"-- {workload} [{mode}] correct={run['correct']} "
                  f"ops_total={run['attempted']} "
                  f"ops_failed={run['failed']} "
                  f"wall={run['wall_s']:.1f}s")
            for name, metric in run["metrics"].items():
                if mode == "untraced" or metric["value"]:
                    print(f"   {name:44s} {metric['value']:16.6f} "
                          f"{metric['unit']}")
            if mode == "traced":
                print(f"   {'trace.overhead_share':44s} "
                      f"{run['trace.overhead_share']:16.6f} ratio")
    for problem in problems:
        print(f"DISAGREE: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds,
            "scale_div": args.scale_div, "sets": sets,
            "disagreements": problems}, indent=1) + "\n")
    ok = all(run["correct"] for run in runs) and not problems
    return 0 if ok else 1


def check(args) -> int:
    """Harness invariants only, at 1/20 corpus and minimum repetition."""
    started = time.perf_counter()
    for module_name, path, _ in TABLE:
        resolve(module_name, path)  # raises if the program renamed it
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.contract(), \
        "BENCHMARK.json differs from benchmarks.e2e.metrics.contract()"
    args.seconds, args.scale_div, args.trace = 0.0, CHECK_SCALE_DIV, 1
    args.trace_dir = None
    results = run_set(args, echo=False)
    end_to_end = {name for name, _, _, _ in metrics.END_TO_END}
    per_layer = {name for name, _, _ in metrics.per_layer()}
    seen_non_zero = set()
    for workload, entry in results.items():
        for mode, declared in (("untraced", end_to_end),
                               ("traced", per_layer)):
            run = entry[mode]
            values = {name: metric["value"]
                      for name, metric in run["metrics"].items()}
            assert run["correct"] and run["failed"] == 0, \
                f"{workload}/{mode}: ops_failed={run['failed']}"
            assert run["attempted"] > 0, f"{workload}/{mode}: no ops"
            assert set(values) == declared, \
                f"{workload}/{mode}: {set(values) ^ declared}"
            assert all(NAME_PATTERN.match(name) for name in values)
            zero = {name for name in values if name in end_to_end
                    and not values[name] > 0}
            assert not zero, f"{workload}: end-to-end at 0: {zero}"
            seen_non_zero |= {name for name, value in values.items()
                              if value}
    #: 0 on a healthy run, or (blocks_skipped) on a graph this small.
    may_be_zero = {"ingest.pipeline.quarantined",
                   "ingest.pipeline.backpressure_pauses",
                   "serve.service.quarantined",
                   "engine.shm.segments_leaked",
                   "engine.blocks.blocks_skipped"}
    dead = per_layer - seen_non_zero - may_be_zero
    assert not dead, f"per-layer metrics 0 on every workload: {dead}"
    elapsed = time.perf_counter() - started
    assert elapsed < CHECK_BUDGET_S, f"--check took {elapsed:.1f}s"
    print(f"check ok: {len(results)} workloads, {len(TABLE)} "
          f"instrumented targets, {len(end_to_end)} end-to-end and "
          f"{len(per_layer)} per-layer metrics, {elapsed:.1f}s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload",
                        choices=[name for name, _ in metrics.WORKLOADS],
                        help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, help="record spans and report the "
                        "per-layer metrics")
    parser.add_argument("--trace-out", help="span file of a traced "
                        "--workload run (JSON)")
    parser.add_argument("--trace-dir", help="suite mode: directory for "
                        "one span file per workload")
    parser.add_argument("--sets", type=int, default=1,
                        help="suite mode: complete sets to run and "
                        "compare")
    parser.add_argument("--out", help="suite mode: write every set "
                        "here as JSON")
    parser.add_argument("--scale-div", type=int, default=1,
                        help="divide corpus sizes (harness checks only)")
    parser.add_argument("--check", action="store_true",
                        help="assert harness invariants at small scale")
    args = parser.parse_args(argv)
    try:
        if args.check:
            return check(args)
        if args.workload:
            return run_workload(args)
        return run_suite(args)
    finally:
        stop_children()
