"""Diff two RunReport JSON artifacts and flag perf regressions.

Usage::

    python benchmarks/compare.py BASELINE.json CANDIDATE.json \
        [--threshold 0.2]

Compares, section by section, everything two reports both measured:

* ``timings`` — per-stage wall-clock seconds;
* scalar numeric entries of ``metrics``;
* ``PerfArtifact`` records (``metrics["records"]``), matched by
  position within each label group, numeric field by numeric field.

A *regression* is a candidate value more than ``threshold`` (default
20%) above the baseline; the exit code is 1 when any stage regressed,
so CI can gate on it. With one or more ``--hard-prefix PREFIX``
options, only regressions whose key starts with a given prefix are
fatal — the rest are reported as *soft* and don't affect the exit
code. That lets CI hard-fail on deterministic measurements (e.g.
``metrics/bytes_``) while tolerating noisy ones (``timings/``) on
shared runners. A hard gate must gate something: a prefix that matches
no key both reports share, or a baseline key under a prefix that the
candidate no longer reports (a renamed metric), exits 1 too.
Improvements are reported too, never fatal.
Values too small to time reliably (< 1 ms) are skipped — their ratios
are noise. Works across format versions: v1 artifacts simply have
fewer sections to compare.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.report import RunReport

#: Below this many seconds a timing ratio is noise, not signal.
MIN_COMPARABLE_SECONDS = 1e-3


@dataclass
class Delta:
    """One measurement present in both reports."""

    key: str
    baseline: float
    candidate: float

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.candidate > 0 else 1.0
        return self.candidate / self.baseline

    @property
    def change(self) -> float:
        """Relative change: +0.25 means 25% slower/larger."""
        return self.ratio - 1.0


@dataclass
class Comparison:
    """Everything two reports both measured, split by verdict."""

    regressions: List[Delta]
    improvements: List[Delta]
    unchanged: List[Delta]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _numeric_items(payload: Dict[str, object]) -> Iterator[
        Tuple[str, float]]:
    for key, value in payload.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            yield str(key), float(value)


def _record_series(report: Dict[str, object]) -> Iterator[
        Tuple[str, float]]:
    """PerfArtifact records flattened to comparable keys.

    Records are matched by position *within their label group*, so two
    runs of the same benchmark script line up row for row.
    """
    records = report.get("metrics", {}).get("records", [])
    if not isinstance(records, list):
        return
    position: Dict[str, int] = {}
    for record in records:
        if not isinstance(record, dict):
            continue
        label = str(record.get("label", "record"))
        index = position.get(label, 0)
        position[label] = index + 1
        for key, value in _numeric_items(record):
            if key == "label":
                continue
            yield f"records/{label}[{index}].{key}", value


def _measurements(report: Dict[str, object]) -> Dict[str, float]:
    measurements: Dict[str, float] = {}
    for stage, seconds in _numeric_items(report.get("timings", {})):
        if seconds >= MIN_COMPARABLE_SECONDS:
            measurements[f"timings/{stage}"] = seconds
    for key, value in _numeric_items(report.get("metrics", {})):
        measurements[f"metrics/{key}"] = value
    for key, value in _record_series(report):
        measurements[key] = value
    return measurements


def compare_reports(baseline: Dict[str, object],
                    candidate: Dict[str, object],
                    threshold: float = 0.2) -> Comparison:
    """Classify every measurement both reports share."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    base = _measurements(baseline)
    cand = _measurements(candidate)
    comparison = Comparison([], [], [])
    for key in sorted(set(base) & set(cand)):
        delta = Delta(key, base[key], cand[key])
        if delta.change > threshold:
            comparison.regressions.append(delta)
        elif delta.change < -threshold:
            comparison.improvements.append(delta)
        else:
            comparison.unchanged.append(delta)
    comparison.regressions.sort(key=lambda d: d.change, reverse=True)
    return comparison


def split_regressions(comparison: Comparison,
                      hard_prefixes: Optional[Sequence[str]]
                      ) -> Tuple[List[Delta], List[Delta]]:
    """Split regressions into (hard, soft) under the prefix gate.

    Without prefixes every regression is hard (the historical
    behavior); with prefixes only matching keys are.
    """
    if not hard_prefixes:
        return list(comparison.regressions), []
    hard = [delta for delta in comparison.regressions
            if any(delta.key.startswith(prefix)
                   for prefix in hard_prefixes)]
    soft = [delta for delta in comparison.regressions
            if delta not in hard]
    return hard, soft


def ungated(baseline: Dict[str, object], candidate: Dict[str, object],
            hard_prefixes: Optional[Sequence[str]]) -> List[str]:
    """Hard gates that compare nothing: each prefix matching no shared
    key, and each baseline key under a prefix the candidate lacks."""
    base = _measurements(baseline)
    cand = _measurements(candidate)
    shared = set(base) & set(cand)
    problems = []
    for prefix in hard_prefixes or ():
        problems += [f"{key} (missing from the candidate)"
                     for key in sorted(base)
                     if key.startswith(prefix) and key not in cand]
        if not any(key.startswith(prefix) for key in shared):
            problems.append(f"{prefix} (matches no shared key)")
    return problems


def render(comparison: Comparison, baseline_name: str,
           candidate_name: str, threshold: float,
           hard_prefixes: Optional[Sequence[str]] = None) -> str:
    lines = [f"# compare: {baseline_name} -> {candidate_name} "
             f"(threshold {threshold:.0%})"]
    _, soft = split_regressions(comparison, hard_prefixes)
    soft_keys = {delta.key for delta in soft}

    def _row(delta: Delta, verdict: str) -> str:
        return (f"{verdict:<12} {delta.key:<44} "
                f"{delta.baseline:>12.6g} -> {delta.candidate:>12.6g}  "
                f"({delta.change:+.1%})")

    for delta in comparison.regressions:
        verdict = "regr (soft)" if delta.key in soft_keys \
            else "REGRESSION"
        lines.append(_row(delta, verdict))
    for delta in comparison.improvements:
        lines.append(_row(delta, "improvement"))
    for delta in comparison.unchanged:
        lines.append(_row(delta, "ok"))
    if not (comparison.regressions or comparison.improvements
            or comparison.unchanged):
        lines.append("(the reports share no comparable measurements)")
    lines.append(f"{len(comparison.regressions)} regression(s), "
                 f"{len(comparison.improvements)} improvement(s), "
                 f"{len(comparison.unchanged)} unchanged")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two RunReport JSON files; exit 1 on any "
                    "regression beyond the threshold.")
    parser.add_argument("baseline", help="baseline report (JSON)")
    parser.add_argument("candidate", help="candidate report (JSON)")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="relative regression gate (0.2 = 20%%)")
    parser.add_argument("--hard-prefix", action="append",
                        dest="hard_prefixes", metavar="PREFIX",
                        help="only regressions whose key starts with "
                             "this prefix are fatal (repeatable); "
                             "others are reported as soft")
    args = parser.parse_args(argv)
    baseline = RunReport.load(args.baseline)
    candidate = RunReport.load(args.candidate)
    comparison = compare_reports(baseline, candidate,
                                 threshold=args.threshold)
    try:
        print(render(comparison,
                     str(baseline.get("name", args.baseline)),
                     str(candidate.get("name", args.candidate)),
                     args.threshold, args.hard_prefixes))
    except BrokenPipeError:  # downstream pager/head closed the pipe
        try:
            sys.stdout.close()
        except OSError:
            pass
    hard, _ = split_regressions(comparison, args.hard_prefixes)
    missing = ungated(baseline, candidate, args.hard_prefixes)
    for problem in missing:
        print(f"UNGATED      {problem}", file=sys.stderr)
    return 1 if hard or missing else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
