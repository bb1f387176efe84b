"""Streaming-ingest chaos CI smoke benchmark (small, fast, gated).

Runs :func:`repro.ingest.run_ingest_sim` with every fault class armed —
duplicate storm, mangled records, late citations, a source stall, a
transient source error, a flaky parser, a poison record, a mid-batch
worker kill with journal resume, and a torn journal tail — then writes
one ``RunReport`` with:

* ``metrics/records_lost`` / ``metrics/duplicates_applied`` — clean
  feed records missing from the final corpus, and records applied more
  than once. Both are multiset differences of article ids and citation
  pairs between the corpora (not pipeline counters) and deterministic:
  must stay 0;
* ``metrics/bit_identical`` / ``metrics/contract_held`` — whether the
  chaos run's final ranking is score-for-score identical to the
  fault-free single-batch run, and the combined verdict. Deterministic:
  must stay 1;
* ``metrics/quarantined`` / ``metrics/duplicates_skipped`` /
  ``metrics/batches_applied`` — run shape (deterministic for fixed
  arguments);
* ``metrics/freshness_max_records`` / ``metrics/peak_queue`` —
  arrival-to-visible lag (in records, a deterministic clock) and
  coalescer occupancy.

CI diffs the report against the committed baseline with::

    python benchmarks/compare.py benchmarks/baselines/ingest_smoke.json \
        OUT.json --hard-prefix metrics/records_lost \
        --hard-prefix metrics/duplicates_applied \
        --hard-prefix metrics/quarantined

so any increase in loss, double application, or quarantine volume
fails the build while shape drift is reported but soft. (``compare.py``
flags increases only; a ``bit_identical``/``contract_held`` drop to 0
is caught by this script's own self-check, which exits 2 before any
report is written.)

Regenerate the baseline (after an *intentional* change) by running this
script with ``--json`` pointed at the baseline path.

Named ``ingest_smoke.py`` (not ``bench_*.py``) on purpose: ``bench_*``
files are collected by pytest as benchmark suites; this is a
standalone script for CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.ingest import run_ingest_sim
from repro.resilience import FaultPlan

#: Every fault class the ingest sites take, armed in one run.
FAULTS = ("source:stall:10@0.001", "source:error:20", "parse:crash:30",
          "parse:crash:40x10", "ingest:crash:2", "partition:tear:0")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Small streaming-ingest chaos benchmark; writes a "
                    "RunReport for benchmarks/compare.py gating.")
    parser.add_argument("--json", required=True,
                        help="where to write the RunReport")
    parser.add_argument("--records", type=int, default=80,
                        help="synthetic feed length")
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args(argv)

    sim = run_ingest_sim(
        records=args.records, seed=args.seed,
        duplicate_every=7, mangle_every=11, cite_every=5,
        fault_plan=FaultPlan.of(*FAULTS))
    print(sim.render())

    if sim.status != "ok":
        print(f"FATAL: run {sim.status}: {sim.error}",
              file=sys.stderr)
        return 2
    if not (sim.crashed and sim.resumed):
        print("FATAL: the scripted mid-batch crash (or the journal "
              "resume) never happened — the chaos run tested nothing",
              file=sys.stderr)
        return 2
    if not sim.contract_held:
        print(f"FATAL: delivery contract violated "
              f"(records_lost={sim.metrics.get('records_lost')}, "
              f"duplicates_applied="
              f"{sim.metrics.get('duplicates_applied')}, "
              f"bit_identical={sim.metrics.get('bit_identical')})",
              file=sys.stderr)
        return 2

    print(f"wrote {sim.to_report().save(args.json)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
