"""Record→served end-to-end benchmark (see README.md in this directory).

One command, ``python -m benchmarks.e2e``, drives the real stack
through its public API on five workloads, prints every end-to-end and
per-layer metric by name with its unit, checks the outputs, and exits
non-zero when a check fails. ``BENCHMARK.json`` at the repository root
is the machine-readable contract; :mod:`benchmarks.e2e.metrics` is the
same list in code and ``--check`` asserts the two agree.
"""
