"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the single handle engines record into.
Instruments are get-or-create (``registry.counter("x")`` twice returns
the same object), optionally labelled, and everything is plain Python —
no background threads, no sockets. Export paths:

* :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict (what
  :class:`repro.obs.report.RunReport` embeds);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format, suitable for the node-exporter *textfile collector* or a
  ``curl``-able file (``repro metrics --format prom``).

Metric and label names follow Prometheus rules and are validated at
registration so a bad name fails at the call site, not at scrape time.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds): spans per-iteration kernels up
#: to multi-minute batch runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: Buckets (seconds) for the arrival→served freshness histogram. Every
#: layer that observes ``repro_freshness_served_seconds`` must use
#: these — the registry is get-or-create, so the first caller's
#: buckets win and mismatched call sites would silently diverge.
FRESHNESS_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0)

#: The shared freshness histogram's name/help, for the same reason.
FRESHNESS_METRIC = "repro_freshness_served_seconds"
FRESHNESS_HELP = ("Wall-clock seconds from record arrival to the "
                  "apply/publish/refresh that made it visible, by stage.")

#: Label naming an ingest partition on per-partition instruments. A
#: single worker is partition "0" of 1, so dashboards written against
#: the label work unchanged at K=1.
PARTITION_LABEL = "partition"

#: Per-partition arrival→visible freshness, in *records* (deterministic
#: record-clock lag, one series per partition — a stalled partition
#: shows up as one hot series instead of skewing the global histogram).
PARTITION_FRESHNESS_METRIC = "repro_ingest_partition_visible_latency_records"
PARTITION_FRESHNESS_HELP = (
    "Records pulled between a record's arrival and the batch apply "
    "that made it visible, by ingest partition.")

#: Journal compaction counters (ISSUE: segment archival must be
#: observable). "Archived" counts segments moved out of the hot journal
#: tier — into ``archive/`` or deleted outright under retention.
SEGMENTS_ARCHIVED_METRIC = "repro_ingest_segments_archived"
SEGMENTS_ARCHIVED_HELP = (
    "Sealed journal segments reclaimed by compaction (moved to the "
    "archive tier or deleted under retention).")
SEGMENTS_RECLAIMED_METRIC = "repro_ingest_segments_reclaimed_bytes"
SEGMENTS_RECLAIMED_HELP = (
    "Bytes removed from the hot journal tier by compaction.")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``label="value"`` — an unescaped
    quote or newline silently corrupts the whole scrape.
    """
    return (value.replace("\\", r"\\")
            .replace('"', r'\"')
            .replace("\n", r"\n"))


class _Instrument:
    """Shared bookkeeping: name/help/label validation and label keying."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ConfigError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ConfigError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labels = tuple(labels)

    def _key(self, label_values: Dict[str, object]) -> Tuple[str, ...]:
        if set(label_values) != set(self.labels):
            raise ConfigError(
                f"metric {self.name!r} takes labels {self.labels}, "
                f"got {tuple(sorted(label_values))}")
        return tuple(str(label_values[label]) for label in self.labels)

    def _label_str(self, key: Tuple[str, ...],
                   extra: Optional[Tuple[str, str]] = None) -> str:
        pairs = list(zip(self.labels, key))
        if extra is not None:
            pairs.append(extra)
        if not pairs:
            return ""
        inner = ",".join(
            f'{label}="{_escape_label_value(value)}"'
            for label, value in pairs)
        return "{" + inner + "}"


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, value: float = 1.0, **label_values) -> None:
        if value < 0:
            raise ConfigError("counters can only increase")
        key = self._key(label_values)
        self._values[key] = self._values.get(key, 0.0) + float(value)

    def value(self, **label_values) -> float:
        return self._values.get(self._key(label_values), 0.0)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "help": self.help,
            "labels": list(self.labels),
            "values": [{"labels": dict(zip(self.labels, key)),
                        "value": value}
                       for key, value in self._values.items()],
        }

    def expose(self) -> List[str]:
        return [f"{self.name}{self._label_str(key)} {_format_value(value)}"
                for key, value in self._values.items()]


class Gauge(_Instrument):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **label_values) -> None:
        self._values[self._key(label_values)] = float(value)

    def inc(self, value: float = 1.0, **label_values) -> None:
        key = self._key(label_values)
        self._values[key] = self._values.get(key, 0.0) + float(value)

    def value(self, **label_values) -> float:
        return self._values.get(self._key(label_values), 0.0)

    snapshot = Counter.snapshot

    def expose(self) -> List[str]:
        return [f"{self.name}{self._label_str(key)} {_format_value(value)}"
                for key, value in self._values.items()]


class Histogram(_Instrument):
    """Fixed-bucket histogram with Prometheus cumulative semantics."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigError(
                "histogram buckets must be non-empty, sorted, unique")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ConfigError("histogram buckets must be finite "
                              "(+Inf is implicit)")
        self.buckets = bounds
        # per label set: [count per finite bucket] + overflow, sum, count
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}
        self._totals: Dict[Tuple[str, ...], int] = {}

    def observe(self, value: float, **label_values) -> None:
        """Record one observation.

        Bucket assignment is deterministic at the edges: bounds are
        *inclusive upper* bounds (Prometheus ``le`` semantics), so an
        observation exactly equal to a bucket bound always lands in
        that bucket — ``observe(0.1)`` with a ``0.1`` bucket counts in
        ``le="0.1"``, never the next one up. NaN compares false
        against every bound, so it deterministically lands in the
        implicit ``+Inf`` overflow bucket (as does ``+Inf`` itself;
        ``-Inf`` sorts below everything and lands in the first bucket).
        """
        key = self._key(label_values)
        counts = self._counts.setdefault(
            key, [0] * (len(self.buckets) + 1))
        slot = len(self.buckets)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                slot = index
                break
        counts[slot] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **label_values) -> int:
        return self._totals.get(self._key(label_values), 0)

    def sum(self, **label_values) -> float:
        return self._sums.get(self._key(label_values), 0.0)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "help": self.help,
            "labels": list(self.labels),
            "buckets": list(self.buckets),
            "values": [{"labels": dict(zip(self.labels, key)),
                        "counts": list(counts),
                        "sum": self._sums[key],
                        "count": self._totals[key]}
                       for key, counts in self._counts.items()],
        }

    def expose(self) -> List[str]:
        lines: List[str] = []
        for key, counts in self._counts.items():
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                lines.append(
                    f"{self.name}_bucket"
                    f"{self._label_str(key, ('le', _format_value(bound)))}"
                    f" {cumulative}")
            cumulative += counts[-1]
            lines.append(
                f"{self.name}_bucket"
                f"{self._label_str(key, ('le', '+Inf'))} {cumulative}")
            lines.append(f"{self.name}_sum{self._label_str(key)} "
                         f"{_format_value(self._sums[key])}")
            lines.append(f"{self.name}_count{self._label_str(key)} "
                         f"{self._totals[key]}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Sequence[str], **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            if tuple(labels) != existing.labels:
                raise ConfigError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labels}, not {tuple(labels)}")
            return existing
        instrument = cls(name, help, labels=labels, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  labels: Sequence[str] = ()) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    # ------------------------------------------------------------------
    # export

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, object]:
        """``{metric_name: instrument snapshot}`` (JSON-serializable)."""
        return {name: instrument.snapshot()
                for name, instrument in self._instruments.items()}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (textfile-collector compatible)."""
        lines: List[str] = []
        for name, instrument in self._instruments.items():
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            lines.extend(instrument.expose())
        return "\n".join(lines) + "\n" if lines else ""
