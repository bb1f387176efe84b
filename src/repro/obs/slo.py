"""Declarative SLOs with multi-window burn-rate alerting.

An SLO says "over time, at least *objective* of events must be good" —
99% of reads under 100 ms, 95% of records served within 5 s of
arrival, 99.9% of requests not shed. The interesting signal is not the
instantaneous error rate but the **burn rate**: how fast the error
budget (``1 - objective``) is being consumed. A burn rate of 1 spends
exactly the budget over the SLO period; 14 spends a month's budget in
two days. Alerting on burn rates over *two* windows at once (a short
one for responsiveness, a long one to ride out blips) is the standard
way to page on real incidents without flapping — the alert fires only
when **both** windows burn hot.

Everything here evaluates over plain
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` dicts:
:class:`SLOMonitor` keeps a bounded history of timestamped snapshots
and diffs cumulative counters/histogram buckets between the window
anchor and now. The clock is injectable, so the whole state machine —
including breach transitions — is unit-testable without sleeping.

Three spec kinds cover the serving tier's surface:

* ``histogram_under`` — good events are observations at or under
  ``threshold`` in a histogram (read latency, served freshness);
* ``ratio`` — ``metric`` counts bad events, ``total_metric`` all
  events (shed rate / availability);
* ``gauge_max`` — the gauge must not exceed ``threshold`` (gateway
  degradation rungs); violation burns at ``inf``.

On a breach *transition* the monitor notifies its callbacks and asks
the attached :class:`~repro.obs.recorder.FlightRecorder` (if any) to
capture an incident bundle — see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective, declaratively.

    Args:
        name: stable identifier (shows up in alerts and bundles).
        kind: ``histogram_under`` | ``ratio`` | ``gauge_max``.
        objective: target good fraction, e.g. ``0.99`` (ignored for
            ``gauge_max``, which is a hard bound).
        metric: the histogram (``histogram_under``), the *bad-event*
            counter (``ratio``), or the gauge (``gauge_max``).
        total_metric: the all-events counter (``ratio`` only).
        threshold: the good/bad boundary — seconds for
            ``histogram_under``, the max allowed value for
            ``gauge_max``.
        windows: (short, long) burn-rate windows in seconds; an alert
            needs **both** to burn past ``burn_threshold``.
        burn_threshold: burn rate at which the alert fires.
        min_events: ignore windows with fewer total events (a cold
            service has no error rate worth alerting on).
    """

    name: str
    kind: str
    objective: float = 0.99
    metric: str = ""
    total_metric: str = ""
    threshold: float = 0.0
    windows: Tuple[float, float] = (60.0, 300.0)
    burn_threshold: float = 1.0
    min_events: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("histogram_under", "ratio", "gauge_max"):
            raise ConfigError(
                f"unknown SLO kind {self.kind!r} for {self.name!r}")
        if not 0.0 < self.objective < 1.0 and self.kind != "gauge_max":
            raise ConfigError(
                f"objective must be in (0, 1), got {self.objective}")
        if not self.metric:
            raise ConfigError(f"SLO {self.name!r} names no metric")
        if self.kind == "ratio" and not self.total_metric:
            raise ConfigError(
                f"ratio SLO {self.name!r} needs total_metric")
        if not self.windows or any(w <= 0 for w in self.windows):
            raise ConfigError(
                f"SLO {self.name!r} windows must be positive")

    @property
    def error_budget(self) -> float:
        return max(1e-12, 1.0 - self.objective)


@dataclass
class SLOStatus:
    """One spec's evaluation at one tick."""

    name: str
    kind: str
    objective: float
    breaching: bool = False
    #: burn rate per window (seconds -> rate); inf for a violated gauge.
    burn_rates: Dict[float, float] = field(default_factory=dict)
    #: total events observed over the long window (0 for gauges).
    events: int = 0
    #: current gauge value (``gauge_max`` only).
    value: float = 0.0
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "kind": self.kind,
            "objective": self.objective, "breaching": self.breaching,
            "burn_rates": {str(window): rate for window, rate
                           in self.burn_rates.items()},
            "events": self.events, "value": self.value,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SLOStatus":
        """Rebuild a status from its :meth:`as_dict` form (a bundle's
        ``slo`` section), tolerating missing fields."""
        return cls(
            name=str(payload.get("name", "?")),
            kind=str(payload.get("kind", "?")),
            objective=float(payload.get("objective", 0.0)),
            breaching=bool(payload.get("breaching", False)),
            burn_rates={float(window): float(rate) for window, rate
                        in (payload.get("burn_rates") or {}).items()},
            events=int(payload.get("events", 0)),
            value=float(payload.get("value", 0.0)),
            detail=str(payload.get("detail", "")))


def default_slos() -> Tuple[SLOSpec, ...]:
    """The serving tier's standing objectives (see OBSERVABILITY.md)."""
    return (
        SLOSpec(name="read-latency", kind="histogram_under",
                objective=0.99,
                metric="repro_gateway_read_latency_seconds",
                threshold=0.1,
                description="99% of admitted gateway reads under "
                            "100 ms"),
        SLOSpec(name="served-freshness", kind="histogram_under",
                objective=0.95, metric="repro_freshness_served_seconds",
                threshold=5.0,
                description="95% of records served within 5 s of "
                            "arrival"),
        SLOSpec(name="availability", kind="ratio", objective=0.99,
                metric="repro_gateway_shed_total",
                total_metric="repro_gateway_queries_total",
                description="99% of gateway reads admitted (not shed)"),
        SLOSpec(name="gateway-degradation", kind="gauge_max",
                metric="repro_gateway_degraded_shards", threshold=0.0,
                description="no shard off the current board epoch"),
    )


# ----------------------------------------------------------------------
# snapshot readers

def _counter_total(snapshot: Dict[str, object], name: str) -> float:
    """Sum of a counter/gauge across all label sets (0 when absent)."""
    instrument = snapshot.get(name)
    if not instrument:
        return 0.0
    return float(sum(entry["value"]
                     for entry in instrument.get("values", ())))


def _histogram_good_total(snapshot: Dict[str, object], name: str,
                          threshold: float) -> Tuple[float, float]:
    """``(good, total)`` observations: good means ``value <= threshold``.

    Uses the per-bucket counts, so "good" is exact whenever
    ``threshold`` coincides with a bucket bound (the natural way to
    write a spec) and conservative (rounded down to the nearest bound)
    otherwise.
    """
    instrument = snapshot.get(name)
    if not instrument:
        return 0.0, 0.0
    bounds = instrument.get("buckets", ())
    good = 0.0
    total = 0.0
    for entry in instrument.get("values", ()):
        counts = entry["counts"]
        for bound, count in zip(bounds, counts):
            if bound <= threshold:
                good += count
        total += entry["count"]
    return good, total


class SLOMonitor:
    """Evaluates SLO specs over a rolling window of metric snapshots.

    Call :meth:`tick` periodically (a sim loop, ``repro watch``, a
    test); each tick snapshots the registry, evaluates every spec over
    its burn windows, and — on a transition *into* breach — notifies
    ``on_breach`` callbacks and the attached flight recorder.

    Args:
        metrics: the registry to snapshot.
        specs: objectives to evaluate (default :func:`default_slos`).
        clock: monotonic time source (injectable for tests).
        recorder: optional :class:`~repro.obs.recorder.FlightRecorder`;
            breach transitions trigger ``recorder.capture``.
        max_samples: bound on retained snapshots.
    """

    def __init__(self, metrics: MetricsRegistry,
                 specs: Optional[Sequence[SLOSpec]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 recorder=None, max_samples: int = 512) -> None:
        if max_samples < 2:
            raise ConfigError("max_samples must be >= 2")
        self.metrics = metrics
        self.specs: Tuple[SLOSpec, ...] = tuple(
            specs if specs is not None else default_slos())
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate SLO names: {sorted(names)}")
        self._clock = clock
        self._recorder = recorder
        self._samples: Deque[Tuple[float, Dict[str, object]]] = deque(
            maxlen=max_samples)
        self._breaching: Dict[str, bool] = {
            spec.name: False for spec in self.specs}
        self._callbacks: List[Callable[[SLOStatus], None]] = []
        self._last: List[SLOStatus] = []
        self.breaches_total = 0

    # ------------------------------------------------------------------

    def on_breach(self, callback: Callable[[SLOStatus], None]) -> None:
        """Register a callback fired on each transition into breach."""
        self._callbacks.append(callback)

    def statuses(self) -> List[SLOStatus]:
        """The most recent :meth:`tick`'s evaluations."""
        return list(self._last)

    # ------------------------------------------------------------------

    def tick(self) -> List[SLOStatus]:
        """Snapshot, evaluate every spec, fire breach transitions."""
        now = self._clock()
        snapshot = self.metrics.snapshot()
        self._samples.append((now, snapshot))
        statuses = [self._evaluate(spec, now, snapshot)
                    for spec in self.specs]
        for status in statuses:
            was = self._breaching[status.name]
            self._breaching[status.name] = status.breaching
            if status.breaching and not was:
                self.breaches_total += 1
                for callback in self._callbacks:
                    callback(status)
                if self._recorder is not None:
                    self._recorder.capture(
                        trigger=f"slo:{status.name}",
                        slo_statuses=[s.as_dict() for s in statuses])
        self._last = statuses
        return statuses

    # ------------------------------------------------------------------

    def _anchor(self, now: float, window: float) -> Dict[str, object]:
        """The newest sample at least ``window`` old (else the oldest).

        Falling back to the oldest sample makes a young monitor
        evaluate over the history it *has* — a run shorter than the
        window still detects a hot burn instead of staying silent.
        """
        anchor = self._samples[0][1]
        for ts, snapshot in self._samples:
            if now - ts >= window:
                anchor = snapshot
            else:
                break
        return anchor

    def _evaluate(self, spec: SLOSpec, now: float,
                  snapshot: Dict[str, object]) -> SLOStatus:
        status = SLOStatus(name=spec.name, kind=spec.kind,
                           objective=spec.objective,
                           detail=spec.description)
        if spec.kind == "gauge_max":
            value = _counter_total(snapshot, spec.metric)
            status.value = value
            violated = value > spec.threshold
            for window in spec.windows:
                status.burn_rates[window] = float("inf") if violated \
                    else 0.0
            status.breaching = violated
            return status

        hot = 0
        for window in spec.windows:
            anchor = self._anchor(now, window)
            if spec.kind == "histogram_under":
                good_then, total_then = _histogram_good_total(
                    anchor, spec.metric, spec.threshold)
                good_now, total_now = _histogram_good_total(
                    snapshot, spec.metric, spec.threshold)
                total = total_now - total_then
                errors = total - (good_now - good_then)
            else:  # ratio
                bad = (_counter_total(snapshot, spec.metric)
                       - _counter_total(anchor, spec.metric))
                total = (_counter_total(snapshot, spec.total_metric)
                         - _counter_total(anchor, spec.total_metric))
                errors = bad
            if total < spec.min_events:
                status.burn_rates[window] = 0.0
                continue
            error_rate = max(0.0, errors) / total
            burn = error_rate / spec.error_budget
            status.burn_rates[window] = burn
            if burn >= spec.burn_threshold:
                hot += 1
        status.events = int(max(
            0.0, self._window_events(spec, now, snapshot)))
        status.breaching = hot == len(spec.windows)
        return status

    def _window_events(self, spec: SLOSpec, now: float,
                       snapshot: Dict[str, object]) -> float:
        window = max(spec.windows)
        anchor = self._anchor(now, window)
        if spec.kind == "histogram_under":
            _, total_then = _histogram_good_total(anchor, spec.metric,
                                                  spec.threshold)
            _, total_now = _histogram_good_total(snapshot, spec.metric,
                                                 spec.threshold)
            return total_now - total_then
        return (_counter_total(snapshot, spec.total_metric)
                - _counter_total(anchor, spec.total_metric))


def render_slo_table(statuses: Sequence[SLOStatus]) -> str:
    """Fixed-width SLO table for ``repro watch`` and bundle triage."""
    if not statuses:
        return "(no SLOs evaluated)"
    lines = [f"{'slo':<22} {'state':<8} {'objective':>9} "
             f"{'burn(short)':>11} {'burn(long)':>10} {'events':>7}"]
    for status in statuses:
        windows = sorted(status.burn_rates)
        short = status.burn_rates.get(windows[0], 0.0) if windows else 0.0
        long_ = status.burn_rates.get(windows[-1], 0.0) if windows else 0.0
        state = "BREACH" if status.breaching else "ok"
        objective = f"{status.objective:.3g}" \
            if status.kind != "gauge_max" else f"val={status.value:g}"

        def _fmt(rate: float) -> str:
            return "inf" if rate == float("inf") else f"{rate:.2f}"

        lines.append(f"{status.name:<22} {state:<8} {objective:>9} "
                     f"{_fmt(short):>11} {_fmt(long_):>10} "
                     f"{status.events:>7}")
    return "\n".join(lines)
