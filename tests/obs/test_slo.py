"""SLO engine unit tests: spec validation, burn math, breach wiring.

Everything runs on an injectable fake clock — no sleeping. The burn
numbers are hand-computable: with objective 0.99 the error budget is
0.01, so a 10% error rate burns at 10, a 100% error rate at 100.
"""

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import (
    SLOMonitor,
    SLOSpec,
    SLOStatus,
    default_slos,
    render_slo_table,
)

pytestmark = [pytest.mark.obs, pytest.mark.slo]


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _ratio_spec(**overrides) -> SLOSpec:
    spec = dict(name="availability", kind="ratio", objective=0.99,
                metric="bad_total", total_metric="all_total",
                windows=(60.0, 300.0), burn_threshold=1.0)
    spec.update(overrides)
    return SLOSpec(**spec)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            SLOSpec(name="x", kind="percentile", metric="m")

    def test_objective_must_be_fraction(self):
        with pytest.raises(ConfigError, match="objective"):
            SLOSpec(name="x", kind="ratio", objective=1.0,
                    metric="m", total_metric="t")

    def test_gauge_max_ignores_objective_bound(self):
        # gauges are hard bounds; objective is not meaningful there.
        SLOSpec(name="x", kind="gauge_max", objective=1.0, metric="m")

    def test_metric_required(self):
        with pytest.raises(ConfigError, match="metric"):
            SLOSpec(name="x", kind="gauge_max")

    def test_ratio_needs_total(self):
        with pytest.raises(ConfigError, match="total_metric"):
            SLOSpec(name="x", kind="ratio", metric="m")

    def test_windows_positive(self):
        with pytest.raises(ConfigError, match="windows"):
            SLOSpec(name="x", kind="gauge_max", metric="m",
                    windows=(0.0, 60.0))

    def test_duplicate_names_rejected_by_monitor(self):
        specs = [_ratio_spec(), _ratio_spec()]
        with pytest.raises(ConfigError, match="duplicate"):
            SLOMonitor(MetricsRegistry(), specs=specs)

    def test_default_slos_construct(self):
        names = [spec.name for spec in default_slos()]
        assert "read-latency" in names
        assert "served-freshness" in names
        assert "gateway-degradation" in names


class TestBurnMath:
    def test_ratio_burn_rate_is_error_rate_over_budget(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=clock)
        monitor.tick()  # anchor sample, everything at zero
        clock.advance(400.0)  # both windows now reach the anchor
        registry.counter("all_total").inc(100)
        registry.counter("bad_total").inc(10)
        (status,) = monitor.tick()
        # 10% errors / 1% budget = burn 10 on both windows
        assert status.burn_rates[60.0] == pytest.approx(10.0)
        assert status.burn_rates[300.0] == pytest.approx(10.0)
        assert status.breaching
        assert status.events == 100

    def test_multi_window_and_semantics(self):
        # A burst that is hot over the short window but already diluted
        # over the long one must NOT page: both windows must burn.
        clock = FakeClock()
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=clock)
        monitor.tick()  # long-window anchor (all zero)
        clock.advance(240.0)
        registry.counter("all_total").inc(50_000)  # clean history
        monitor.tick()  # short-window anchor (clean)
        clock.advance(70.0)
        registry.counter("all_total").inc(100)
        registry.counter("bad_total").inc(100)  # 100% errors, briefly
        (status,) = monitor.tick()
        assert status.burn_rates[60.0] >= 1.0  # short window is hot
        assert status.burn_rates[300.0] < 1.0  # long window diluted
        assert not status.breaching

    def test_min_events_keeps_cold_windows_quiet(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        monitor = SLOMonitor(
            registry, specs=[_ratio_spec(min_events=10)], clock=clock)
        monitor.tick()
        clock.advance(400.0)
        registry.counter("all_total").inc(3)
        registry.counter("bad_total").inc(3)  # 100% errors of 3 events
        (status,) = monitor.tick()
        assert status.burn_rates == {60.0: 0.0, 300.0: 0.0}
        assert not status.breaching

    def test_histogram_under_counts_threshold_bucket_as_good(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        spec = SLOSpec(name="latency", kind="histogram_under",
                       objective=0.9, metric="lat", threshold=0.1,
                       windows=(60.0, 300.0))
        monitor = SLOMonitor(registry, specs=[spec], clock=clock)
        monitor.tick()
        clock.advance(400.0)
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for _ in range(8):
            histogram.observe(0.1)   # exactly on the bound: good
        histogram.observe(0.5)
        histogram.observe(5.0)
        (status,) = monitor.tick()
        # 2 bad of 10 = 20% errors / 10% budget = burn 2
        assert status.burn_rates[60.0] == pytest.approx(2.0)
        assert status.breaching

    def test_gauge_max_burns_at_inf_when_violated(self):
        registry = MetricsRegistry()
        spec = SLOSpec(name="degraded", kind="gauge_max",
                       metric="degraded_shards", threshold=0.0)
        monitor = SLOMonitor(registry, specs=[spec], clock=FakeClock())
        registry.gauge("degraded_shards").set(0)
        (status,) = monitor.tick()
        assert not status.breaching
        registry.gauge("degraded_shards").set(2)
        (status,) = monitor.tick()
        assert status.breaching
        assert status.value == 2.0
        assert all(rate == float("inf")
                   for rate in status.burn_rates.values())

    def test_young_monitor_uses_oldest_anchor(self):
        # A run shorter than the window still detects a hot burn: the
        # anchor falls back to the oldest sample instead of staying
        # silent until the window fills.
        clock = FakeClock()
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=clock)
        monitor.tick()
        clock.advance(5.0)  # far less than either window
        registry.counter("all_total").inc(100)
        registry.counter("bad_total").inc(50)
        (status,) = monitor.tick()
        assert status.breaching


class TestBreachWiring:
    def test_callbacks_fire_on_transition_only(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=clock)
        fired = []
        monitor.on_breach(lambda status: fired.append(status.name))
        monitor.tick()
        clock.advance(400.0)
        registry.counter("all_total").inc(100)
        registry.counter("bad_total").inc(100)
        monitor.tick()  # transition into breach
        monitor.tick()  # still breaching: no second notification
        assert fired == ["availability"]
        assert monitor.breaches_total == 1

    def test_breach_triggers_recorder_capture(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        recorder = FlightRecorder()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=clock, recorder=recorder)
        monitor.tick()
        clock.advance(400.0)
        registry.counter("all_total").inc(100)
        registry.counter("bad_total").inc(100)
        monitor.tick()
        assert len(recorder.captures) == 1
        bundle = recorder.captures[0]
        assert bundle.trigger == "slo:availability"
        assert bundle.slo and bundle.slo[0]["breaching"]

    def test_statuses_reflect_last_tick(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=FakeClock())
        assert monitor.statuses() == []
        monitor.tick()
        assert [s.name for s in monitor.statuses()] == ["availability"]


class TestRendering:
    def test_table_rows_and_breach_flag(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        specs = [_ratio_spec(),
                 SLOSpec(name="degraded", kind="gauge_max",
                         metric="g", threshold=0.0)]
        monitor = SLOMonitor(registry, specs=specs, clock=clock)
        registry.gauge("g").set(1)
        statuses = monitor.tick()
        text = render_slo_table(statuses)
        assert "availability" in text
        assert "degraded" in text and "BREACH" in text
        assert "val=1" in text

    def test_empty_table(self):
        assert "no SLOs" in render_slo_table([])

    def test_status_as_dict_is_json_shaped(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=FakeClock())
        (status,) = monitor.tick()
        payload = status.as_dict()
        assert payload["name"] == "availability"
        assert set(payload["burn_rates"]) == {"60.0", "300.0"}

    def test_status_from_dict_round_trips(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, specs=[_ratio_spec()],
                             clock=FakeClock())
        (status,) = monitor.tick()
        assert SLOStatus.from_dict(status.as_dict()) == status
        # A bundle written by an older build may lack fields.
        sparse = SLOStatus.from_dict({"name": "x", "breaching": True,
                                      "burn_rates": {"60.0": "inf"}})
        assert sparse.breaching and sparse.kind == "?"
        assert sparse.burn_rates == {60.0: float("inf")}


@pytest.mark.serve
class TestDefaultSLOsWatchTheGateway:
    """The default objectives read what the one read path emits."""

    def test_reads_and_a_forced_shed_reach_both_slos(self, tiny_dataset):
        from repro.engine.live import LiveRanker
        from repro.errors import OverloadError
        from repro.obs import Observability
        from repro.serve import ShardedGateway

        obs = Observability("slo-gateway")
        with ShardedGateway(LiveRanker(tiny_dataset), 1, mode="inline",
                            obs=obs, max_inflight=1) as gateway:
            monitor = SLOMonitor(obs.metrics)
            monitor.tick()
            for _ in range(10):
                gateway.top_sync(3)
            quiet = {s.name: s for s in monitor.tick()}
            assert quiet["read-latency"].events == 10
            assert quiet["availability"].events == 10
            assert not quiet["availability"].breaching

            with gateway._handles[0]._server._gate.admit(None):
                with pytest.raises(OverloadError):
                    gateway.top_sync(3)
            burning = {s.name: s for s in monitor.tick()}
            # 1 shed of 11 reads against a 1% budget burns at ~9.
            assert burning["availability"].events == 11
            assert burning["availability"].breaching
            assert all(rate == pytest.approx(100 / 11) for rate
                       in burning["availability"].burn_rates.values())
            # Shed reads are not latency samples.
            assert burning["read-latency"].events == 10
