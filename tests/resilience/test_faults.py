"""Fault / FaultPlan semantics (no processes harmed here)."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ReproError, SourceError
from repro.resilience import Fault, FaultPlan, InjectedCrash
from repro.resilience import faults as faults_module
from repro.resilience.faults import SITES, VALUE_DEFAULTS

SITE_KINDS = [(site, kind) for site, kinds in SITES.items()
              for kind in kinds]
#: What firing a due fault of each kind does (see ``effect``).
EFFECT = {"crash": "crash", "error": "error", "stall": "sleep",
          "delay": "sleep", "nan": "handed", "poison": "handed",
          "tear": "handed", "truncate": "handed"}


def key_for(site, kind, offset=0):
    fields = SITES[site][kind]
    if fields == ("NAME",):
        return (f"file-{offset}.npz",)
    return tuple(range(3, 3 + len(fields) - 1)) + (7 + offset,)


def effect(plan, site, key, attempt, monkeypatch):
    slept = []
    monkeypatch.setattr(faults_module.time, "sleep", slept.append)
    try:
        handed = plan.fire(site, key, attempt)
    except InjectedCrash:
        return "crash"
    except SourceError:
        return "error"
    if slept:
        return "sleep"
    return "handed" if handed is not None else "none"


class TestEverySiteAndKind:
    @pytest.mark.parametrize("site,kind", SITE_KINDS)
    def test_fires_below_times_only_and_only_for_its_key(
            self, site, kind, monkeypatch):
        key = key_for(site, kind)
        plan = FaultPlan.of(Fault(site, kind, key, times=2))
        for attempt in (0, 1):
            assert effect(plan, site, key, attempt, monkeypatch) \
                == EFFECT[kind]
            assert plan.find(site, key, attempt) is not None
        assert effect(plan, site, key, 2, monkeypatch) == "none"
        assert plan.find(site, key, 2) is None
        other = key_for(site, kind, offset=1)
        assert effect(plan, site, other, 0, monkeypatch) == "none"

    def test_every_kind_has_a_declared_effect(self):
        assert {kind for _, kind in SITE_KINDS} == set(EFFECT)

    def test_fire_runs_every_due_fault_in_arming_order(self,
                                                       monkeypatch):
        # A stall and an error on one record: sleep first, then raise.
        plan = FaultPlan.of("source:stall:4@0.5", "source:error:4")
        slept = []
        monkeypatch.setattr(faults_module.time, "sleep", slept.append)
        with pytest.raises(SourceError, match="source:error:4"):
            plan.fire("source", (4,))
        assert slept == [0.5]


names = st.text(alphabet="abx019._-", min_size=1, max_size=12)


@st.composite
def any_fault(draw):
    site, kind = draw(st.sampled_from(SITE_KINDS))
    fields = SITES[site][kind]
    key = (draw(names),) if fields == ("NAME",) else tuple(
        draw(st.integers(0, 10**9)) for _ in fields)
    value = draw(st.floats(0.0, 1e6, allow_nan=False,
                           allow_infinity=False)) \
        if kind in VALUE_DEFAULTS else 0.0
    return Fault(site, kind, key, draw(st.integers(1, 10**4)), value)


class TestSpecGrammar:
    @settings(max_examples=300, deadline=None)
    @given(any_fault())
    @example(Fault("write", "truncate", ("ax2",)))
    @example(Fault("write", "truncate", ("x1",), times=3))
    @example(Fault("write", "truncate", ("box.npz",), value=64.0))
    @example(Fault("partition", "tear", (0,), value=0.0))
    def test_round_trip(self, fault):
        assert Fault.parse(str(fault)) == fault

    @pytest.mark.parametrize("spec,fault", [
        ("worker:crash:1,2", Fault("worker", "crash", (1, 2))),
        ("worker:delay:0,3@1.5", Fault("worker", "delay", (0, 3),
                                       value=1.5)),
        ("parse:crash:40x10", Fault("parse", "crash", (40,), times=10)),
        ("write:truncate:index.npx@64", Fault("write", "truncate",
                                              ("index.npx",),
                                              value=64.0)),
        ("write:truncate:ax2x1", Fault("write", "truncate", ("ax2",))),
        ("partition:tear:0", Fault("partition", "tear", (0,),
                                   value=8.0)),
        ("partition:stall:1,15x2@0.25",
         Fault("partition", "stall", (1, 15), times=2, value=0.25)),
    ])
    def test_parse_reads_from_the_right(self, spec, fault):
        assert Fault.parse(spec) == fault

    @pytest.mark.parametrize("spec", [
        "disk:crash:1",            # unknown site
        "worker:explode:1,2",      # unknown kind
        "worker:crash:1",          # key arity
        "batch:crash:1,2",         # key arity
        "batch:crash:1x0",         # times < 1
        "batch:nan:1@2",           # value on a kind without one
        "batch:crash:one",         # non-integer key
        "junk",
        "",
    ])
    def test_rejects_bad_specs_by_name(self, spec):
        with pytest.raises(ConfigError) as info:
            Fault.parse(spec)
        assert repr(spec) in str(info.value)

    def test_plan_keeps_arming_order(self):
        specs = ["shard:crash:1,1", "batch:nan:0", "batch:crash:2x3"]
        plan = FaultPlan.of(*specs[:2]).arm(Fault.parse(specs[2]))
        assert [str(fault) for fault in plan.faults] == specs


class TestWorkerFaultQueries:
    def test_fault_fires_on_scripted_dispatch_only(self):
        plan = FaultPlan.of("worker:crash:1,2")
        assert plan.find("worker", (1, 2), attempt=0) is not None
        assert plan.find("worker", (0, 2), attempt=0) is None
        assert plan.find("worker", (1, 3), attempt=0) is None

    def test_times_lets_later_attempts_through(self):
        plan = FaultPlan.of("worker:crash:0,1x2")
        assert plan.find("worker", (0, 1), attempt=0) is not None
        assert plan.find("worker", (0, 1), attempt=1) is not None
        assert plan.find("worker", (0, 1), attempt=2) is None

    def test_delay_fault_carries_seconds(self):
        plan = FaultPlan.of("worker:delay:2,3@1.25")
        fault = plan.find("worker", (2, 3))
        assert fault == Fault("worker", "delay", (2, 3), 1, 1.25)

    def test_fire_delay_does_not_crash(self):
        # A zero-second delay exercises the fire path safely in-process.
        assert FaultPlan.of("worker:delay:0,1").fire("worker",
                                                     (0, 1)) is None

    def test_fire_without_matching_fault_is_a_no_op(self):
        FaultPlan.of("worker:crash:1,1").fire("worker", (0, 99))

    def test_plan_survives_pickling(self):
        plan = FaultPlan.of("worker:crash:1,2", "worker:delay:0,1@0.5")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.find("worker", (1, 2)) is not None
        assert clone.find("worker", (0, 1)).value == 0.5


class TestCheckpointFaults:
    def test_crash_after_files_counts_writes(self):
        plan = FaultPlan.of("write:crash:2")
        plan.fire("write", (1,))
        with pytest.raises(InjectedCrash, match="write:crash:2"):
            plan.fire("write", (2,))

    def test_no_crash_when_unscripted(self):
        plan = FaultPlan()
        for count in range(1, 5):
            plan.fire("write", (count,))

    def test_truncation_lookup(self):
        plan = FaultPlan.of("write:truncate:state.npz@64")
        assert plan.fire("write", ("state.npz",)).value == 64
        assert plan.fire("write", ("engine.json",)) is None

    def test_injected_crash_is_not_a_repro_error(self):
        # Production error handling (``except ReproError``) must never
        # swallow an injected crash, just as it cannot catch SIGKILL.
        assert not issubclass(InjectedCrash, ReproError)


class TestBatchFaults:
    def test_crash_batch_fires_on_scripted_batch_only(self):
        plan = FaultPlan.of("batch:crash:2")
        assert plan.find("batch", (2,), attempt=0) is not None
        assert plan.find("batch", (1,), attempt=0) is None
        assert plan.find("batch", (3,), attempt=0) is None

    def test_times_lets_later_attempts_through(self):
        plan = FaultPlan.of("batch:crash:0x2")
        assert plan.find("batch", (0,), attempt=0) is not None
        assert plan.find("batch", (0,), attempt=1) is not None
        assert plan.find("batch", (0,), attempt=2) is None

    def test_fire_batch_crash_raises_injected_crash(self):
        plan = FaultPlan.of("batch:crash:1")
        with pytest.raises(InjectedCrash, match="batch:crash:1"):
            plan.fire("batch", (1,), attempt=0)

    def test_fire_is_a_no_op_for_other_batches(self):
        assert FaultPlan.of("batch:crash:1").fire("batch", (0,)) is None

    def test_poison_batch_is_queried_not_raised(self):
        # "nan" faults corrupt the candidate ranking downstream; firing
        # hands them back instead of raising.
        plan = FaultPlan.of("batch:nan:1")
        fault = plan.fire("batch", (1,))
        assert fault is not None
        assert fault.kind == "nan"

    def test_crash_and_poison_coexist_on_distinct_batches(self):
        plan = FaultPlan.of("batch:nan:1", "batch:crash:2")
        assert plan.find("batch", (1,)).kind == "nan"
        assert plan.find("batch", (2,)).kind == "crash"
        assert plan.find("batch", (0,)) is None

    def test_batch_faults_survive_pickling(self):
        plan = FaultPlan.of("batch:crash:3x2", "batch:nan:5")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.find("batch", (3,), attempt=1).kind == "crash"
        assert clone.find("batch", (5,)).kind == "nan"
