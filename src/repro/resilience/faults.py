"""Deterministic fault injection for the resilience test harness.

Every injected failure is one :class:`Fault` — a *site* (where the
program consults the plan), a *kind* (what happens there), a *key*
(which dispatch, batch, record or file), and ``times`` (how many
attempts it hits). A :class:`FaultPlan` is a picklable list of them.
Engines, the checkpoint writer, the serving tier and the ingest
pipeline accept a plan as an optional keyword (default ``None``: zero
overhead, no behaviour change) and call :meth:`FaultPlan.fire` at the
exact points where real hardware and processes fail.

Each fault has one text form, used by tests, harnesses and the CLI's
``--fault`` flag alike::

    SITE:KIND:KEY[,KEY…][xTIMES][@VALUE]

parsed from the right: a trailing ``@VALUE`` (seconds for
``stall``/``delay``, bytes for ``tear``/``truncate``), then a trailing
``xTIMES``. ``docs/OPERATIONS.md`` tabulates every site.

Determinism is the whole point: a plan injects the *same* failures on
every run, so the fault suite can assert strong properties — above all
that a faulted parallel run converges to scores **bit-identical** to
the fault-free run — instead of merely "it did not crash". A fault
with ``times=t`` fires on attempts ``0..t-1`` and lets attempt ``t``
through; callers pass the attempt (or incarnation) number, so a
respawned worker process holding a fresh copy of the plan still knows
the failure already happened.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigError, SourceError


class InjectedCrash(RuntimeError):
    """Raised by fault hooks that simulate a hard process death.

    Deliberately *not* a :class:`repro.errors.ReproError`: production
    code must never catch it as part of normal error handling, exactly
    as it cannot catch a real ``SIGKILL``.
    """


#: Exit code used when a worker process is crashed by a plan; chosen to
#: be recognizable in CI logs.
WORKER_CRASH_EXIT_CODE = 86

#: site -> {kind: names of its key fields}.
SITES = {
    "worker": {"crash": ("WORKER", "SUPERSTEP"),
               "delay": ("WORKER", "SUPERSTEP")},
    "write": {"crash": ("N",), "truncate": ("NAME",)},
    "batch": {"crash": ("BATCH",), "nan": ("BATCH",)},
    "shard": {"crash": ("SHARD", "EPOCH"), "poison": ("SHARD", "EPOCH")},
    "source": {"stall": ("RECORD",), "error": ("RECORD",)},
    "parse": {"crash": ("RECORD",)},
    "ingest": {"crash": ("BATCH",)},
    "partition": {"crash": ("PARTITION", "SEQ"),
                  "stall": ("PARTITION", "SEQ"), "tear": ("PARTITION",)},
}
#: Kinds that carry a ``@VALUE``, with the value a bare spec gets.
VALUE_DEFAULTS = {"stall": 0.0, "delay": 0.0, "tear": 8.0,
                  "truncate": 0.0}

_SPEC = re.compile(r"(?P<site>\w+):(?P<kind>\w+):(?P<key>[^:@]+?)"
                   r"(?:x(?P<times>\d+))?(?:@(?P<value>[^:@]+))?")
_TRAILING_TIMES = re.compile(r"x\d+$")

Key = Tuple[Union[int, str], ...]


@dataclass(frozen=True)
class Fault:
    """One scripted failure: ``kind`` at ``site`` for ``key``.

    ``crash`` raises :class:`InjectedCrash`, ``error`` a transient
    :class:`~repro.errors.SourceError`, ``stall``/``delay`` sleep
    ``value`` seconds; ``nan``, ``poison``, ``tear`` and ``truncate``
    are handed back to the call site to act on.
    """

    site: str
    kind: str
    key: Key
    times: int = 1
    value: float = 0.0

    def __post_init__(self) -> None:
        kinds = SITES.get(self.site)
        if kinds is None:
            raise ConfigError(f"unknown fault site {self.site!r} "
                              f"(sites: {', '.join(SITES)})")
        fields = kinds.get(self.kind)
        if fields is None:
            raise ConfigError(f"site {self.site!r} has no fault kind "
                              f"{self.kind!r} (kinds: {', '.join(kinds)})")
        named = fields == ("NAME",)
        if len(self.key) != len(fields) or not all(
                isinstance(part, str if named else int)
                and not isinstance(part, bool) for part in self.key):
            raise ConfigError(f"{self.site}:{self.kind} takes the key "
                              f"{','.join(fields)}, got {self.key!r}")
        if named and not re.fullmatch(r"[^:,@]+", self.key[0]):
            raise ConfigError(f"bad file name {self.key[0]!r}")
        if self.times < 1:
            raise ConfigError(f"times must be >= 1, got {self.times}")
        if self.kind not in VALUE_DEFAULTS and self.value != 0.0:
            raise ConfigError(f"{self.site}:{self.kind} takes no @VALUE")
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ConfigError(f"@VALUE must be finite and >= 0, "
                              f"got {self.value}")

    @classmethod
    def parse(cls, spec: str) -> "Fault":
        """The fault a ``SITE:KIND:KEY[,KEY…][xTIMES][@VALUE]`` spec
        names; :class:`~repro.errors.ConfigError` naming the spec
        otherwise."""
        match = _SPEC.fullmatch(spec.strip())
        try:
            if match is None:
                raise ConfigError("expected "
                                  "SITE:KIND:KEY[,KEY…][xTIMES][@VALUE]")
            site, kind = match["site"], match["kind"]
            named = SITES.get(site, {}).get(kind) == ("NAME",)
            key = tuple(part if named else _integer(part)
                        for part in match["key"].split(","))
            value = VALUE_DEFAULTS.get(kind, 0.0) \
                if match["value"] is None else float(match["value"])
            return cls(site, kind, key, int(match["times"] or 1), value)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"bad fault spec {spec!r}: {exc}") from None

    def __str__(self) -> str:
        text = f"{self.site}:{self.kind}:" \
            + ",".join(str(part) for part in self.key)
        if self.times != 1 or _TRAILING_TIMES.search(text):
            text += f"x{self.times}"
        if self.value != VALUE_DEFAULTS.get(self.kind, 0.0):
            shown = f"{self.value:g}"
            text += "@" + (shown if float(shown) == self.value
                           else repr(self.value))
        return text


def _integer(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise ConfigError(f"key {text!r} is not a non-negative integer")
    return int(text)


@dataclass
class FaultPlan:
    """A deterministic, picklable script of injected failures."""

    faults: List[Fault] = field(default_factory=list)
    #: Checkpoint write points seen so far — the ``write:crash:N`` clock.
    writes: int = field(default=0, init=False, repr=False,
                        compare=False)

    @classmethod
    def of(cls, *specs: Union[str, Fault]) -> "FaultPlan":
        """A plan armed with ``specs`` (text or :class:`Fault`), in
        order."""
        return cls().arm(*specs)

    def arm(self, *specs: Union[str, Fault]) -> "FaultPlan":
        """Append ``specs`` to the plan; returns the plan."""
        self.faults.extend(spec if isinstance(spec, Fault)
                           else Fault.parse(spec) for spec in specs)
        return self

    def _due(self, site: str, key: Key, attempt: int) -> Iterable[Fault]:
        return (fault for fault in self.faults
                if fault.site == site and fault.key == key
                and attempt < fault.times)

    def find(self, site: str, key: Key, attempt: int = 0
             ) -> Optional[Fault]:
        """The first fault due at ``site`` for ``key`` on this attempt."""
        return next(iter(self._due(site, key, attempt)), None)

    def fire(self, site: str, key: Key, attempt: int = 0
             ) -> Optional[Fault]:
        """Execute every fault due at ``site`` for ``key`` on this
        attempt, in arming order.

        ``stall``/``delay`` sleep, ``crash`` raises
        :class:`InjectedCrash`, ``error`` raises
        :class:`~repro.errors.SourceError`. The first ``nan``,
        ``poison``, ``tear`` or ``truncate`` fault is returned for the
        caller to act on; ``None`` when there is none.
        """
        handed_back = None
        for fault in self._due(site, key, attempt):
            if fault.kind in ("stall", "delay"):
                time.sleep(fault.value)
            elif fault.kind == "crash":
                raise InjectedCrash(f"injected {fault} "
                                    f"(attempt {attempt})")
            elif fault.kind == "error":
                raise SourceError(f"injected {fault} (attempt {attempt})",
                                  position=int(key[0]))
            elif handed_back is None:
                handed_back = fault
        return handed_back


def tear_active_segment(directory, tear_bytes: int = 8) -> None:
    """Chop ``tear_bytes`` off a journal directory's active segment —
    the unsynced tail a simulated power loss takes with it."""
    for path in Path(directory).glob("segment-*.open"):
        size = path.stat().st_size
        with open(path, "rb+") as handle:
            handle.truncate(max(0, size - tear_bytes))
