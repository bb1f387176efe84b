"""repro.serve: one degradation-first serving tier over a live ranking.

:class:`ShardedGateway` is the tier — ``ShardedGateway(live, 1,
mode="inline")`` in one process, K worker processes on the
shared-memory score board at scale. It composes one
:class:`RankingService` (apply → guardrails → rollback/quarantine →
breaker → swap of an immutable :class:`Snapshot`) and serves every read
from per-shard indexes whose merge is bit-identical to one
:class:`repro.query.RankIndex`. ``repro serve-load`` drills it under
faults (:mod:`repro.drill`). See ``docs/OPERATIONS.md`` ("Serving") for
the degradation ladder.
"""

from repro.serve.admission import AdmissionGate
from repro.serve.breaker import (CLOSED, HALF_OPEN, OPEN, STATE_CODES,
                                 CircuitBreaker)
from repro.serve.gateway import GatewayReadResult, ShardedGateway
from repro.serve.guardrails import (GuardrailPolicy, validate_candidate,
                                    validate_shard_slice)
from repro.serve.merge import merge_page_entries, merge_top_entries
from repro.serve.service import IngestReport, RankingService
from repro.serve.shard import (InlineShardHandle, ProcessShardHandle,
                               ShardConfig, ShardServer, ShardSnapshot,
                               ShardSpec, shard_of)
from repro.serve.snapshot import Snapshot

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "STATE_CODES",
    "GatewayReadResult",
    "GuardrailPolicy",
    "validate_candidate",
    "validate_shard_slice",
    "IngestReport",
    "InlineShardHandle",
    "merge_page_entries",
    "merge_top_entries",
    "ProcessShardHandle",
    "RankingService",
    "ShardConfig",
    "ShardedGateway",
    "ShardServer",
    "ShardSnapshot",
    "ShardSpec",
    "shard_of",
    "Snapshot",
]
