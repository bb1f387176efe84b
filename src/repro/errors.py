"""Exception hierarchy for the :mod:`repro` library.

Every error deliberately raised by the library derives from
:class:`ReproError`, so callers can catch one type at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Structural problem with a graph (bad node id, duplicate edge, ...)."""


class NodeNotFoundError(GraphError):
    """A referenced node id does not exist in the graph."""

    def __init__(self, node: int) -> None:
        super().__init__(f"node {node!r} not found in graph")
        self.node = node


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, message: str, iterations: int, residual: float) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DatasetError(ReproError):
    """A dataset is malformed or internally inconsistent."""


class ParseError(DatasetError):
    """A dataset file could not be parsed.

    Carries the offending location so error messages point at the line.
    """

    def __init__(self, message: str, path: str = "", line: int = 0) -> None:
        location = f"{path}:{line}: " if path else ""
        super().__init__(f"{location}{message}")
        self.path = path
        self.line = line


class StorageError(ReproError):
    """A persisted artifact is missing, corrupt or unwritable.

    Raised for engine checkpoint rotations, ingest journal segments and
    incident/report files.
    """


class ConfigError(ReproError):
    """Invalid configuration value for a model or engine."""


class ServeError(ReproError):
    """The serving layer could not satisfy a request or publish."""


class OverloadError(ServeError):
    """A read request was shed by the admission gate.

    Raised instead of queueing unboundedly: the caller is expected to
    back off (or retry against another replica). Carries the gate
    occupancy observed at shed time.
    """

    def __init__(self, message: str, inflight: int = 0,
                 capacity: int = 0) -> None:
        super().__init__(message)
        self.inflight = inflight
        self.capacity = capacity


class ShardUnavailableError(ServeError):
    """A serving shard could not answer (dead worker, hung pipe).

    The gateway treats this per shard: the query is answered from the
    remaining shards and the failure is surfaced through ``health()``
    instead of failing the whole request. Carries the shard id.
    """

    def __init__(self, message: str, shard: int = -1) -> None:
        super().__init__(message)
        self.shard = shard


class PartitionError(ReproError):
    """A graph partition is invalid (uncovered nodes, overlap, bad count)."""


class IngestError(ReproError):
    """The streaming ingestion pipeline could not make progress."""


class SourceError(IngestError):
    """A record source failed transiently (flaky fetch, timeout).

    The ingest pipeline retries these under its
    :class:`repro.resilience.RetryPolicy`; only an exhausted retry
    budget surfaces the error to the caller. Carries the source
    position so operators can resume or skip deliberately.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position
