"""Run cache and resumable experiment store.

This subpackage is the persistence layer of the experiment API:

* :class:`~repro.store.store.ResultStore` — a content-addressed,
  schema-versioned on-disk cache mapping
  :meth:`~repro.api.spec.RunPoint.run_hash` to its
  :class:`~repro.sim.results.SimulationResult` (JSON-lines shards + atomic
  writes + corruption quarantine + ``gc``/``stats``/``invalidate``).
* :class:`~repro.store.caching.CachingExecutor` — wraps any
  :class:`~repro.api.executors.Executor` so identical points are served
  from disk and freshly computed points are persisted as they complete,
  making ``repro.api.run(..., cache_dir=...)`` resumable after a kill.

:class:`~repro.api.executors.ExecutionCancelled`, which a cancelled
executor raises with the partial results, is re-exported here.

>>> from repro.api import ExperimentSpec, run
>>> results = run(spec, cache_dir="~/.cache/repro")      # doctest: +SKIP
>>> results = run(spec, cache_dir="~/.cache/repro")      # 100% hits  # doctest: +SKIP
"""

from repro.api.executors import ExecutionCancelled
from repro.store.caching import CachingExecutor
from repro.store.serialization import (
    SCHEMA_VERSION,
    SerializationError,
    payload_to_result,
    result_to_payload,
)
from repro.store.store import GcStats, ResultStore, StoreStats

__all__ = [
    "CachingExecutor",
    "ExecutionCancelled",
    "GcStats",
    "ResultStore",
    "SCHEMA_VERSION",
    "SerializationError",
    "StoreStats",
    "payload_to_result",
    "result_to_payload",
]
