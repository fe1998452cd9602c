"""JSON round-trip for simulation results.

The on-disk :class:`~repro.store.store.ResultStore` persists one
:class:`~repro.sim.results.SimulationResult` per cache entry.  Every piece of
a result is a flat frozen dataclass, so serialisation is a field-by-field
dictionary dump; deserialisation rebuilds the exact dataclasses, which means
a cache hit is indistinguishable from a fresh run (``summary()`` and all
derived metrics agree bit-for-bit — floats are serialised through
``repr``-faithful JSON, ints stay ints).

``SCHEMA_VERSION`` names the wire format.  It must be bumped whenever the
shape of :class:`~repro.sim.results.SimulationResult` (or anything reachable
from it) changes; the store treats entries with a different schema version
as stale and never returns them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, TypeVar, Union, cast

from repro.constellation.scenario import ConstellationScenario
from repro.metrics.collector import MacStats
from repro.metrics.data import DataMetrics
from repro.metrics.voice import VoiceMetrics
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "result_to_payload",
    "payload_to_result",
    "payload_to_scenario",
]

#: Version of the serialised result format.  Bump on any change to the
#: result dataclasses; the store invalidates entries from other versions.
SCHEMA_VERSION = 5  # v5: ConstellationScenario results (PR 10); v4: macro_frames


class SerializationError(ValueError):
    """A payload could not be converted back into a result."""


def result_to_payload(result: SimulationResult) -> Dict[str, object]:
    """Flatten a result into a JSON-serialisable dictionary."""
    return {
        "scenario": dataclasses.asdict(result.scenario),
        "voice": dataclasses.asdict(result.voice),
        "data": dataclasses.asdict(result.data),
        "mac": dataclasses.asdict(result.mac),
    }


_T = TypeVar("_T")


def _rebuild(cls: Callable[..., _T], payload: object, what: str) -> _T:
    if not isinstance(payload, dict):
        raise SerializationError(f"{what} payload must be an object")
    data = cast(Dict[str, Any], payload)
    field_names = {f.name for f in dataclasses.fields(cast(Any, cls))}
    if set(data) != field_names:
        raise SerializationError(
            f"{what} payload fields {sorted(data)} do not match "
            f"{getattr(cls, '__name__', cls)} fields {sorted(field_names)}"
        )
    try:
        return cls(**data)
    except (TypeError, ValueError) as error:
        raise SerializationError(f"invalid {what} payload: {error}") from error


def payload_to_scenario(
    payload: object,
) -> Union[Scenario, ConstellationScenario]:
    """Rebuild a single-cell or constellation scenario from its fields.

    A :class:`ConstellationScenario` carries ``n_beams``, which tells the
    two shapes apart on the wire (the exact field-set match of the rebuild
    still rejects hybrids).
    """
    if isinstance(payload, dict) and "n_beams" in payload:
        return _rebuild(ConstellationScenario, payload, "scenario")
    return _rebuild(Scenario, payload, "scenario")


def payload_to_result(payload: Dict[str, object]) -> SimulationResult:
    """Rebuild the exact :class:`SimulationResult` a payload was dumped from."""
    if not isinstance(payload, dict):
        raise SerializationError("result payload must be an object")
    missing = {"scenario", "voice", "data", "mac"} - set(payload)
    if missing:
        raise SerializationError(
            f"result payload is missing sections: {sorted(missing)}"
        )
    return SimulationResult(
        scenario=payload_to_scenario(payload["scenario"]),
        voice=_rebuild(VoiceMetrics, payload["voice"], "voice"),
        data=_rebuild(DataMetrics, payload["data"], "data"),
        mac=_rebuild(MacStats, payload["mac"], "mac"),
    )
