"""Structured run telemetry: per-point cost, cache status, worker id.

Every executor hands its result sink a :class:`PointReport` with each
point's outcome; :func:`repro.api.run` records what its sink delivers into
a :class:`RunTelemetry`, and :meth:`RunTelemetry.report` freezes that into
a :class:`RunReport`, the JSON-ready payload persisted as a
:class:`~repro.store.store.ResultStore` artifact, so the shape is
versioned just like the trace schema.

The reports are deliberately decoupled from :class:`~repro.api.spec`:
they hold plain values (``run_hash``, ``protocol``, ``coords``), so this
module stays stdlib-only and inside the mypy --strict perimeter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs import clock as _clock
from repro.obs import metrics as _metrics

__all__ = [
    "RUN_REPORT_SCHEMA_VERSION",
    "PointReport",
    "RunReport",
    "RunTelemetry",
]

#: Bump on any backwards-incompatible change to the payload shapes.
RUN_REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PointReport:
    """Telemetry of one grid point."""

    #: Position in the expanded run list (sink-callback position).
    position: int
    #: The point's cache key (``RunPoint.run_hash()``).
    run_hash: str
    protocol: str
    #: Sweep coordinates (``RunPoint.coords_dict()``).
    coords: Dict[str, Any]
    #: Wall seconds for this point; ``None`` for cache hits served without
    #: measurement and for legacy paths that bypass instrumentation.
    wall_s: Optional[float] = None
    #: "computed" (no cache in play), "hit" or "miss".
    cache: str = "computed"
    #: Opaque worker label (``"pid:1234"``) of the process that ran the
    #: point; ``None`` for cache hits.
    worker: Optional[str] = None
    #: Frames simulated (warmup + measured, summed over beams), when known.
    frames: Optional[int] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "position": self.position,
            "run_hash": self.run_hash,
            "protocol": self.protocol,
            "coords": dict(self.coords),
            "cache": self.cache,
        }
        if self.wall_s is not None:
            payload["wall_s"] = self.wall_s
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.frames is not None:
            payload["frames"] = self.frames
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PointReport":
        return cls(
            position=int(payload["position"]),
            run_hash=str(payload["run_hash"]),
            protocol=str(payload["protocol"]),
            coords=dict(payload.get("coords", {})),
            wall_s=payload.get("wall_s"),
            cache=str(payload.get("cache", "computed")),
            worker=payload.get("worker"),
            frames=payload.get("frames"),
        )


@dataclass(frozen=True)
class RunReport:
    """Frozen telemetry of one grid execution (JSON round-trippable)."""

    spec_name: str
    spec_hash: str
    n_points: int
    #: End-to-end wall seconds of the execute call (``None`` if the
    #: collector was never started).
    wall_s: Optional[float]
    points: List[PointReport]
    #: Snapshot of the process-global metrics registry at report time
    #: (empty when the no-op registry is installed).
    metrics: Dict[str, Any]
    schema_version: int = RUN_REPORT_SCHEMA_VERSION

    # ------------------------------------------------------------- analysis
    def slowest(self, n: int = 5) -> List[PointReport]:
        """The ``n`` points with the largest known wall time."""
        timed = [p for p in self.points if p.wall_s is not None]
        timed.sort(key=lambda p: -(p.wall_s or 0.0))
        return timed[:n]

    def cache_counts(self) -> Dict[str, int]:
        """How many points were hits / misses / plain computes."""
        counts: Dict[str, int] = {}
        for point in self.points:
            counts[point.cache] = counts.get(point.cache, 0) + 1
        return counts

    # ---------------------------------------------------------- persistence
    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "spec_name": self.spec_name,
            "spec_hash": self.spec_hash,
            "n_points": self.n_points,
            "wall_s": self.wall_s,
            "points": [point.to_payload() for point in self.points],
            "metrics": self.metrics,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RunReport":
        version = int(payload.get("schema_version", 0))
        if version > RUN_REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"run report schema v{version} is newer than supported "
                f"v{RUN_REPORT_SCHEMA_VERSION}"
            )
        return cls(
            spec_name=str(payload.get("spec_name", "")),
            spec_hash=str(payload.get("spec_hash", "")),
            n_points=int(payload.get("n_points", 0)),
            wall_s=payload.get("wall_s"),
            points=[
                PointReport.from_payload(entry)
                for entry in payload.get("points", [])
            ],
            metrics=dict(payload.get("metrics", {})),
            schema_version=version or RUN_REPORT_SCHEMA_VERSION,
        )


class RunTelemetry:
    """Mutable collector of one grid's :class:`PointReport` records.

    :func:`repro.api.run` records every report its result sink delivers;
    a later report for the same position replaces the earlier one.
    """

    def __init__(self) -> None:
        self._points: Dict[int, PointReport] = {}
        self._t0: Optional[float] = None

    def start(self) -> None:
        """Mark the beginning of the execute call (for run wall time)."""
        self._t0 = _clock.now()

    def record(self, report: PointReport) -> None:
        """Keep ``report`` as the record of its grid position."""
        self._points[report.position] = report

    def report(
        self, spec_name: str, spec_hash: str, n_points: int
    ) -> RunReport:
        """Freeze into a :class:`RunReport` (metric snapshot included)."""
        wall_s = _clock.now() - self._t0 if self._t0 is not None else None
        registry = _metrics.METRICS
        metrics = registry.snapshot() if registry.enabled else {}
        return RunReport(
            spec_name=spec_name,
            spec_hash=spec_hash,
            n_points=n_points,
            wall_s=wall_s,
            points=[self._points[key] for key in sorted(self._points)],
            metrics=metrics,
        )

    def __repr__(self) -> str:
        return f"RunTelemetry(points={len(self._points)})"
