"""Trace-file aggregation — the engine behind ``repro obs summarize``.

Reads a JSON-lines trace written by :class:`repro.obs.trace.Tracer`,
validates the header's schema version, and reduces the span stream into
per-name aggregates (count / total / mean / max) plus a slowest-spans view
keyed on ``point.run``.  The same helpers back the tests that assert a
traced run reproduces the ``enable_phase_timing`` split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.trace import TRACE_SCHEMA_VERSION

__all__ = [
    "SpanAggregate",
    "TraceSummary",
    "load_trace",
    "summarize_trace",
    "format_summary",
]


@dataclass(frozen=True)
class SpanAggregate:
    """All spans of one name, reduced."""

    name: str
    count: int
    total_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass(frozen=True)
class TraceSummary:
    """One trace file, reduced to aggregates."""

    header: Dict[str, Any]
    n_spans: int
    n_events: int
    #: Per-name aggregates, largest total first.
    aggregates: List[SpanAggregate]
    #: Event counts by name.
    events: Dict[str, int]
    #: ``point.run`` spans sorted slowest-first (raw records, with attrs).
    slowest_points: List[Dict[str, Any]]

    def phase_seconds(self) -> Dict[str, float]:
        """Total seconds per engine phase (``phase.*`` spans)."""
        return {
            agg.name[len("phase."):]: agg.total_s
            for agg in self.aggregates
            if agg.name.startswith("phase.")
        }

    def by_name(self, name: str) -> Optional[SpanAggregate]:
        for agg in self.aggregates:
            if agg.name == name:
                return agg
        return None


def load_trace(
    path: Union[str, Any]
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse a trace file into ``(header, records)``.

    Raises ``ValueError`` for a missing/misplaced header, an unsupported
    schema version, or a corrupt line — a trace is a single-writer artifact,
    so unlike the result store there is no salvage path.
    """
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    with open(str(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: corrupt trace line: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: trace records must be objects"
                )
            if header is None:
                if record.get("record") != "header":
                    raise ValueError(
                        f"{path}: first record must be a header, "
                        f"got {record.get('record')!r}"
                    )
                version = int(record.get("schema_version", 0))
                if version > TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}: trace schema v{version} is newer than "
                        f"supported v{TRACE_SCHEMA_VERSION}"
                    )
                header = record
                continue
            records.append(record)
    if header is None:
        raise ValueError(f"{path}: empty trace (no header record)")
    return header, records


def summarize_trace(
    path: Union[str, Any], slowest: int = 5
) -> TraceSummary:
    """Reduce one trace file into a :class:`TraceSummary`."""
    header, records = load_trace(path)
    totals: Dict[str, Tuple[int, float, float]] = {}
    events: Dict[str, int] = {}
    points: List[Dict[str, Any]] = []
    n_spans = 0
    n_events = 0
    for record in records:
        kind = record.get("record")
        name = str(record.get("name", ""))
        if kind == "span":
            n_spans += 1
            duration = float(record.get("duration_s", 0.0))
            count, total, peak = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (count + 1, total + duration, max(peak, duration))
            if name == "point.run":
                points.append(record)
        elif kind == "event":
            n_events += 1
            events[name] = events.get(name, 0) + 1
    aggregates = sorted(
        (
            SpanAggregate(name=name, count=count, total_s=total, max_s=peak)
            for name, (count, total, peak) in totals.items()
        ),
        key=lambda agg: -agg.total_s,
    )
    points.sort(key=lambda rec: -float(rec.get("duration_s", 0.0)))
    return TraceSummary(
        header=header,
        n_spans=n_spans,
        n_events=n_events,
        aggregates=aggregates,
        events=events,
        slowest_points=points[:slowest],
    )


def format_summary(summary: TraceSummary, top: int = 12) -> str:
    """Render a summary as the fixed-width table the CLI prints."""
    lines: List[str] = []
    header = summary.header
    lines.append(
        f"trace schema v{header.get('schema_version')} · "
        f"{summary.n_spans} spans · {summary.n_events} events"
    )
    lines.append("")
    lines.append(
        f"{'span':<28} {'count':>8} {'total_s':>10} {'mean_ms':>9} {'max_ms':>9}"
    )
    for agg in summary.aggregates[:top]:
        lines.append(
            f"{agg.name:<28} {agg.count:>8} {agg.total_s:>10.4f} "
            f"{agg.mean_s * 1e3:>9.3f} {agg.max_s * 1e3:>9.3f}"
        )
    if len(summary.aggregates) > top:
        lines.append(f"... {len(summary.aggregates) - top} more span names")
    if summary.events:
        lines.append("")
        lines.append(f"{'event':<28} {'count':>8}")
        for name in sorted(summary.events):
            lines.append(f"{name:<28} {summary.events[name]:>8}")
    if summary.slowest_points:
        lines.append("")
        lines.append("slowest points (point.run):")
        for record in summary.slowest_points:
            attrs = record.get("attrs", {})
            label = ", ".join(
                f"{key}={attrs[key]}" for key in sorted(attrs)
            ) or "-"
            lines.append(
                f"  {float(record.get('duration_s', 0.0)) * 1e3:>9.3f} ms  {label}"
            )
    return "\n".join(lines)
