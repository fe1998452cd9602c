"""Process-global metrics registry with a no-op default.

Hot paths (kernel entries, cache lookups, contention rounds) follow one
pattern::

    from repro.obs import metrics as _metrics
    ...
    m = _metrics.METRICS
    if m.enabled:
        m.inc("store.cache_hit")

Reading ``METRICS`` through the module attribute (never ``from ... import
METRICS``) is what makes :func:`install` / :func:`recording` take effect at
call sites; the ``enabled`` check is the *entire* disabled-mode cost — one
attribute load and a branch, no dict touch, no allocation.  That budget is
enforced by the opt-in overhead benchmark in ``tests/obs``.

Metric names are dotted strings (``contention.rounds``,
``executor.worker_busy_seconds``, ...); the registry is intentionally
schema-free — whatever name a subsystem increments simply appears in
:meth:`snapshot`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Union

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "NULL",
    "install",
    "uninstall",
    "recording",
]

Number = Union[int, float]


class Histogram:
    """Streaming summary of observed values: count / sum / min / max.

    Deliberately bucket-free: the consumers (run telemetry snapshots,
    ``obs summarize``) want tail spotting, not distribution plots, and a
    four-field summary keeps :meth:`MetricsRegistry.observe` allocation-free
    after the first observation.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: Number) -> None:
        value = float(value)
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.total:g})"


class MetricsRegistry:
    """Counters, gauges and histograms keyed by dotted metric names.

    Thread-safe for concurrent increments from several threads; the lock
    is only ever taken when a registry is actually recording, so the
    disabled default costs nothing.
    """

    #: Hot paths gate on this before touching any other attribute.
    enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ---------------------------------------------------------------- write
    def inc(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def gauge(self, name: str, value: Number) -> None:
        """Set the gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: Number) -> None:
        """Feed one observation into the histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def merge(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, histograms combine their count, sum, min and max, and
        gauges take the snapshot's value.  Pool workers ship each point's
        snapshot back to the coordinator this way.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + float(value)
            self._gauges.update(
                (name, float(value))
                for name, value in snapshot.get("gauges", {}).items()
            )
            for name, summary in snapshot.get("histograms", {}).items():
                count = int(summary["count"])
                if not count:
                    continue
                histogram = self._histograms.setdefault(name, Histogram())
                low, high = float(summary["min"]), float(summary["max"])
                if histogram.count == 0 or low < histogram.min:
                    histogram.min = low
                if histogram.count == 0 or high > histogram.max:
                    histogram.max = high
                histogram.count += count
                histogram.total += float(summary["sum"])

    # ----------------------------------------------------------------- read
    def counter(self, name: str) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time copy of everything recorded, JSON-ready."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop every recorded value (the registry stays installed)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"{type(self).__name__}(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )


class _NullMetricsRegistry(MetricsRegistry):
    """The process-global default: records nothing, costs nothing.

    Every write is overridden to a bare ``pass`` so even un-gated call
    sites (cold paths that skip the ``enabled`` check) stay no-ops.
    """

    enabled = False

    def inc(self, name: str, value: Number = 1) -> None:
        pass

    def gauge(self, name: str, value: Number) -> None:
        pass

    def observe(self, name: str, value: Number) -> None:
        pass

    def merge(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        pass


#: The shared no-op instance (``METRICS`` points here unless recording).
NULL: MetricsRegistry = _NullMetricsRegistry()

#: Process-global registry.  Read via the module attribute at call sites.
METRICS: MetricsRegistry = NULL


def install(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Make ``registry`` (a fresh one by default) the process-global target."""
    global METRICS
    if registry is None:
        registry = MetricsRegistry()
    METRICS = registry
    return registry


def uninstall() -> None:
    """Restore the no-op default."""
    global METRICS
    METRICS = NULL


@contextmanager
def recording(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Scope a recording registry: install on entry, restore on exit."""
    global METRICS
    previous = METRICS
    active = install(registry)
    try:
        yield active
    finally:
        METRICS = previous
