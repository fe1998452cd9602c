"""Span/trace API with parent/child nesting and a JSON-lines sink.

A trace file is newline-delimited JSON.  The first record is always a
header carrying :data:`TRACE_SCHEMA_VERSION`; every later record is either
a completed span or a point event::

    {"record": "header", "schema_version": 1, "clock": "perf_counter", ...}
    {"record": "span", "id": 3, "parent": 2, "name": "phase.mac",
     "start_s": 0.0123, "duration_s": 0.0004}
    {"record": "event", "id": 7, "parent": 2, "name": "macro.rollback",
     "at_s": 0.0181, "attrs": {"unused_draws": 41}}

Spans are written when they *end*, so file order is completion order (a
child always precedes its parent); readers reconstruct nesting from the
``parent`` ids, never from line order.  ``start_s`` is the raw monotonic
reading from :mod:`repro.obs.clock` — only differences within one file are
meaningful.

The process-global :data:`TRACER` is ``None`` unless tracing was explicitly
installed; instrumented code reads it through the module attribute
(``_obs_trace.TRACER``), so the disabled cost is one attribute check.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import IO, Any, Dict, Iterator, List, Optional, Protocol, Tuple, Union

from repro.obs import clock as _clock

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "PHASES",
    "TraceSink",
    "JsonLinesTraceSink",
    "ListTraceSink",
    "Tracer",
    "PhaseRecorder",
    "TRACER",
    "install_tracer",
    "uninstall_tracer",
    "tracing",
    "span",
    "event",
]

#: Bump on any backwards-incompatible change to the record shapes above.
TRACE_SCHEMA_VERSION = 1

#: Engine phase order — one ``phase.<name>`` span each per frame.
PHASES = ("channel", "traffic", "mac", "phy", "metrics")


class TraceSink(Protocol):
    """Anything that can absorb trace records (one dict per record)."""

    def write(self, record: Dict[str, Any]) -> None: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


class JsonLinesTraceSink:
    """Append-only JSON-lines file sink."""

    def __init__(self, path: Union[str, Any]) -> None:
        self.path = str(path)
        self._fh: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"trace sink already closed: {self.path}")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        state = "open" if self._fh is not None else "closed"
        return f"JsonLinesTraceSink({self.path!r}, {state})"


class ListTraceSink:
    """In-memory sink for tests: records accumulate on :attr:`records`."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.flushes = 0

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def flush(self) -> None:
        self.flushes += 1

    def close(self) -> None:
        pass


class Tracer:
    """Writes nested spans and events to a sink.

    Not thread-safe by design: a tracer belongs to the (single) thread
    driving simulations.  Parallel executors therefore trace only their
    serial paths; worker processes never see the parent's tracer.
    """

    def __init__(
        self, sink: TraceSink, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self._sink = sink
        self._next_id = 1
        # (id, name, start_s, attrs) for every open span, root first.
        self._stack: List[Tuple[int, str, float, Dict[str, Any]]] = []
        header: Dict[str, Any] = {
            "record": "header",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
        }
        if meta:
            for key, value in meta.items():
                header.setdefault(key, value)
        sink.write(header)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    # ---------------------------------------------------------------- spans
    def begin(self, name: str, **attrs: Any) -> None:
        """Open a span; it becomes the parent of spans opened before end()."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name, _clock.now(), attrs))

    def end(self) -> None:
        """Close the innermost open span and write its record."""
        end_s = _clock.now()
        if not self._stack:
            raise RuntimeError("Tracer.end() with no open span")
        span_id, name, start_s, attrs = self._stack.pop()
        record: Dict[str, Any] = {
            "record": "span",
            "id": span_id,
            "parent": self._stack[-1][0] if self._stack else None,
            "name": name,
            "start_s": start_s,
            "duration_s": end_s - start_s,
        }
        if attrs:
            record["attrs"] = attrs
        self._sink.write(record)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """``with tracer.span("phase.mac", frames=16): ...``"""
        self.begin(name, **attrs)
        try:
            yield
        finally:
            self.end()

    def event(self, name: str, **attrs: Any) -> None:
        """Write a zero-duration point event under the current span."""
        event_id = self._next_id
        self._next_id += 1
        record: Dict[str, Any] = {
            "record": "event",
            "id": event_id,
            "parent": self._stack[-1][0] if self._stack else None,
            "name": name,
            "at_s": _clock.now(),
        }
        if attrs:
            record["attrs"] = attrs
        self._sink.write(record)

    # ------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        """Close any spans left open (e.g. on error), then the sink."""
        while self._stack:
            self.end()
        self._sink.flush()
        self._sink.close()

    def __repr__(self) -> str:
        return f"Tracer(depth={self.depth}, sink={self._sink!r})"


class PhaseRecorder:
    """Drop-in phase clock: per-phase second totals plus optional spans.

    Same ``start(phase)`` / ``stop()`` bracket API as the engine's old
    private ``_PhaseClock``, so `MacroRunner`'s call sites are unchanged —
    but each bracket now *also* emits a real ``phase.<name>`` span when a
    tracer is attached, which is how ``obs summarize`` reproduces the
    ``enable_phase_timing`` split from a trace file.
    """

    __slots__ = ("times", "tracer", "phase", "_t0")

    def __init__(
        self, times: Dict[str, float], tracer: Optional[Tracer] = None
    ) -> None:
        self.times = times
        self.tracer = tracer
        #: Name of the phase currently open ("" between brackets) — the
        #: kernel dispatch counter reads this to attribute entries.
        self.phase = ""
        self._t0 = 0.0

    def start(self, phase: str) -> None:
        self.phase = phase
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("phase." + phase)
        self._t0 = _clock.now()

    def stop(self) -> None:
        elapsed = _clock.now() - self._t0
        times = self.times
        phase = self.phase
        times[phase] = times.get(phase, 0.0) + elapsed
        if self.tracer is not None:
            self.tracer.end()
        self.phase = ""

    def __repr__(self) -> str:
        return f"PhaseRecorder(phase={self.phase!r}, traced={self.tracer is not None})"


#: Process-global tracer; ``None`` = tracing disabled (the default).
TRACER: Optional[Tracer] = None


def install_tracer(
    target: Union[str, Any, TraceSink],
    meta: Optional[Dict[str, Any]] = None,
) -> Tracer:
    """Install a process-global tracer writing to ``target``.

    ``target`` is a path (opened as a :class:`JsonLinesTraceSink`) or an
    existing sink.  Replacing an installed tracer closes the old one.
    """
    global TRACER
    if TRACER is not None:
        uninstall_tracer()
    sink: TraceSink
    if hasattr(target, "write") and hasattr(target, "close"):
        sink = target  # type: ignore[assignment]
    else:
        sink = JsonLinesTraceSink(target)
    TRACER = Tracer(sink, meta=meta)
    return TRACER


def uninstall_tracer() -> None:
    """Close and remove the process-global tracer (no-op when absent)."""
    global TRACER
    tracer = TRACER
    TRACER = None
    if tracer is not None:
        tracer.close()


@contextmanager
def tracing(
    target: Union[str, Any, TraceSink],
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[Tracer]:
    """Scope a process-global tracer: install on entry, close on exit."""
    tracer = install_tracer(target, meta=meta)
    try:
        yield tracer
    finally:
        if TRACER is tracer:
            uninstall_tracer()
        else:  # someone replaced it mid-scope; still release ours
            tracer.close()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[None]:
    """Module-level span: no-op when no tracer is installed."""
    tracer = TRACER
    if tracer is None:
        yield
        return
    with tracer.span(name, **attrs):
        yield


def event(name: str, **attrs: Any) -> None:
    """Module-level event: no-op when no tracer is installed."""
    tracer = TRACER
    if tracer is not None:
        tracer.event(name, **attrs)
