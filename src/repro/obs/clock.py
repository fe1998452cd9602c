"""The single sanctioned timing seam.

Every monotonic/CPU timestamp in the tree is read here and nowhere else:
the lint suite's KRN002 rule flags ``time.perf_counter`` / ``time.monotonic``
/ ``time.process_time`` calls anywhere outside this module (and forbids them
outright inside ``@kernel`` bodies), so "where does this duration come from"
always has exactly one answer.  The suppressions below are the reasoned
``lint: allow`` entries KRN002's docstring points at.

Keeping the seam one function deep also keeps it patchable: tests that need
deterministic durations monkeypatch ``repro.obs.clock.now`` once and every
span, phase split and telemetry wall time in the process follows.
"""

from __future__ import annotations

import time

__all__ = ["now", "now_ns", "cpu_now"]


def now() -> float:
    """Monotonic wall-clock seconds (the span/trace time base)."""
    # The one sanctioned perf_counter read.  lint: allow[KRN002]
    return time.perf_counter()


def now_ns() -> int:
    """Integer-nanosecond twin of :func:`now` for allocation-free deltas."""
    # The one sanctioned perf_counter_ns read.  lint: allow[KRN002]
    return time.perf_counter_ns()


def cpu_now() -> float:
    """Process CPU seconds — the benchmark-grade time base.

    Excludes sleep/IO, matching what ``benchmarks/test_bench_hotpath.py``
    times and what ``python -m repro profile`` reports as fps.
    """
    # The one sanctioned process_time read.  lint: allow[KRN002]
    return time.process_time()
