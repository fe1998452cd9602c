"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The injector follows the :mod:`repro.obs.metrics` installation pattern: a
process-global slot read through the module attribute at every site, with a
``None`` default so the disabled cost is one attribute load and a branch::

    from repro import faults as _faults
    ...
    injector = _faults.INJECTOR
    if injector is not None:
        injector.point_attempt(run_hash, attempt)

Sites count occurrences under a lock, decide deterministically from the
plan (periodic triggers on exact counts, probabilistic ones by hashing
``(seed, site, count)``), and raise
:class:`~repro.faults.errors.InjectedFault` — a *transient* error, so the
retry layer recovers exactly as it would from a real worker crash.  Every
fired fault increments the ``faults.injected`` (and per-site
``faults.<site>``) observability counters, which is what makes a chaos run
auditable after the fact.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.faults.errors import InjectedFault
from repro.faults.plan import FaultPlan
from repro.obs import metrics as _metrics

__all__ = [
    "FaultInjector",
    "INJECTOR",
    "install",
    "uninstall",
    "injecting",
    "active_plan",
]


class FaultInjector:
    """Executes a fault plan at the instrumented sites (thread-safe)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._injected: Dict[str, int] = {}
        #: Point crashes fired so far (bounded by ``plan.crash_limit``).
        self._crashes = 0

    # ------------------------------------------------------------- accounting
    def _next_count(self, site: str) -> int:
        """Post-incremented, 1-based occurrence count of a site."""
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            return count

    def _record(self, site: str) -> None:
        with self._lock:
            self._injected[site] = self._injected.get(site, 0) + 1
        m = _metrics.METRICS
        if m.enabled:
            m.inc("faults.injected")
            m.inc(f"faults.{site}")

    def counts(self) -> Dict[str, Dict[str, int]]:
        """Snapshot: per-site occurrence and injection counts."""
        with self._lock:
            return {
                "occurrences": dict(self._counts),
                "injected": dict(self._injected),
            }

    # -------------------------------------------------------------- triggers
    @staticmethod
    def _periodic(every: int, count: int) -> bool:
        return every > 0 and count % every == 0

    def _probabilistic(self, site: str, count: int) -> bool:
        """Seed-driven Bernoulli decision, reproducible per occurrence.

        A CRC of ``(seed, site, count)`` mapped into [0, 1) stands in for
        an RNG draw: deterministic across processes and replays, with no
        shared generator state to desynchronise.
        """
        rate = self.plan.crash_rate
        if rate <= 0.0:
            return False
        token = f"{self.plan.seed}:{site}:{count}".encode("utf-8")
        return (zlib.crc32(token) / 2**32) < rate

    # ----------------------------------------------------------------- sites
    def point_attempt(self, run_hash: str, attempt: int = 1) -> None:
        """Gate one point-execution attempt; raises to inject a crash.

        An injected hang (``hang_every``) sleeps before the crash check,
        so a plan can combine both (a hang that then fails).  Targeted
        ``crash_points`` prefixes fire on the point's first
        ``crash_point_attempts`` attempts regardless of global counters,
        which keeps the trigger deterministic under any executor's
        scheduling order.
        """
        plan = self.plan
        count = self._next_count("point")
        if self._periodic(plan.hang_every, count):
            self._record("hang")
            time.sleep(plan.hang_s)
        targeted = attempt <= plan.crash_point_attempts and any(
            run_hash.startswith(prefix) for prefix in plan.crash_points
        )
        periodic = self._periodic(plan.crash_every, count)
        probabilistic = self._probabilistic("point", count)
        if not (targeted or periodic or probabilistic):
            return
        with self._lock:
            if plan.crash_limit and self._crashes >= plan.crash_limit:
                return
            self._crashes += 1
        self._record("point")
        raise InjectedFault("point", count)

    def sink_write(self, run_hash: str) -> None:
        """Gate one result-sink write; raises to inject a write failure."""
        count = self._next_count("sink")
        if self._periodic(self.plan.sink_fail_every, count):
            self._record("sink")
            raise InjectedFault("sink", count)

    def torn_append(self, line: str) -> str:
        """Possibly truncate a store shard append mid-line.

        Returns the line to actually write: on every
        ``store_torn_every``-th append the line loses its second half and
        its newline — byte-for-byte what a process killed mid-``write``
        leaves behind.
        """
        count = self._next_count("store_append")
        if not self._periodic(self.plan.store_torn_every, count):
            return line
        self._record("store_torn")
        return line[: max(1, len(line) // 2)]

    def __repr__(self) -> str:
        with self._lock:
            fired = sum(self._injected.values())
        return f"FaultInjector(plan={self.plan.to_spec()!r}, fired={fired})"


#: Process-global injector slot.  Read via the module attribute at call
#: sites (``_faults.INJECTOR``) so install/uninstall take effect everywhere.
INJECTOR: Optional[FaultInjector] = None


def install(plan: FaultPlan) -> FaultInjector:
    """Install an injector for ``plan`` as the process-global instance."""
    global INJECTOR
    INJECTOR = FaultInjector(plan)
    return INJECTOR


def uninstall() -> None:
    """Remove the process-global injector (sites become no-ops again)."""
    global INJECTOR
    INJECTOR = None


def active_plan() -> Optional[FaultPlan]:
    """The plan of the currently installed injector, if any."""
    injector = INJECTOR
    return injector.plan if injector is not None else None


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Scope an injector: install on entry, restore the previous on exit."""
    global INJECTOR
    previous = INJECTOR
    injector = install(plan)
    try:
        yield injector
    finally:
        INJECTOR = previous
