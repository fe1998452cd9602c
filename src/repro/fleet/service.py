"""Lease-based work service: the coordination core of fleet execution.

A :class:`WorkService` is a single SQLite file shared by every worker of a
fleet run.  The grid's hash-addressed :class:`~repro.api.spec.RunPoint`
objects are enqueued once; workers then *claim* points under a TTL lease,
extend the lease with heartbeats while computing, and mark it done (or
failed) at the end.  A reaper pass — run by anyone, typically the driver
and each worker before claiming — returns expired leases to the queue, so
a worker that was SIGKILLed, hung, or lost connectivity forfeits its point
to a healthy peer.  Re-execution is harmless: results are persisted to the
content-addressed :class:`~repro.store.ResultStore` under ``run_hash()``,
and a claimed point whose hash is already stored completes without
simulating at all.

Why SQLite: the fleet is single-host multi-process first (the ROADMAP's
stepping stone to multi-host), and one WAL-mode database gives atomic
claims (``BEGIN IMMEDIATE``), durable state across worker crashes, and an
inspectable ``repro fleet status`` surface — with zero new dependencies.

Lease deadlines are wall-clock (``time.time``): they must be comparable
across processes, which the monotonic clock is not.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.spec import RunPoint
from repro.config import PriorityWeights, SimulationParameters
from repro.obs import metrics as _metrics
from repro.store.serialization import payload_to_scenario

__all__ = [
    "WorkService",
    "WorkItem",
    "point_to_payload",
    "payload_to_point",
    "params_to_payload",
    "payload_to_params",
]


def _now() -> float:
    # Lease deadlines must be comparable across worker processes, which
    # only the wall clock is; never feeds back into simulation state.
    return time.time()  # lint: allow[KRN002]


# --------------------------------------------------------------- serialization
def point_to_payload(point: RunPoint) -> Dict[str, Any]:
    """JSON-serialisable form of a :class:`RunPoint` (tuples become lists)."""
    return {
        "index": point.index,
        "scenario": dataclasses.asdict(point.scenario),
        "param_overrides": [list(pair) for pair in point.param_overrides],
        "coords": [list(pair) for pair in point.coords],
        "params_digest": point.params_digest,
    }


def payload_to_point(payload: Dict[str, Any]) -> RunPoint:
    """Rebuild the exact :class:`RunPoint` a payload was dumped from."""
    return RunPoint(
        index=int(payload["index"]),
        scenario=payload_to_scenario(payload["scenario"]),
        param_overrides=tuple(
            (str(k), v) for k, v in payload["param_overrides"]
        ),
        coords=tuple((str(k), v) for k, v in payload["coords"]),
        params_digest=str(payload["params_digest"]),
    )


def params_to_payload(params: SimulationParameters) -> Dict[str, Any]:
    """JSON-serialisable form of the shared simulation parameters."""
    return dataclasses.asdict(params)


def payload_to_params(payload: Dict[str, Any]) -> SimulationParameters:
    """Rebuild :class:`SimulationParameters` (tuple/nested fields restored)."""
    data = dict(payload)
    data["mode_throughputs"] = tuple(data["mode_throughputs"])
    data["priority"] = PriorityWeights(**data["priority"])
    return SimulationParameters(**data)


@dataclass(frozen=True)
class WorkItem:
    """One claimed unit of work: the point plus its queue position."""

    position: int
    point: RunPoint
    attempts: int


class WorkService:
    """SQLite-backed lease queue of run points (thread- and process-safe).

    Parameters
    ----------
    path:
        Database file; created on first use.  Every worker of a fleet run
        opens the same file.
    lease_ttl_s:
        How long a claim stays valid without a heartbeat.  Must comfortably
        exceed the heartbeat interval; points cost seconds, so a few
        seconds of TTL keeps reclamation prompt without false expiries.
    max_attempts:
        Claims per point before the reaper parks it as ``failed`` instead
        of re-queueing (guards against a poison point crashing every worker
        in turn, forever).
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS points (
        run_hash     TEXT PRIMARY KEY,
        position     INTEGER NOT NULL,
        payload      TEXT NOT NULL,
        state        TEXT NOT NULL DEFAULT 'pending',
        owner        TEXT,
        deadline     REAL,
        attempts     INTEGER NOT NULL DEFAULT 0,
        executions   INTEGER NOT NULL DEFAULT 0,
        completions  INTEGER NOT NULL DEFAULT 0,
        error        TEXT,
        heartbeat    TEXT
    );
    CREATE INDEX IF NOT EXISTS idx_points_state
        ON points (state, position);
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    );
    """

    def __init__(
        self,
        path: Union[str, "Path"],
        lease_ttl_s: float = 10.0,
        max_attempts: int = 5,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.path = Path(path)
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_attempts = int(max_attempts)
        # One connection per service instance; the heartbeat thread shares
        # it with the worker loop, so serialize access ourselves.
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(self._SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------- meta
    def set_meta(self, key: str, value: Any) -> None:
        """Store one JSON document under a key (spec hash, parameters...)."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, json.dumps(value, sort_keys=True)),
            )
            self._conn.commit()

    def get_meta(self, key: str) -> Optional[Any]:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        return json.loads(row[0]) if row is not None else None

    # ---------------------------------------------------------------- enqueue
    def enqueue(self, points: Sequence[RunPoint]) -> int:
        """Add the grid's points to the queue; returns how many were new.

        Idempotent by ``run_hash``: re-enqueueing an overlapping grid (or
        restarting a driver) never duplicates work, and a point already
        ``done`` stays done.
        """
        added = 0
        with self._lock:
            for position, point in enumerate(points):
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO points (run_hash, position, payload)"
                    " VALUES (?, ?, ?)",
                    (
                        point.run_hash(),
                        position,
                        json.dumps(point_to_payload(point), sort_keys=True),
                    ),
                )
                added += cursor.rowcount
            self._conn.commit()
        return added

    # ------------------------------------------------------------------ leases
    def claim(self, worker_id: str) -> Optional[WorkItem]:
        """Atomically lease the lowest-position pending point, if any.

        Expired leases are reaped first, so a claim right after a peer's
        death picks up its forfeited point.  Returns ``None`` when nothing
        is pending (work may still be in flight under other leases — check
        :meth:`unfinished`).
        """
        deadline = _now() + self.lease_ttl_s
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._reap_locked()
                row = self._conn.execute(
                    "SELECT run_hash, position, payload, attempts FROM points"
                    " WHERE state = 'pending' ORDER BY position LIMIT 1"
                ).fetchone()
                if row is None:
                    self._conn.commit()
                    return None
                run_hash, position, payload, attempts = row
                self._conn.execute(
                    "UPDATE points SET state = 'leased', owner = ?,"
                    " deadline = ?, attempts = attempts + 1"
                    " WHERE run_hash = ?",
                    (worker_id, deadline, run_hash),
                )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return WorkItem(
            position=int(position),
            point=payload_to_point(json.loads(payload)),
            attempts=int(attempts) + 1,
        )

    def heartbeat(
        self, worker_id: str, run_hash: str, payload: Optional[Dict[str, Any]] = None
    ) -> bool:
        """Extend a lease (and attach a progress payload, e.g. a RunReport).

        Returns False when the lease is no longer held — expired and
        reclaimed, or completed by someone else — in which case the worker
        should abandon the point (its eventual result is still safe to
        store: the store is content-addressed).
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE points SET deadline = ?, heartbeat = ?"
                " WHERE run_hash = ? AND owner = ? AND state = 'leased'",
                (
                    _now() + self.lease_ttl_s,
                    json.dumps(payload, sort_keys=True) if payload else None,
                    run_hash,
                    worker_id,
                ),
            )
            self._conn.commit()
        return cursor.rowcount == 1

    def complete(self, worker_id: str, run_hash: str, executed: bool) -> bool:
        """Mark a leased point done; ``executed`` distinguishes a fresh
        simulation from a store-dedupe hit.  Returns False when the lease
        was lost (the point is *not* marked done by this call then).
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE points SET state = 'done', owner = NULL,"
                " deadline = NULL, error = NULL,"
                " completions = completions + 1,"
                " executions = executions + ?"
                " WHERE run_hash = ? AND owner = ? AND state = 'leased'",
                (1 if executed else 0, run_hash, worker_id),
            )
            self._conn.commit()
        return cursor.rowcount == 1

    def fail(self, worker_id: str, run_hash: str, error: str) -> bool:
        """Park a leased point as terminally failed (no more re-queues)."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE points SET state = 'failed', owner = NULL,"
                " deadline = NULL, error = ?"
                " WHERE run_hash = ? AND owner = ? AND state = 'leased'",
                (error, run_hash, worker_id),
            )
            self._conn.commit()
        return cursor.rowcount == 1

    # ------------------------------------------------------------------ reaper
    def _reap_locked(self) -> int:
        """Reclaim expired leases; caller holds the lock and a transaction."""
        now = _now()
        expired = self._conn.execute(
            "SELECT run_hash, attempts FROM points"
            " WHERE state = 'leased' AND deadline < ?",
            (now,),
        ).fetchall()
        if not expired:
            return 0
        reclaimed = 0
        for run_hash, attempts in expired:
            if attempts >= self.max_attempts:
                self._conn.execute(
                    "UPDATE points SET state = 'failed', owner = NULL,"
                    " deadline = NULL, error = ? WHERE run_hash = ?",
                    (
                        f"lease expired after {attempts} attempts",
                        run_hash,
                    ),
                )
            else:
                self._conn.execute(
                    "UPDATE points SET state = 'pending', owner = NULL,"
                    " deadline = NULL WHERE run_hash = ?",
                    (run_hash,),
                )
                reclaimed += 1
        m = _metrics.METRICS
        if m.enabled:
            m.inc("lease.expired", len(expired))
            if reclaimed:
                m.inc("lease.reclaimed", reclaimed)
        return reclaimed

    def reap(self) -> int:
        """Reclaim expired leases; returns how many went back to pending."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                reclaimed = self._reap_locked()
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return reclaimed

    # ----------------------------------------------------------------- queries
    def counts(self) -> Dict[str, int]:
        """Point counts per state plus execution/completion totals."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM points GROUP BY state"
            ).fetchall()
            totals = self._conn.execute(
                "SELECT COALESCE(SUM(executions), 0),"
                " COALESCE(SUM(completions), 0), COUNT(*) FROM points"
            ).fetchone()
        counts = {state: 0 for state in ("pending", "leased", "done", "failed")}
        counts.update({state: int(n) for state, n in rows})
        counts["executions"] = int(totals[0])
        counts["completions"] = int(totals[1])
        counts["total"] = int(totals[2])
        return counts

    def unfinished(self) -> int:
        """Points not yet done or terminally failed."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM points"
                " WHERE state IN ('pending', 'leased')"
            ).fetchone()
        return int(row[0])

    def failed_rows(self) -> List[Tuple[int, str, str, int]]:
        """``(position, run_hash, error, attempts)`` of failed points."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT position, run_hash, error, attempts FROM points"
                " WHERE state = 'failed' ORDER BY position"
            ).fetchall()
        return [
            (int(p), str(h), str(e or ""), int(a)) for p, h, e, a in rows
        ]

    def snapshot(self) -> List[Dict[str, Any]]:
        """Full queue state, one row per point (``repro fleet status``)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT run_hash, position, state, owner, deadline, attempts,"
                " executions, completions, error, heartbeat FROM points"
                " ORDER BY position"
            ).fetchall()
        now = _now()
        out: List[Dict[str, Any]] = []
        for (run_hash, position, state, owner, deadline, attempts,
             executions, completions, error, heartbeat) in rows:
            out.append({
                "run_hash": run_hash,
                "position": int(position),
                "state": state,
                "owner": owner,
                "lease_remaining_s": (
                    round(float(deadline) - now, 3)
                    if deadline is not None else None
                ),
                "attempts": int(attempts),
                "executions": int(executions),
                "completions": int(completions),
                "error": error,
                "heartbeat": json.loads(heartbeat) if heartbeat else None,
            })
        return out

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"WorkService({str(self.path)!r}, ttl={self.lease_ttl_s:g}s, "
            f"pending={counts['pending']}, leased={counts['leased']}, "
            f"done={counts['done']}, failed={counts['failed']})"
        )
