"""Fleet worker: claim leased points, execute, heartbeat, persist, repeat.

A :class:`FleetWorker` is the unit a fleet run spawns once per process.
Its loop is deliberately boring::

    reap -> claim -> (store dedupe?) -> execute (retry policy)
         -> store.put (fsync) -> complete -> repeat

Crash safety comes from the ordering: the result reaches the
content-addressed store *before* the lease is marked done, so a worker
killed between the two leaves a point whose re-execution is a free store
hit, never a lost result.  A background daemon thread heartbeats the lease
every ``lease_ttl_s / 4`` with a one-point
:class:`~repro.obs.report.RunReport` payload, so ``repro fleet status``
shows who is computing what; the fault injector's ``lease_heartbeat`` gate
can suppress beats to rehearse lease expiry under a live worker.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Optional, Union

from repro.api.executors import run_point
from repro.api.spec import RunPoint
from repro.faults import injector as _faults
from repro.faults.plan import FaultPlan
from repro.faults.retry import FailedPoint, PointFailed, RetryPolicy
from repro.fleet.service import WorkService, payload_to_params
from repro.obs import metrics as _metrics
from repro.obs.report import PointReport, RunReport
from repro.store.store import ResultStore

__all__ = ["FleetWorker", "worker_process_main"]


class FleetWorker:
    """One claim-execute-persist loop over a shared :class:`WorkService`.

    Parameters
    ----------
    service:
        The shared lease queue (or a database path to open one).
    store:
        Result store (or path).  Opened with ``fsync=True`` when a path is
        given: a completed point must survive this process being SIGKILLed
        immediately afterwards.
    worker_id:
        Stable identity used for leases; defaults to ``pid:<pid>``.
    poll_s:
        Sleep between claim attempts while peers still hold leases.
    retry:
        In-worker :class:`RetryPolicy` for transient point failures.
    """

    def __init__(
        self,
        service: Union[WorkService, str],
        store: Union[ResultStore, str],
        worker_id: Optional[str] = None,
        poll_s: float = 0.05,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.service = (
            service if isinstance(service, WorkService)
            else WorkService(service)
        )
        self.store = (
            store if isinstance(store, ResultStore)
            else ResultStore(store, fsync=True)
        )
        self.worker_id = worker_id or f"pid:{os.getpid()}"
        self.poll_s = poll_s
        self.retry = retry
        #: Points this worker marked done (simulated or deduped).
        self.completed = 0
        #: Points served straight from the store without simulating.
        self.dedup_hits = 0

    # -------------------------------------------------------------- heartbeat
    def _heartbeat_payload(self, position: int,
                           point: RunPoint) -> Dict[str, Any]:
        report = RunReport(
            spec_name="",
            spec_hash=str(self.service.get_meta("spec_hash") or ""),
            n_points=1,
            wall_s=None,
            points=[PointReport(
                position=position,
                run_hash=point.run_hash(),
                protocol=point.scenario.protocol,
                coords=point.coords_dict(),
                cache="in-progress",
                worker=self.worker_id,
            )],
            metrics={},
        )
        return report.to_payload()

    def _start_heartbeat(
        self, position: int, point: RunPoint
    ) -> threading.Event:
        """Heartbeat the point's lease until the returned event is set."""
        stop = threading.Event()
        interval = self.service.lease_ttl_s / 4.0
        run_hash = point.run_hash()
        payload = self._heartbeat_payload(position, point)

        def beat() -> None:
            while not stop.wait(interval):
                injector = _faults.INJECTOR
                if injector is not None and not injector.lease_heartbeat(
                    self.worker_id
                ):
                    continue  # injected connectivity loss: skip this beat
                if not self.service.heartbeat(
                    self.worker_id, run_hash, payload
                ):
                    return  # lease lost; nothing left to extend

        thread = threading.Thread(
            target=beat, name=f"heartbeat-{self.worker_id}", daemon=True
        )
        thread.start()
        return stop

    # ------------------------------------------------------------------- loop
    def run_one(self) -> bool:
        """Claim and finish at most one point; False when queue is empty."""
        self.service.reap()
        item = self.service.claim(self.worker_id)
        if item is None:
            return False
        point = item.point
        run_hash = point.run_hash()

        cached = self.store.get(run_hash)
        if cached is not None:
            # Someone (a prior attempt, a killed peer, an earlier run)
            # already paid for this point; completing without simulating is
            # what makes lease reclamation duplication-free.
            self.dedup_hits += 1
            m = _metrics.METRICS
            if m.enabled:
                m.inc("fleet.dedup_hits")
            if self.service.complete(self.worker_id, run_hash, executed=False):
                self.completed += 1
            return True

        params = payload_to_params(self.service.get_meta("params") or {})
        stop = self._start_heartbeat(item.position, point)
        try:
            outcome, _report = run_point(
                item.position, point, params, self.retry
            )
        except PointFailed as error:
            self.service.fail(self.worker_id, run_hash, str(error))
            return True
        except Exception as error:
            # No retry policy (or a non-point error): park the point rather
            # than crash the worker — the queue's attempt cap decides when
            # to give up for good.
            self.service.fail(
                self.worker_id, run_hash, f"{type(error).__name__}: {error}"
            )
            return True
        finally:
            stop.set()
        if isinstance(outcome, FailedPoint):
            self.service.fail(
                self.worker_id, run_hash,
                f"{outcome.error_type}: {outcome.message}"
            )
            return True
        self.store.put(run_hash, outcome, coords=point.coords_dict())
        if self.service.complete(self.worker_id, run_hash, executed=True):
            self.completed += 1
        return True

    def run(self) -> int:
        """Drain the queue; returns how many points this worker completed.

        Exits when no work is claimable *and* no peer holds a live lease —
        as long as someone is computing, stay around, because their lease
        may expire and need picking up.
        """
        while True:
            if self.run_one():
                continue
            if self.service.unfinished() == 0:
                return self.completed
            time.sleep(self.poll_s)

    def __repr__(self) -> str:
        return (
            f"FleetWorker({self.worker_id!r}, completed={self.completed}, "
            f"dedup_hits={self.dedup_hits})"
        )


def worker_process_main(
    db_path: str,
    store_path: str,
    worker_id: str,
    poll_s: float = 0.05,
    retry: Optional[RetryPolicy] = None,
    fault_spec: Optional[str] = None,
    lease_ttl_s: float = 10.0,
) -> None:
    """Entry point for a spawned fleet worker process.

    Installs the shipped fault plan (fresh counters — a forked process must
    not inherit the parent injector's state), then drains the queue.
    """
    if fault_spec:
        _faults.install(FaultPlan.from_spec(fault_spec))
    else:
        _faults.uninstall()
    worker = FleetWorker(
        WorkService(db_path, lease_ttl_s=lease_ttl_s),
        ResultStore(store_path, fsync=True),
        worker_id=worker_id,
        poll_s=poll_s,
        retry=retry,
    )
    worker.run()
