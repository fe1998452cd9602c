"""Execution backends for expanded experiment grids.

Every :class:`~repro.api.spec.RunPoint` is an independent simulation, which
makes a grid an embarrassingly parallel workload.  An :class:`Executor` turns
an ordered run list into the equally-ordered list of
:class:`~repro.sim.results.SimulationResult` objects through its one method,
``execute_with_sink``; the two shipped backends are

* :class:`SerialExecutor` — runs in the calling process.  Zero overhead;
  right for small grids and for debugging.
* :class:`ParallelExecutor` — fans out across a
  :class:`concurrent.futures.ProcessPoolExecutor`, one point per task.  The
  shared :class:`~repro.config.SimulationParameters` object is shipped to
  each worker exactly once through the pool initializer.  Points are
  submitted most expensive first (:func:`estimated_point_cost`) under a
  fixed in-flight bound, so whichever worker frees first takes the next
  most expensive point: longest-processing-time (LPT) list scheduling.
  A worker that dies (a crash, the OOM killer, a ``SIGKILL``) breaks the
  pool and fails every point in flight with ``BrokenProcessPool``.  The
  executor then builds a fresh pool and reruns those points first, one at
  a time: a death while a point runs alone is that point's own, and a
  point whose worker dies under it ``max_attempts`` times (once with no
  retry policy) fails like any other.

Both run each point through :func:`run_point` and keep one contract:
``progress(done, total)`` is called after every completed point and
``sink(position, point, result, report)`` as each result arrives, with the
point's :class:`~repro.obs.report.PointReport`; a failing point is
recorded in ``last_errors`` while the rest of the grid still runs, and its
error re-raises once the grid has wound down;
:meth:`SerialExecutor.cancel` stops dispatch and raises
:class:`ExecutionCancelled` with the partial results.  While the caller's
metrics registry records, each pool worker records into its own and the
caller merges the snapshot that comes back with each point's outcome or
error.
:func:`select_executor` picks between the backends from the grid's
estimated cost.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.config import SimulationParameters
from repro.constellation.runner import usable_cpus
from repro.faults import injector as _faults
from repro.faults.plan import FaultPlan
from repro.faults.retry import (
    FailedPoint,
    PointFailed,
    PointOutcome,
    RetryPolicy,
    give_up,
    run_point_attempts,
)
from repro.obs import clock as _obs_clock
from repro.obs import metrics as _metrics
from repro.obs import trace as _obs_trace
from repro.obs.report import PointReport
from repro.sim.results import SimulationResult
from repro.sim.runner import run_simulation
from repro.api.spec import RunPoint

__all__ = [
    "Executor",
    "ExecutionCancelled",
    "ProgressCallback",
    "ResultSink",
    "SerialExecutor",
    "ParallelExecutor",
    "run_point",
    "select_executor",
    "estimated_grid_cost",
    "estimated_point_cost",
]

#: ``progress(done, total)`` — invoked after every completed run.
ProgressCallback = Callable[[int, int], None]

#: ``sink(position, point, result, report)`` — invoked in the submitting
#: process as each result becomes available (computed, or served from a
#: cache), where ``position`` indexes the run list passed to the executor
#: and ``report`` is the point's :class:`~repro.obs.report.PointReport`.
#: The caching layer uses it to persist results incrementally so an
#: interrupted grid keeps everything finished so far; :func:`repro.api.run`
#: records the reports.  Under a ``RetryPolicy(on_error="record")`` the
#: third argument may be a :class:`~repro.faults.retry.FailedPoint` instead
#: of a result, and its report is ``None`` — sinks that persist must branch
#: on the type.
ResultSink = Callable[
    [int, RunPoint, SimulationResult, Optional[PointReport]], None
]

#: What :func:`run_point` returns: the point's outcome and its report.
PointRun = Tuple[PointOutcome, PointReport]


class ExecutionCancelled(RuntimeError):
    """A grid execution was cancelled before every point finished.

    Attributes
    ----------
    completed:
        Number of points that finished (their results reached the sink).
    total:
        Number of points in the cancelled grid.
    results:
        Partial result list in run-list order (``None`` for unfinished
        points).
    """

    def __init__(self, completed: int, total: int,
                 results: Sequence[Optional[SimulationResult]]) -> None:
        super().__init__(
            f"execution cancelled after {completed} of {total} runs"
        )
        self.completed = completed
        self.total = total
        self.results = list(results)


def run_point(
    position: int,
    point: RunPoint,
    params: SimulationParameters,
    retry: Optional[RetryPolicy] = None,
) -> PointRun:
    """Run one point under the retry policy; return its outcome and report.

    The one point primitive of :class:`SerialExecutor` and the pool
    workers.  Each attempt passes through the fault
    injector's ``point_attempt`` gate and, when a tracer is installed, runs
    in a ``point.run`` span; with a retry policy in ``on_error="record"``
    mode a terminally failed point comes back as a
    :class:`~repro.faults.retry.FailedPoint`.  The report's ``wall_s`` is
    the time spent on the point, retries included.
    """
    resolved = point.resolved_params(params)
    run_hash = point.run_hash()
    scenario = point.scenario

    def attempt(attempt_number: int) -> SimulationResult:
        injector = _faults.INJECTOR
        if injector is not None:
            injector.point_attempt(run_hash, attempt_number)
        tracer = _obs_trace.TRACER
        if tracer is None:
            return run_simulation(scenario, resolved)
        with tracer.span("point.run", index=point.index,
                         protocol=scenario.protocol, seed=scenario.seed):
            return run_simulation(scenario, resolved)

    t0 = _obs_clock.now()
    outcome = run_point_attempts(retry, run_hash, attempt)
    frames = scenario.warmup_frames(resolved) + scenario.measured_frames(resolved)
    return outcome, PointReport(
        position=position,
        run_hash=run_hash,
        protocol=scenario.protocol,
        coords=point.coords_dict(),
        wall_s=_obs_clock.now() - t0,
        worker=f"pid:{os.getpid()}",
        frames=frames * getattr(scenario, "n_beams", 1),
    )


class Executor(Protocol):
    """Anything that can evaluate an ordered run list.

    Implementations must return results in run-list order and must be
    deterministic: the same points and parameters always produce the same
    results regardless of scheduling.
    """

    def execute_with_sink(
        self,
        points: Sequence[RunPoint],
        params: SimulationParameters,
        progress: Optional[ProgressCallback] = None,
        sink: Optional[ResultSink] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[SimulationResult]:
        """Evaluate every point and return results in the same order.

        ``sink`` sees each result with its report as it arrives, and
        ``retry`` governs failed attempts.
        """
        ...


class _Delivery:
    """One grid's results, handed to the caller as each point finishes.

    The delivery step the serial and the pool loop share: a point's error
    lands in the executor's ``last_errors``; a result fills its slot,
    reaches the sink with its report and the progress callback, and its
    seconds count as ``executor.worker_busy_seconds``.
    """

    def __init__(
        self,
        executor: "SerialExecutor",
        points: Sequence[RunPoint],
        progress: Optional[ProgressCallback],
        sink: Optional[ResultSink],
    ) -> None:
        executor.last_errors = []
        self.executor = executor
        self.points = points
        self.progress = progress
        self.sink = sink
        self.results: List[Optional[SimulationResult]] = [None] * len(points)
        self.done = 0

    def error(self, position: int, error: Exception) -> None:
        self.executor.last_errors.append((position, error))
        m = _metrics.METRICS
        if m.enabled:
            m.inc("executor.worker_errors")

    def result(self, position: int, outcome: PointOutcome,
               report: Optional[PointReport]) -> None:
        m = _metrics.METRICS
        if m.enabled and report is not None:
            m.inc("executor.worker_busy_seconds", report.wall_s or 0.0)
        self.results[position] = outcome
        self.done += 1
        if self.sink is not None:
            failed = isinstance(outcome, FailedPoint)
            self.sink(position, self.points[position], outcome,
                      None if failed else report)
        if self.progress is not None:
            self.progress(self.done, len(self.points))

    def worker_deaths(self, position: int, error: BrokenProcessPool,
                      deaths: int, retry: Optional[RetryPolicy]) -> None:
        """Fail a point whose worker died under it ``deaths`` times.

        As any failed point: a :class:`~repro.faults.retry.FailedPoint`
        result in ``"record"`` mode, a :class:`PointFailed` error in
        ``"raise"`` mode, and the bare error with no policy.
        """
        if retry is None:
            self.error(position, error)
            return
        try:
            failed = give_up(retry, self.points[position].run_hash(), error,
                             deaths, transient=True)
        except PointFailed as failure:
            self.error(position, failure)
            return
        self.result(position, failed, None)

    def finish(self) -> List[SimulationResult]:
        """The results, or the cancellation or first error of an unfinished grid.

        Before :class:`ExecutionCancelled` or the first point error (with
        its own type) propagates, ``progress`` hears the definitive
        ``(done, total)`` — even when no point ran — and the installed
        tracer is flushed, so a progress bar and a ``--trace`` file both
        end in a consistent state.
        """
        done, total = self.done, len(self.points)
        if done == total:
            return self.results  # type: ignore[return-value]
        if self.progress is not None:
            self.progress(done, total)
        tracer = _obs_trace.TRACER
        if tracer is not None:
            tracer.flush()
        if self.executor.cancelled:
            raise ExecutionCancelled(done, total, self.results)
        raise self.executor.last_errors[0][1]


class SerialExecutor:
    """Evaluate the run list one point at a time in the calling process.

    Parameters
    ----------
    cancel_event:
        Optional externally-owned :class:`threading.Event`; set it (or call
        :meth:`cancel`) to stop dispatching new points.  A cancelled
        execution raises :class:`ExecutionCancelled` after the points in
        flight finish.
    """

    def __init__(self, cancel_event: Optional[threading.Event] = None) -> None:
        self._cancel_event = cancel_event or threading.Event()
        #: ``(position, error)`` pairs of the most recent execution.  A
        #: raising point does not stop the grid: its failure is recorded
        #: here, the remaining points still run, and the first error
        #: re-raises only after the grid has wound down.
        self.last_errors: List[Tuple[int, Exception]] = []

    def cancel(self) -> None:
        """Stop dispatching new points; points in flight still finish."""
        self._cancel_event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._cancel_event.is_set()

    def execute_with_sink(
        self,
        points: Sequence[RunPoint],
        params: SimulationParameters,
        progress: Optional[ProgressCallback] = None,
        sink: Optional[ResultSink] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[SimulationResult]:
        deliver = _Delivery(self, points, progress, sink)
        for position, point in enumerate(points):
            if self.cancelled:
                break
            try:
                outcome, report = run_point(position, point, params, retry)
            except Exception as error:
                deliver.error(position, error)
                continue
            deliver.result(position, outcome, report)
        return deliver.finish()

    def __repr__(self) -> str:
        return "SerialExecutor()"


# ----------------------------------------------------------- worker plumbing
#: Shared parameters installed in each worker by the pool initializer, so the
#: (large, immutable) SimulationParameters object is pickled once per worker
#: instead of once per job.
_WORKER_PARAMS: Optional[SimulationParameters] = None
#: Retry policy applied in-worker (set alongside _WORKER_PARAMS).
_WORKER_RETRY: Optional[RetryPolicy] = None

#: What a worker sends back per point: the run, and the point's metrics
#: snapshot when the caller records.
WorkerOutcome = Tuple[PointRun, Optional[Dict[str, Dict[str, object]]]]


def _worker_init(
    params: SimulationParameters,
    retry: Optional[RetryPolicy],
    fault_spec: Optional[str],
    record_metrics: bool,
) -> None:
    global _WORKER_PARAMS, _WORKER_RETRY
    _WORKER_PARAMS = params
    _WORKER_RETRY = retry
    # A forked worker inherits the parent's injector *object* (counts
    # included), which would skew periodic triggers; always reset to a
    # fresh injector built from the shipped spec, or to none at all.
    if fault_spec:
        _faults.install(FaultPlan.from_spec(fault_spec))
    else:
        _faults.uninstall()
    # Likewise its registry, holding the caller's counts so far: record
    # into a fresh one of its own, whose snapshots the caller merges.
    if record_metrics:
        _metrics.install()
    else:
        _metrics.uninstall()
    # It also inherits the parent's tracer with its unflushed file buffer.
    # Dropped without a flush or close: a worker that wrote or flushed it
    # would repeat the header and interleave spans in the parent's trace.
    _obs_trace.TRACER = None


def _worker_run_point(point: RunPoint, position: int) -> WorkerOutcome:
    """Evaluate one point in a pool worker through :func:`run_point`.

    Retry jitter and targeted fault injection key on the point's run hash,
    never on the scheduling order.  An error the point raises (in
    ``on_error="raise"`` mode) propagates with the point's metrics snapshot
    as its ``metrics_snapshot`` attribute, and the caller's future
    re-raises it.
    """
    params = _WORKER_PARAMS
    if params is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker pool initializer did not run")
    registry = _metrics.METRICS
    if registry.enabled:
        registry.reset()
    try:
        ran = run_point(position, point, params, _WORKER_RETRY)
    except Exception as error:
        if registry.enabled:
            error.metrics_snapshot = registry.snapshot()  # type: ignore[attr-defined]
        raise
    return ran, registry.snapshot() if registry.enabled else None


#: Points submitted to the pool but not yet finished, per worker.  With two,
#: a worker that finishes finds its next point already queued instead of
#: idling through the round trip to the coordinator: on 2 workers, 256
#: points of about 1.3 ms took 0.32 s against 0.40 s with one in flight.
#: A small bound keeps a cancellation prompt and caps what one dead worker
#: takes down with it.
_IN_FLIGHT_PER_WORKER = 2


class ParallelExecutor(SerialExecutor):
    """Fan the run list out across worker processes, one point per task.

    Points are submitted most expensive first, at most
    ``_IN_FLIGHT_PER_WORKER`` per worker at a time, so a few expensive
    points start early and cannot strand the rest of the grid.  Results are
    identical to serial execution (each point is an independent seeded
    simulation); only the completion order differs.  With one worker or one
    point the grid runs in-process through :class:`SerialExecutor`, whose
    cancellation, error and progress contract the pool path keeps.

    Parameters
    ----------
    n_workers:
        Worker processes; defaults to the CPUs this process may run on.
    cancel_event:
        As for :class:`SerialExecutor`.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        cancel_event: Optional[threading.Event] = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        super().__init__(cancel_event)
        self.n_workers = n_workers if n_workers is not None else usable_cpus()

    def execute_with_sink(
        self,
        points: Sequence[RunPoint],
        params: SimulationParameters,
        progress: Optional[ProgressCallback] = None,
        sink: Optional[ResultSink] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[SimulationResult]:
        total = len(points)
        n_workers = min(self.n_workers, total)
        if n_workers <= 1:
            return super().execute_with_sink(points, params, progress, sink, retry)
        deliver = _Delivery(self, points, progress, sink)
        # The sort is stable, so points of equal cost keep run-list order.
        queue = deque(sorted(
            range(total), key=lambda position: -estimated_point_cost(points[position])
        ))
        # The active fault plan travels to workers as its spec string; each
        # worker installs a fresh injector (counts restart per process).
        plan = _faults.active_plan()
        initargs = (
            params,
            retry,
            plan.to_spec() if plan is not None else None,
            _metrics.METRICS.enabled,
        )
        pool = ProcessPoolExecutor(max_workers=n_workers,
                                   initializer=_worker_init, initargs=initargs)
        in_flight: Dict[Future[WorkerOutcome], int] = {}

        def submit(position: int) -> None:
            in_flight[pool.submit(
                _worker_run_point, points[position], position=position
            )] = position

        # Points a broken pool took down, in rerun order, each with its own
        # deaths so far.  They rerun first, one at a time, so a death then
        # is the running point's own; ``limit`` of them fail it.
        lost: Dict[int, int] = {}
        limit = retry.max_attempts if retry is not None else 1
        try:
            while True:
                try:
                    if not lost:
                        while (len(in_flight) < n_workers * _IN_FLIGHT_PER_WORKER
                               and queue and not self.cancelled):
                            submit(queue[0])
                            queue.popleft()
                    elif not in_flight and not self.cancelled:
                        submit(next(iter(lost)))
                        m = _metrics.METRICS
                        if m.enabled:
                            m.inc("retry.attempts")
                    if not in_flight:
                        break
                    finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in finished:
                        broken = future.exception()
                        if isinstance(broken, BrokenProcessPool):
                            raise broken
                        position = in_flight.pop(future)
                        lost.pop(position, None)
                        try:
                            ran, snapshot = future.result()
                        except Exception as error:
                            snapshot = getattr(error, "metrics_snapshot", None)
                            if snapshot is not None:
                                _metrics.METRICS.merge(snapshot)
                            deliver.error(position, error)
                            continue
                        if snapshot is not None:
                            _metrics.METRICS.merge(snapshot)
                        deliver.result(position, *ran)
                except BrokenProcessPool as error:
                    # A worker died, and with it every point in flight.
                    pool.shutdown()
                    pool = ProcessPoolExecutor(max_workers=n_workers,
                                               initializer=_worker_init,
                                               initargs=initargs)
                    if lost:
                        position = next(iter(lost))
                        lost[position] += 1
                        if lost[position] == limit:
                            deliver.worker_deaths(position, error,
                                                  lost.pop(position), retry)
                    else:
                        lost = dict.fromkeys(in_flight.values(), 0)
                    in_flight.clear()
        finally:
            # Only an exception leaves queued points behind; they never start.
            pool.shutdown(cancel_futures=True)
        return deliver.finish()

    def __repr__(self) -> str:
        return f"ParallelExecutor(n_workers={self.n_workers})"


def estimated_point_cost(point: RunPoint) -> float:
    """Rough serial cost of one run, in terminal-simulated-seconds.

    The engine's work per point scales with the simulated time and with the
    number of terminals it steps each frame; the product is a serviceable
    unitless cost model.  :class:`ParallelExecutor` uses it to dispatch
    expensive points first (longest-processing-time order), which is what
    keeps heterogeneous grids load-balanced.
    """
    scenario = point.scenario
    return (scenario.duration_s + scenario.warmup_s) * (scenario.n_terminals + 1)


def estimated_grid_cost(points: Sequence[RunPoint]) -> float:
    """Rough serial cost of a grid (sum of :func:`estimated_point_cost`);
    used for deciding whether process fan-out is worth its start-up price.
    """
    return sum(estimated_point_cost(p) for p in points)


#: Grids cheaper than this (terminal-seconds) stay serial: below it the
#: process pool's interpreter start-up and pickling overhead typically
#: exceeds the simulation time saved.
_PARALLEL_COST_THRESHOLD = 2000.0


def select_executor(
    points: Sequence[RunPoint],
    n_workers: Optional[int] = None,
) -> Executor:
    """Pick an executor for a grid.

    An explicit ``n_workers`` forces the choice (1 → serial, >1 → parallel).
    Otherwise the grid goes parallel only when this process may run on more
    than one CPU, there is more than one point to overlap, and the estimated
    cost is large enough to amortise the pool start-up.
    """
    if n_workers is not None:
        if n_workers == 1:
            return SerialExecutor()
        return ParallelExecutor(n_workers=n_workers)
    cpus = usable_cpus()
    if (
        cpus > 1
        and len(points) > 1
        and estimated_grid_cost(points) >= _PARALLEL_COST_THRESHOLD
    ):
        return ParallelExecutor(n_workers=min(cpus, len(points)))
    return SerialExecutor()
