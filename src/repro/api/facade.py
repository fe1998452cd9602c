"""The one-call entry point: expand a spec, execute it, wrap the results.

:func:`run` is the single public way to evaluate an
:class:`~repro.api.spec.ExperimentSpec`.  It expands the grid, picks an
executor (unless one is supplied), executes, and returns a
:class:`~repro.api.resultset.ResultSet`.  Everything else in the package —
the CLI, the experiment registry, the benchmark harness — funnels through
it, so concerns like executor selection, progress reporting and result
caching (``cache_dir=`` / ``store=``) live in exactly one place.
"""

from __future__ import annotations

from contextlib import nullcontext as _nullcontext
from typing import Optional, Sequence, Union

from repro.api.executors import Executor, ProgressCallback, select_executor
from repro.api.resultset import ResultSet, RunRecord
from repro.api.spec import ExperimentSpec, RunPoint, SweepAxis
from repro.config import SimulationParameters
from repro.faults import FailedPoint, FaultPlan, RetryPolicy
from repro.faults import injector as _faults_injector
from repro.obs.report import PointReport, RunReport, RunTelemetry
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario

__all__ = ["run", "sweep_spec"]


def run(
    spec: ExperimentSpec,
    executor: Optional[Executor] = None,
    n_workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    store: Optional[object] = None,
    cache_dir: Optional[str] = None,
    telemetry: Union[None, bool, RunTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Union[None, str, FaultPlan] = None,
) -> ResultSet:
    """Execute every run of ``spec`` and return a queryable result set.

    Parameters
    ----------
    spec:
        The declarative experiment grid.
    executor:
        Execution backend; when omitted, :func:`select_executor` chooses
        between serial and process-parallel execution from the grid's
        estimated cost (``n_workers`` forces the choice).
    n_workers:
        Convenience override: 1 forces serial, >1 forces that many worker
        processes.  Ignored when ``executor`` is given.
    progress:
        Optional ``progress(done, total)`` callback.
    store:
        Optional :class:`~repro.store.ResultStore` (or cache-directory
        path): finished points are served from it instead of re-simulating,
        and fresh results are persisted as they complete, so an interrupted
        invocation resumes where it stopped.
    cache_dir:
        Convenience spelling of ``store=``: directory to open (and create)
        a result store in.  Ignored when ``store`` is given.
    telemetry:
        Run-telemetry policy.  ``None`` (default) enables telemetry exactly
        when a result store is involved (``store=``/``cache_dir=`` or a
        :class:`~repro.store.CachingExecutor`), where the per-point
        :class:`~repro.obs.report.RunReport` is also persisted as the store
        artifact ``telemetry-<spec_hash>``.  ``True`` forces collection,
        ``False`` disables it, and a :class:`~repro.obs.report.RunTelemetry`
        instance is used as-is (the caller keeps ownership).  Collection
        records the :class:`~repro.obs.report.PointReport` the executor's
        result sink delivers with each point.  The report is attached to
        the returned set as :attr:`~repro.api.resultset.ResultSet.telemetry`.
    retry:
        Optional :class:`~repro.faults.RetryPolicy`: transient point
        failures are retried with backoff, and with ``on_error="record"``
        a terminally failed point degrades to an error record in the
        returned set (:meth:`~repro.api.resultset.ResultSet.errors`)
        instead of aborting the grid.
    faults:
        Deterministic fault injection for chaos testing: a
        :class:`~repro.faults.FaultPlan`, a spec string such as
        ``"crash_every=3,seed=7"``, or ``None`` to fall back to the
        ``REPRO_FAULTS`` environment variable.  The plan is installed for
        the duration of this call (and shipped to worker processes).

    The returned set's records are in the spec's deterministic expansion
    order regardless of the executor, so serial, parallel and cached runs
    of the same spec are interchangeable.
    """
    from repro.store import CachingExecutor

    points = spec.expand()
    if executor is None:
        executor = select_executor(points, n_workers=n_workers)
    if store is None and cache_dir is not None:
        store = cache_dir
    if store is not None:
        if isinstance(executor, CachingExecutor):
            raise ValueError(
                "pass either a CachingExecutor or store=/cache_dir=, not "
                "both: the executor is already bound to a store and the "
                "extra argument would be silently ignored"
            )
        executor = CachingExecutor(store, inner=executor)

    collector: Optional[RunTelemetry]
    if isinstance(telemetry, RunTelemetry):
        collector = telemetry
    elif telemetry is True:
        collector = RunTelemetry()
    elif telemetry is None and isinstance(executor, CachingExecutor):
        collector = RunTelemetry()
    else:
        collector = None

    plan = FaultPlan.resolve(faults)
    injection = (
        _faults_injector.injecting(plan)
        if plan is not None
        else _nullcontext()
    )

    def record(position: int, point: RunPoint, result: SimulationResult,
               point_report: Optional[PointReport]) -> None:
        if collector is not None and point_report is not None:
            collector.record(point_report)

    report: Optional[RunReport] = None
    with injection:
        if collector is not None:
            collector.start()
        results = executor.execute_with_sink(
            points, spec.params, progress,
            record if collector is not None else None, retry,
        )
        if collector is not None:
            report = collector.report(
                spec_name=spec.name,
                spec_hash=spec.spec_hash(),
                n_points=len(points),
            )
            if isinstance(executor, CachingExecutor):
                executor.store.put_artifact(
                    f"telemetry-{spec.spec_hash()}", report.to_payload()
                )
    if len(results) != len(points):
        raise RuntimeError(
            f"executor returned {len(results)} results for {len(points)} runs"
        )
    records = [
        RunRecord(point=p, error=r) if isinstance(r, FailedPoint)
        else RunRecord(point=p, result=r)
        for p, r in zip(points, results)
    ]
    return ResultSet(records, name=spec.name, telemetry=report)


def sweep_spec(
    protocols: Sequence[str],
    parameter: str,
    values: Sequence[object],
    base_scenario: Scenario,
    params: Optional[SimulationParameters] = None,
    seeds: Sequence[int] = (),
    name: str = "",
) -> ExperimentSpec:
    """Convenience constructor for the ubiquitous one-axis sweep.

    When ``seeds`` is omitted the base scenario's own seed is used, matching
    the legacy ``run_sweep`` behaviour.
    """
    if not seeds:
        seeds = (base_scenario.seed,)
    return ExperimentSpec(
        protocols=protocols,
        base_scenario=base_scenario,
        axes=(SweepAxis(parameter, values),),
        params=params,
        seeds=seeds,
        name=name,
    )
