"""Unified experiment API — the public entry point for running experiments.

Declare *what* to run with :class:`ExperimentSpec` (protocols × axes ×
seeds), decide *how* to run it with an :class:`Executor` (or let
:func:`run` choose), and analyse the outcome through :class:`ResultSet`:

>>> from repro.api import ExperimentSpec, SweepAxis, run
>>> from repro.sim.scenario import Scenario
>>> spec = ExperimentSpec(
...     protocols=("charisma", "rama"),
...     base_scenario=Scenario(protocol="charisma", n_voice=0, n_data=1,
...                            duration_s=0.5, warmup_s=0.25),
...     axes=(SweepAxis("n_voice", (2, 4)),),
...     seeds=(0, 1),
... )
>>> spec.n_runs
8
>>> results = run(spec)
>>> rows = results.aggregate(["voice_loss_rate"], by=("protocol", "n_voice"))
>>> len(rows)
4

Two executors ship: :class:`SerialExecutor` runs in the calling process and
:class:`ParallelExecutor` submits one point per task to a process pool, most
expensive first.  Both run each point through one function,
:func:`~repro.api.executors.run_point`, and hand the result sink every
result with its :class:`~repro.obs.report.PointReport`, which :func:`run`
records as the returned set's telemetry.  Both report progress per point,
record a failing point in ``last_errors`` while the rest of the grid runs,
and stop dispatching on ``cancel()``, raising :class:`ExecutionCancelled`
with the partial results.

Passing ``cache_dir=`` (or ``store=``) to :func:`run` adds the
content-addressed result cache of :mod:`repro.store`: finished points are
served from disk and interrupted sweeps resume where they stopped.
"""

from repro.api.executors import (
    ExecutionCancelled,
    Executor,
    ParallelExecutor,
    ProgressCallback,
    ResultSink,
    SerialExecutor,
    select_executor,
)
from repro.api.facade import run, sweep_spec
from repro.api.resultset import AggregateRow, ResultSet, RunRecord
from repro.api.spec import (
    ExperimentSpec,
    RunPoint,
    SweepAxis,
    parameter_sweepable_fields,
    scenario_sweepable_fields,
)

__all__ = [
    "AggregateRow",
    "CachingExecutor",
    "ExecutionCancelled",
    "Executor",
    "ExperimentSpec",
    "ParallelExecutor",
    "ProgressCallback",
    "ResultSet",
    "ResultSink",
    "ResultStore",
    "RunPoint",
    "RunRecord",
    "SerialExecutor",
    "SweepAxis",
    "parameter_sweepable_fields",
    "run",
    "scenario_sweepable_fields",
    "select_executor",
    "sweep_spec",
]

#: Names re-exported lazily from :mod:`repro.store` (which itself imports
#: this package's executor substrate — a module-level import here would be
#: circular).
_STORE_EXPORTS = {"CachingExecutor", "ResultStore"}


def __getattr__(name: str) -> object:
    if name in _STORE_EXPORTS:
        import importlib

        value = getattr(importlib.import_module("repro.store"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
