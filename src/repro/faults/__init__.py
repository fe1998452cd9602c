"""repro.faults — deterministic fault injection and retry/degradation policy.

The robustness layer of the executor stack, in two halves:

* **Injection** (:mod:`~repro.faults.plan`, :mod:`~repro.faults.injector`):
  a seed-driven :class:`FaultPlan` describes which failures to inject
  (point crashes, hangs, sink-write failures, torn store appends) and the
  process-global :class:`FaultInjector` executes it at instrumented sites.
  Configure per call (``run(faults=...)``) or process-wide via the
  ``REPRO_FAULTS`` environment variable.

* **Recovery** (:mod:`~repro.faults.retry`): a :class:`RetryPolicy`
  retries transient failures with exponential backoff and deterministic
  jitter, enforces a cooperative per-point timeout, and — in
  ``on_error="record"`` mode — degrades a terminally failed point to a
  :class:`FailedPoint` record instead of aborting the grid.

Both halves are deterministic by construction: a chaos run replays
bit-identically given the same plan, policy, and execution order.
"""

from repro.faults.errors import (
    FatalPointError,
    InjectedFault,
    PointTimeout,
    TransientPointError,
)
from repro.faults.injector import (
    INJECTOR,
    FaultInjector,
    active_plan,
    injecting,
    install,
    uninstall,
)
from repro.faults.plan import FAULTS_ENV_VAR, FaultPlan
from repro.faults.retry import (
    FailedPoint,
    PointFailed,
    RetryPolicy,
    run_point_attempts,
)

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultInjector",
    "INJECTOR",
    "install",
    "uninstall",
    "injecting",
    "active_plan",
    "TransientPointError",
    "FatalPointError",
    "PointTimeout",
    "InjectedFault",
    "RetryPolicy",
    "FailedPoint",
    "PointFailed",
    "run_point_attempts",
]
