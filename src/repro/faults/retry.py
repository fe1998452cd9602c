"""Retry, backoff and graceful-degradation policy for point execution.

:class:`RetryPolicy` is threaded through every executor's
``execute_with_sink`` (``retry=`` keyword): each point attempt that fails
with a *transient* error (see :mod:`repro.faults.errors`) is retried up to
``max_attempts`` times with exponential backoff and deterministic jitter;
a *fatal* error is never retried (the simulations are deterministic — a
point that raised ``ValueError`` once will raise it every time).

When the attempts are exhausted (or the error is fatal), the policy's
``on_error`` mode decides the blast radius:

* ``"raise"`` (default) — the point's :class:`PointFailed` re-raises once
  the rest of the grid has run;
* ``"record"`` — the point degrades to a :class:`FailedPoint` record in
  the executor's result list, the rest of the grid keeps running, and the
  caller reads the partial results plus
  :meth:`~repro.api.resultset.ResultSet.errors`.

Jitter is drawn from a dedicated RNG child stream keyed by
``(jitter_seed, run_hash, attempt)`` — fully decoupled from the simulation
streams (injecting faults can never perturb simulated results) yet
deterministic, so a replayed chaos run backs off identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

import numpy as np

from repro.faults.errors import (
    FatalPointError,
    PointTimeout,
    TransientPointError,
)
from repro.obs import clock as _clock
from repro.obs import metrics as _metrics
from repro.sim.rng import child_stream

__all__ = [
    "FailedPoint",
    "PointFailed",
    "RetryPolicy",
    "PointOutcome",
    "give_up",
    "run_point_attempts",
]

#: Exception families retried by default: the explicit transient hierarchy
#: plus the environmental errors a multi-process run can hit (worker pipe
#: loss, filesystem hiccups, cooperative timeouts).
_TRANSIENT_TYPES: Tuple[Type[BaseException], ...] = (
    TransientPointError,
    TimeoutError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class FailedPoint:
    """Terminal failure record of one grid point (JSON round-trippable).

    Takes a result's place in the executor output when the retry policy
    runs in ``on_error="record"`` mode; :class:`~repro.api.resultset.ResultSet`
    surfaces these through ``errors()`` while aggregation keeps working
    over the points that did complete.
    """

    run_hash: str
    error_type: str
    message: str
    attempts: int
    transient: bool

    def to_payload(self) -> Dict[str, Any]:
        return {
            "run_hash": self.run_hash,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "transient": self.transient,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FailedPoint":
        return cls(
            run_hash=str(payload["run_hash"]),
            error_type=str(payload["error_type"]),
            message=str(payload.get("message", "")),
            attempts=int(payload.get("attempts", 1)),
            transient=bool(payload.get("transient", False)),
        )

    @classmethod
    def from_error(
        cls, run_hash: str, error: BaseException, attempts: int,
        transient: bool,
    ) -> "FailedPoint":
        return cls(
            run_hash=run_hash,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
            transient=transient,
        )


class PointFailed(RuntimeError):
    """Raised in ``on_error="raise"`` mode once a point's attempts are spent.

    Carries the structured :class:`FailedPoint`; the original error is
    chained as ``__cause__``.
    """

    def __init__(self, failed: FailedPoint) -> None:
        super().__init__(
            f"point {failed.run_hash} failed after {failed.attempts} "
            f"attempt(s): {failed.error_type}: {failed.message}"
        )
        self.failed = failed

    def __reduce__(self) -> "tuple[type, tuple[FailedPoint], dict[str, Any]]":
        # Rebuild from the record, not from the formatted message in
        # ``args``, so the error survives the trip back from a pool worker;
        # the attributes ride along (a pool worker's metrics snapshot).
        return (type(self), (self.failed,), self.__dict__)


#: What one guarded point execution produces.
PointOutcome = Union[Any, FailedPoint]


@dataclass(frozen=True)
class RetryPolicy:
    """How point failures are retried, timed out, and degraded.

    Attributes
    ----------
    max_attempts:
        Total attempts per point (1 = no retry).  A
        :class:`~repro.api.executors.ParallelExecutor` also fails a point
        whose worker died under it this many times.
    backoff_s:
        Base backoff before attempt 2; attempt ``n`` waits
        ``backoff_s * backoff_factor**(n-2)``, capped at ``max_backoff_s``.
        Zero disables sleeping entirely (the common testing configuration).
    backoff_factor:
        Exponential growth factor of the backoff.
    max_backoff_s:
        Upper bound of any single backoff sleep.
    jitter:
        Fraction of the backoff randomised: the sleep is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]`` off a dedicated
        child stream keyed by ``(jitter_seed, run_hash, attempt)`` —
        deterministic, but de-synchronised across points so a herd of
        retrying workers does not stampede in lockstep.
    jitter_seed:
        Seed of the jitter stream (independent of every simulation seed).
    timeout_s:
        Cooperative per-point time budget: an attempt whose wall time
        exceeds it is discarded, once it returns, and classified as a
        transient :class:`~repro.faults.errors.PointTimeout`.  ``None``
        disables.
    on_error:
        ``"raise"`` (a :class:`PointFailed` re-raises after the grid) or
        ``"record"`` (degrade the point to a :class:`FailedPoint` and keep
        going).
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0
    jitter: float = 0.5
    jitter_seed: int = 0
    timeout_s: Optional[float] = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.on_error not in ("raise", "record"):
            raise ValueError("on_error must be 'raise' or 'record'")

    # -------------------------------------------------------- classification
    @staticmethod
    def classify(error: BaseException) -> bool:
        """True when ``error`` is transient (worth another attempt)."""
        if isinstance(error, FatalPointError):
            return False
        return isinstance(error, _TRANSIENT_TYPES)

    # --------------------------------------------------------------- backoff
    def backoff_for(self, run_hash: str, attempt: int) -> float:
        """Seconds to sleep before ``attempt`` (2-based), jitter applied."""
        if self.backoff_s <= 0.0 or attempt <= 1:
            return 0.0
        base = self.backoff_s * self.backoff_factor ** (attempt - 2)
        base = min(base, self.max_backoff_s)
        if self.jitter <= 0.0:
            return base
        # Dedicated retry child stream: deterministic per (seed, point,
        # attempt), independent of all simulation streams.
        seq = np.random.SeedSequence(self.jitter_seed)  # isolated retry-jitter entropy, never feeds a simulation. lint: allow[RNG001]
        gen = child_stream(seq, f"retry:{run_hash}:{attempt}")  # per-(point,attempt) label, collision-free by construction. lint: allow[RNG002]
        scale = 1.0 + self.jitter * (2.0 * float(gen.random()) - 1.0)
        return base * scale


def run_point_attempts(
    policy: Optional[RetryPolicy],
    run_hash: str,
    attempt_fn: Callable[[int], Any],
) -> PointOutcome:
    """Drive one point through the policy's attempt loop.

    ``attempt_fn(attempt_number)`` performs one execution attempt (fault
    injection included — the injector's ``point_attempt`` site lives inside
    it).  Without a policy this is a single bare call, preserving the
    historical behaviour byte for byte.  With one:

    * transient failures retry with backoff until ``max_attempts``;
    * fatal failures stop immediately;
    * the terminal failure either raises :class:`PointFailed`
      (``on_error="raise"``) or returns a :class:`FailedPoint`
      (``on_error="record"``) — callers branch on the returned type.

    Metrics: every re-attempt increments ``retry.attempts``; a terminal
    failure increments ``executor.failed_points``.
    """
    if policy is None:
        return attempt_fn(1)
    last_error: Optional[BaseException] = None
    transient = False
    attempts_made = 0
    for attempt in range(1, policy.max_attempts + 1):
        attempts_made = attempt
        if attempt > 1:
            m = _metrics.METRICS
            if m.enabled:
                m.inc("retry.attempts")
            pause = policy.backoff_for(run_hash, attempt)
            if pause > 0.0:
                time.sleep(pause)
        t0 = _clock.now()
        try:
            result = attempt_fn(attempt)
        except Exception as error:
            last_error = error
            transient = policy.classify(error)
            if not transient:
                break
            continue
        if (
            policy.timeout_s is not None
            and _clock.now() - t0 > policy.timeout_s
        ):
            last_error = PointTimeout(
                f"point {run_hash} attempt {attempt} exceeded the "
                f"{policy.timeout_s:g}s budget"
            )
            transient = True
            continue
        return result
    assert last_error is not None
    return give_up(policy, run_hash, last_error, attempts_made, transient)


def give_up(
    policy: RetryPolicy,
    run_hash: str,
    error: BaseException,
    attempts: int,
    transient: bool,
) -> FailedPoint:
    """Fail a point for good: its :class:`FailedPoint` in ``"record"`` mode.

    In ``"raise"`` mode it raises :class:`PointFailed` from ``error``
    instead.  Either way ``executor.failed_points`` counts the failure.
    """
    m = _metrics.METRICS
    if m.enabled:
        m.inc("executor.failed_points")
    failed = FailedPoint.from_error(run_hash, error, attempts, transient)
    if policy.on_error == "record":
        return failed
    raise PointFailed(failed) from error
