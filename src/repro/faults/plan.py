"""Declarative, seed-driven fault plans.

A :class:`FaultPlan` says *which* failures to inject and *how often*; the
:class:`~repro.faults.injector.FaultInjector` executes it.  Plans are plain
frozen dataclasses with a compact ``key=value,key=value`` spec syntax, so
one string configures a chaos run end to end::

    REPRO_FAULTS="crash_every=3,seed=7" python -m repro run ...
    run(spec, faults="crash_every=3,hang_every=5,hang_s=0.2", retry=...)

Every trigger is deterministic: periodic triggers (``*_every``) fire on
exact occurrence counts, and the probabilistic trigger (``crash_rate``)
hashes ``(seed, site, occurrence)`` — no wall clock, no global RNG state,
so the same plan over the same execution order injects the same faults.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

__all__ = ["FaultPlan", "FAULTS_ENV_VAR"]

#: Environment knob read by :meth:`FaultPlan.resolve`; same syntax as
#: :meth:`FaultPlan.from_spec`.
FAULTS_ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, where, and how often.

    All counters are per injection *site* and 1-based; ``crash_every=3``
    makes every 3rd point attempt raise.  A zero disables that trigger.

    Attributes
    ----------
    seed:
        Drives the deterministic hash behind ``crash_rate`` (and is folded
        into every probabilistic decision); two plans differing only in
        seed fail different occurrences.
    crash_every:
        Raise :class:`~repro.faults.errors.InjectedFault` on every Nth
        point attempt.
    crash_rate:
        Probability in ``[0, 1]`` that any given point attempt raises,
        decided by a seed-driven hash of the occurrence count.
    crash_limit:
        Stop injecting point crashes after this many have fired
        (0 = unlimited) — the knob that lets a chaos run terminate.
    crash_points:
        Run-hash prefixes; a point attempt whose ``run_hash`` starts with
        any of them raises on its first ``crash_point_attempts`` attempts.
        Executor-independent (the trigger travels with the point, not with
        scheduling order).
    crash_point_attempts:
        How many attempts of each matched ``crash_points`` entry fail
        before the point is allowed to succeed (default 1: fail once,
        succeed on retry).
    hang_every:
        Sleep ``hang_s`` wall seconds before every Nth point attempt —
        the trigger for exercising per-point timeouts.
    hang_s:
        Duration of an injected hang.
    sink_fail_every:
        Raise on every Nth result-sink write (exercises the incremental
        persistence path).
    store_torn_every:
        Truncate every Nth :class:`~repro.store.store.ResultStore` shard
        append mid-line — a simulated mid-write kill.
    """

    seed: int = 0
    crash_every: int = 0
    crash_rate: float = 0.0
    crash_limit: int = 0
    crash_points: Tuple[str, ...] = ()
    crash_point_attempts: int = 1
    hang_every: int = 0
    hang_s: float = 0.05
    sink_fail_every: int = 0
    store_torn_every: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_every", "crash_limit", "hang_every",
                     "sink_fail_every", "store_torn_every", "seed",
                     "crash_point_attempts"):
            if int(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ValueError("crash_rate must lie in [0, 1]")
        if self.hang_s < 0.0:
            raise ValueError("hang_s must be non-negative")

    @property
    def active(self) -> bool:
        """Whether any trigger is enabled."""
        return bool(
            self.crash_every or self.crash_rate or self.crash_points
            or self.hang_every or self.sink_fail_every
            or self.store_torn_every
        )

    # ------------------------------------------------------------ spec syntax
    def to_spec(self) -> str:
        """Compact ``key=value,...`` form (inverse of :meth:`from_spec`).

        Only non-default fields are emitted, so the spec string is as short
        as the plan is simple — and shippable to worker processes through
        one environment variable or initializer argument.
        """
        default = FaultPlan()
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value == getattr(default, field.name):
                continue
            if field.name == "crash_points":
                parts.append(f"crash_points={'|'.join(value)}")
            else:
                parts.append(f"{field.name}={value}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"crash_every=3,seed=7"`` into a plan.

        Unknown keys raise with the list of valid ones; values are coerced
        to the field's type (``crash_points`` entries are ``|``-separated).
        """
        values: Dict[str, object] = {}
        field_types = {f.name: f.type for f in dataclasses.fields(cls)}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"fault spec entry {part!r} is not key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in field_types:
                raise ValueError(
                    f"unknown fault spec key {key!r}; valid keys: "
                    f"{', '.join(sorted(field_types))}"
                )
            if key == "crash_points":
                values[key] = tuple(
                    token for token in raw.split("|") if token
                )
            elif key in ("crash_rate", "hang_s"):
                values[key] = float(raw)
            else:
                values[key] = int(raw)
        return cls(**values)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan configured via :data:`FAULTS_ENV_VAR`, or None."""
        env = environ if environ is not None else dict(os.environ)
        spec = env.get(FAULTS_ENV_VAR, "").strip()
        if not spec:
            return None
        return cls.from_spec(spec)

    @classmethod
    def resolve(
        cls, faults: Union[None, str, "FaultPlan"]
    ) -> Optional["FaultPlan"]:
        """Normalise a user-facing ``faults=`` argument.

        ``None`` falls back to the environment knob; a string is parsed as
        a spec; a plan passes through.  Returns None when no (active) plan
        is configured anywhere.
        """
        plan: Optional[FaultPlan]
        if faults is None:
            plan = cls.from_env()
        elif isinstance(faults, str):
            plan = cls.from_spec(faults)
        else:
            plan = faults
        if plan is not None and not plan.active:
            return None
        return plan
