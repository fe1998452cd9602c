"""Transparent result caching over any executor.

:class:`CachingExecutor` wraps an inner
:class:`~repro.api.executors.Executor` and a
:class:`~repro.store.store.ResultStore`: points whose
:meth:`~repro.api.spec.RunPoint.run_hash` is already stored are served from
disk without simulating, and every freshly computed result is persisted *as
it completes* (through the inner executor's result sink), which makes
``run()`` resumable — kill a sweep half-way and the next identical
invocation only executes the missing points.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional, Sequence, Union

from repro.api.executors import (
    Executor,
    ProgressCallback,
    ResultSink,
    SerialExecutor,
)
from repro.api.spec import RunPoint, config_digest
from repro.config import SimulationParameters
from repro.faults import injector as _faults
from repro.faults.retry import RetryPolicy
from repro.obs import clock as _obs_clock
from repro.obs import metrics as _metrics
from repro.obs.report import PointReport
from repro.sim.results import SimulationResult
from repro.store.store import ResultStore

__all__ = ["CachingExecutor"]


class CachingExecutor:
    """Serve cached points from a :class:`ResultStore`, compute the rest.

    Parameters
    ----------
    store:
        The on-disk result store (or a path-like, which opens one).
    inner:
        Executor for the cache misses; defaults to :class:`SerialExecutor`.

    After each :meth:`execute_with_sink` call, :attr:`hits` and
    :attr:`misses` report how many points were served from the store versus
    simulated — the accounting the selftest and the acceptance tests assert
    on.  The sink sees a hit's report labelled ``hit`` (its wall time is
    the store lookup) and the inner executor's reports relabelled ``miss``
    at their grid positions.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, "os.PathLike[str]"],
        inner: Optional[Executor] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.inner: Executor = inner if inner is not None else SerialExecutor()
        #: Cache hits / misses of the most recent execute_with_sink() call.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ keys
    @staticmethod
    def key_for(point: RunPoint, params: SimulationParameters) -> str:
        """The store key of one point under the given shared parameters.

        ``run_hash()`` already folds in the spec's parameter digest; points
        built outside :meth:`~repro.api.spec.ExperimentSpec.expand` (legacy
        paths) may carry an empty digest, in which case the digest of the
        parameters actually in force is filled in so the same scenario under
        different base parameters can never collide.
        """
        if not point.params_digest:
            point = dataclasses.replace(point, params_digest=config_digest(params))
        return point.run_hash()

    # ------------------------------------------------------------------- API
    def execute_with_sink(
        self,
        points: Sequence[RunPoint],
        params: SimulationParameters,
        progress: Optional[ProgressCallback] = None,
        sink: Optional[ResultSink] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[SimulationResult]:
        total = len(points)
        self.hits = 0
        self.misses = 0
        results: List[Optional[SimulationResult]] = [None] * total
        keys = [self.key_for(point, params) for point in points]

        missing: List[int] = []
        for position, point in enumerate(points):
            t0 = _obs_clock.now()
            cached = self.store.get(keys[position])
            if cached is not None and cached.scenario != point.scenario:
                # Defensive: a digest collision (or a poisoned entry) must
                # surface as a miss, never as a wrong result.
                cached = None
            if cached is None:
                missing.append(position)
                continue
            results[position] = cached
            self.hits += 1
            # The sink contract is "called once per available result", not
            # "once per simulation" — layered consumers (e.g. a caching
            # executor wrapping this one) rely on seeing hits too.
            if sink is not None:
                sink(position, point, cached, PointReport(
                    position=position,
                    run_hash=keys[position],
                    protocol=point.scenario.protocol,
                    coords=point.coords_dict(),
                    wall_s=_obs_clock.now() - t0,
                    cache="hit",
                ))
        if progress is not None and self.hits:
            progress(self.hits, total)

        self.misses = len(missing)
        m = _metrics.METRICS
        if m.enabled:
            if self.hits:
                m.inc("store.cache_hit", self.hits)
            if self.misses:
                m.inc("store.cache_miss", self.misses)
        if missing:
            sub_points = [points[position] for position in missing]

            def inner_sink(sub_position: int, point: RunPoint,
                           result: SimulationResult,
                           report: Optional[PointReport]) -> None:
                position = missing[sub_position]
                results[position] = result
                if isinstance(result, SimulationResult):
                    injector = _faults.INJECTOR
                    if injector is not None:
                        injector.sink_write(keys[position])
                    self.store.put(keys[position], result,
                                   coords=point.coords_dict())
                # A FailedPoint outcome is never persisted: the point stays
                # a cache miss, so the next identical invocation retries it.
                if sink is not None:
                    if report is not None:
                        report = dataclasses.replace(
                            report, position=position, cache="miss"
                        )
                    sink(position, point, result, report)

            def inner_progress(sub_done: int, _sub_total: int) -> None:
                if progress is not None:
                    progress(self.hits + sub_done, total)

            self.inner.execute_with_sink(
                sub_points, params, inner_progress, inner_sink, retry
            )

        if any(r is None for r in results):
            raise RuntimeError(
                "inner executor did not produce a result for every miss"
            )  # pragma: no cover - defensive; inner executors validate this
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"CachingExecutor(store={self.store!r}, inner={self.inner!r})"
