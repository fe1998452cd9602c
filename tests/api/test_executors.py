"""Tests for the execution backends: serial/parallel parity, per-point
dispatch, the cancellation and error contract, selection."""

import os

import pytest

from repro.api import (
    ExecutionCancelled,
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    SweepAxis,
    run,
    select_executor,
)
from repro.api.executors import estimated_grid_cost, estimated_point_cost
from repro.api.spec import RunPoint
from repro.config import SimulationParameters
from repro.sim.scenario import Scenario

PARAMS = SimulationParameters()
BASE = Scenario(protocol="charisma", n_voice=0, n_data=1,
                duration_s=0.4, warmup_s=0.2)


def _small_spec():
    return ExperimentSpec(
        protocols=("charisma", "dtdma_fr"),
        base_scenario=BASE,
        axes=(SweepAxis("n_voice", (2, 4)),),
        params=PARAMS,
        seeds=(0, 1),
    )


def _heterogeneous_spec():
    """Point costs vary by an order of magnitude across the axis."""
    return ExperimentSpec(
        protocols=("charisma",),
        base_scenario=BASE,
        axes=(SweepAxis("n_voice", (1, 2, 3, 30)),),
        params=PARAMS,
        seeds=(0,),
    )


def _big_spec():
    """A grid costly enough for select_executor to fan out."""
    return ExperimentSpec(
        protocols=("charisma",),
        base_scenario=BASE.with_overrides(duration_s=10.0, n_voice=150),
        axes=(SweepAxis("n_data", tuple(range(10, 110, 10))),),
    )


class TestSerialExecutor:
    def test_results_in_expansion_order(self):
        spec = _small_spec()
        results = run(spec, executor=SerialExecutor())
        assert len(results) == spec.n_runs
        for record in results:
            assert record.result.scenario == record.point.scenario

    def test_progress_called_per_run(self):
        spec = _small_spec()
        calls = []
        run(spec, executor=SerialExecutor(),
            progress=lambda done, total: calls.append((done, total)))
        assert calls == [(i + 1, spec.n_runs) for i in range(spec.n_runs)]


class TestParallelExecutor:
    def test_matches_serial_for_identical_seeds(self):
        spec = _small_spec()
        serial = run(spec, executor=SerialExecutor())
        parallel = run(spec, executor=ParallelExecutor(n_workers=2))
        assert serial.to_records() == parallel.to_records()

    def test_param_axis_matches_serial(self):
        spec = ExperimentSpec(
            protocols=("charisma",),
            base_scenario=BASE.with_overrides(n_voice=2),
            axes=(SweepAxis("mean_snr_db", (20.0, 28.5)),),
            params=PARAMS,
            seeds=(0, 1),
        )
        serial = run(spec, executor=SerialExecutor())
        parallel = run(spec, executor=ParallelExecutor(n_workers=2))
        assert serial.to_records() == parallel.to_records()

    def test_progress_reports_monotonic_completion(self):
        spec = _small_spec()
        calls = []
        run(spec, executor=ParallelExecutor(n_workers=2),
            progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (spec.n_runs, spec.n_runs)
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)

    def test_single_worker_falls_back_to_serial(self):
        spec = _small_spec()
        results = run(spec, executor=ParallelExecutor(n_workers=1))
        assert len(results) == spec.n_runs

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(n_workers=0)


class TestPerPointDispatch:
    def test_matches_serial_byte_for_byte(self):
        spec = _small_spec()
        serial = run(spec, executor=SerialExecutor())
        fanned = run(spec, executor=ParallelExecutor(n_workers=2))
        assert fanned.to_records() == serial.to_records()

    def test_heterogeneous_grid_matches_serial(self):
        spec = _heterogeneous_spec()
        serial = run(spec, executor=SerialExecutor())
        fanned = run(spec, executor=ParallelExecutor(n_workers=2))
        assert fanned.to_records() == serial.to_records()

    def test_progress_counts_every_point(self):
        spec = _small_spec()
        calls = []
        run(spec, executor=ParallelExecutor(n_workers=2),
            progress=lambda done, total: calls.append((done, total)))
        assert [c[0] for c in calls] == list(range(1, spec.n_runs + 1))
        assert all(total == spec.n_runs for _, total in calls)

    def test_single_worker_path_matches_serial(self):
        spec = _small_spec()
        serial = run(spec, executor=SerialExecutor())
        single = run(spec, executor=ParallelExecutor(n_workers=1))
        assert single.to_records() == serial.to_records()

    def test_cancellation_keeps_partial_results(self):
        spec = _small_spec()
        executor = ParallelExecutor(n_workers=1)
        seen = []

        def sink(position, point, result, report):
            seen.append(position)
            if len(seen) == 3:
                executor.cancel()

        with pytest.raises(ExecutionCancelled) as excinfo:
            executor.execute_with_sink(spec.expand(), spec.params, sink=sink)
        assert excinfo.value.completed == 3
        assert excinfo.value.total == spec.n_runs
        assert sum(r is not None for r in excinfo.value.results) == 3
        assert executor.cancelled

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(n_workers=0)

    def test_submits_points_in_descending_cost_order(self, monkeypatch):
        # Longest processing time first: the one coordinator hands the next
        # most expensive point to whichever worker frees first.  The run
        # list is cheapest first, so run-list order would fail this.
        from concurrent.futures import ProcessPoolExecutor

        from repro.api import executors

        submitted = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.extend(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", RecordingPool)
        spec = _heterogeneous_spec()
        points = spec.expand()
        ParallelExecutor(n_workers=2).execute_with_sink(points, spec.params)
        assert sorted(p.index for p in submitted) == [p.index for p in points]
        costs = [estimated_point_cost(p) for p in submitted]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] > costs[-1]


class TestCancellationFinalization:
    """A cancelled or failed grid must deliver its final progress state and
    flush the trace sink *before* the exception propagates: a --trace file
    and a progress bar must both end in a consistent state."""

    def test_pre_cancelled_serial_run_reports_zero_progress(self):
        import threading

        spec = _small_spec()
        event = threading.Event()
        event.set()
        executor = ParallelExecutor(n_workers=1, cancel_event=event)
        calls = []
        with pytest.raises(ExecutionCancelled) as excinfo:
            executor.execute_with_sink(
                spec.expand(), spec.params,
                progress=lambda done, total: calls.append((done, total)),
            )
        assert excinfo.value.completed == 0
        assert calls == [(0, spec.n_runs)]

    def test_sink_cancellation_delivers_final_progress(self):
        spec = _small_spec()
        executor = ParallelExecutor(n_workers=1)
        calls = []

        def sink(position, point, result, report):
            if len(calls) == 2:
                executor.cancel()

        with pytest.raises(ExecutionCancelled) as excinfo:
            executor.execute_with_sink(
                spec.expand(), spec.params,
                progress=lambda done, total: calls.append((done, total)),
                sink=sink,
            )
        completed = excinfo.value.completed
        # The very last progress call re-states the definitive (done, total).
        assert calls[-1] == (completed, spec.n_runs)

    def test_worker_exception_recorded_with_final_progress(self):
        """A raising point must not strand the grid — the failure lands in
        ``last_errors``, surviving points drain, the final progress state is
        delivered, and the original exception type re-raises only after the
        wind-down."""
        from repro.faults import FaultPlan, InjectedFault, injecting

        spec = _small_spec()
        executor = ParallelExecutor(n_workers=1)
        calls = []
        delivered = []
        with injecting(FaultPlan(crash_every=3)):
            with pytest.raises(InjectedFault):
                executor.execute_with_sink(
                    spec.expand(), spec.params,
                    progress=lambda done, total: calls.append((done, total)),
                    sink=lambda p, pt, r, rep: delivered.append(p),
                )
        n_failed = len(executor.last_errors)
        assert n_failed == spec.n_runs // 3
        assert all(isinstance(e, InjectedFault)
                   for _, e in executor.last_errors)
        # the survivors all executed and reached the sink
        assert len(delivered) == spec.n_runs - n_failed
        # the very last progress call states the definitive (done, total)
        assert calls[-1] == (spec.n_runs - n_failed, spec.n_runs)

    def test_worker_exception_recorded_on_pool_path(self):
        from repro.faults import FaultPlan, InjectedFault, injecting

        spec = _small_spec()
        executor = ParallelExecutor(n_workers=2)
        delivered = []
        with injecting(FaultPlan(crash_points=(
            spec.expand()[0].run_hash(),
        ), crash_point_attempts=99)):
            with pytest.raises(InjectedFault):
                executor.execute_with_sink(
                    spec.expand(), spec.params,
                    sink=lambda p, pt, r, rep: delivered.append(p),
                )
        assert [p for p, _ in executor.last_errors] == [0]
        assert len(delivered) == spec.n_runs - 1

    def test_worker_errors_counted_in_metrics(self):
        from repro.faults import FaultPlan, injecting
        from repro.obs import metrics as _metrics

        spec = _small_spec()
        executor = ParallelExecutor(n_workers=1)
        with _metrics.recording() as registry:
            with injecting(FaultPlan(crash_every=4)):
                with pytest.raises(Exception):
                    executor.execute_with_sink(spec.expand(), spec.params)
        counters = registry.snapshot()["counters"]
        assert counters["executor.worker_errors"] == spec.n_runs // 4

    def test_retry_policy_recovers_injected_crashes(self):
        from repro.faults import FaultPlan, RetryPolicy, injecting

        spec = _small_spec()
        serial = run(spec, executor=SerialExecutor())
        executor = ParallelExecutor(n_workers=2)
        with injecting(FaultPlan(crash_every=2, seed=3)):
            fanned = run(spec, executor=executor,
                         retry=RetryPolicy(max_attempts=4))
        assert not executor.last_errors
        assert fanned.to_records() == serial.to_records()

    def test_pool_cancellation_stops_dispatch(self):
        spec = _small_spec()
        executor = ParallelExecutor(n_workers=2)
        calls = []
        with pytest.raises(ExecutionCancelled) as excinfo:
            executor.execute_with_sink(
                spec.expand(), spec.params,
                progress=lambda done, total: calls.append((done, total)),
                sink=lambda position, point, result, report: executor.cancel(),
            )
        completed = excinfo.value.completed
        # Only the points already submitted finish after the cancel.
        assert 1 <= completed < spec.n_runs
        assert calls[-1] == (completed, spec.n_runs)
        assert sum(r is not None for r in excinfo.value.results) == completed

    @pytest.mark.parametrize("n_workers", (1, 2))
    @pytest.mark.parametrize("hook", ("sink", "progress"))
    def test_callback_errors_propagate_at_once(self, hook, n_workers):
        # Only a point's own failure is recorded and deferred; an error in
        # the caller's sink or progress callback stops the grid at once.
        spec = _small_spec()
        executor = ParallelExecutor(n_workers=n_workers)
        calls = []

        def fail(*args):
            calls.append(args)
            raise KeyError(hook)

        with pytest.raises(KeyError):
            executor.execute_with_sink(spec.expand(), spec.params,
                                       **{hook: fail})
        assert len(calls) == 1
        assert executor.last_errors == []

    def test_cancellation_flushes_the_installed_tracer(self):
        from repro.obs.trace import (
            ListTraceSink, install_tracer, uninstall_tracer,
        )

        spec = _small_spec()
        executor = ParallelExecutor(n_workers=1)
        sink = ListTraceSink()
        install_tracer(sink)
        try:
            def cancel_after_one(position, point, result, report):
                executor.cancel()

            with pytest.raises(ExecutionCancelled):
                executor.execute_with_sink(
                    spec.expand(), spec.params, sink=cancel_after_one,
                )
            assert sink.flushes >= 1
            assert any(
                r.get("name") == "point.run" for r in sink.records
            )
        finally:
            uninstall_tracer()


class TestPoolWorkerMetrics:
    """Counters a pool worker increments reach the caller's registry."""

    COUNTERS = ("faults.injected", "retry.attempts", "contention.rounds")

    @staticmethod
    def _run(executor, plan, retry):
        from repro.faults import injecting
        from repro.obs import metrics as _metrics

        with _metrics.recording() as registry:
            with injecting(plan):
                results = run(_small_spec(), executor=executor, retry=retry)
        return results, registry.snapshot()["counters"]

    def test_targeted_crashes_count_alike_on_serial_and_pool(self):
        from repro.faults import FaultPlan, RetryPolicy

        points = _small_spec().expand()
        plan = FaultPlan(crash_points=(
            points[0].run_hash(), points[5].run_hash(),
        ), crash_point_attempts=2)
        retry = RetryPolicy(max_attempts=4)
        serial, serial_counts = self._run(SerialExecutor(), plan, retry)
        pooled, pool_counts = self._run(
            ParallelExecutor(n_workers=2), plan, retry)
        assert pooled.to_records() == serial.to_records()
        assert serial_counts["faults.injected"] == 4
        for name in self.COUNTERS:
            assert pool_counts[name] == serial_counts[name] > 0, name

    def test_periodic_crashes_reach_the_caller(self):
        # Periodic triggers count per process, so the pool's total need not
        # match the serial one; every injected crash is still one retry.
        from repro.faults import FaultPlan, RetryPolicy

        plan = FaultPlan(crash_every=2, seed=3)
        _, counts = self._run(ParallelExecutor(n_workers=2), plan,
                              RetryPolicy(max_attempts=4))
        assert counts["faults.injected"] == counts["retry.attempts"] > 0
        assert counts["contention.rounds"] > 0

    def test_a_recorded_failure_ships_its_counters(self):
        from repro.faults import FaultPlan, RetryPolicy

        victim = _small_spec().expand()[2].run_hash()
        plan = FaultPlan(crash_points=(victim,), crash_point_attempts=99)
        retry = RetryPolicy(max_attempts=3, on_error="record")
        serial, serial_counts = self._run(SerialExecutor(), plan, retry)
        pooled, pool_counts = self._run(
            ParallelExecutor(n_workers=2), plan, retry)
        assert [e.run_hash for e in pooled.errors()] == [victim]
        # The injected fault's message names its per-process occurrence.
        pooled_records, serial_records = pooled.to_records(), serial.to_records()
        for records in (pooled_records, serial_records):
            del records[2]["error_message"]
        assert pooled_records == serial_records
        assert serial_counts["faults.injected"] == 3
        for name in ("faults.injected", "retry.attempts",
                     "executor.failed_points", "contention.rounds"):
            assert pool_counts[name] == serial_counts[name] > 0, name

    def test_an_exhausted_point_fails_alone_on_the_pool(self):
        # In on_error="raise" mode the pool records the point's PointFailed
        # like a serial run and keeps every other result; the counts of the
        # failed point's attempts reach the caller with its error.
        from repro.faults import FaultPlan, PointFailed, RetryPolicy, injecting
        from repro.obs import metrics as _metrics

        spec = _small_spec()
        victim = spec.expand()[2].run_hash()
        plan = FaultPlan(crash_points=(victim,), crash_point_attempts=99)
        for executor in (SerialExecutor(), ParallelExecutor(n_workers=2)):
            delivered = []
            with _metrics.recording() as registry, injecting(plan), \
                    pytest.raises(PointFailed) as excinfo:
                executor.execute_with_sink(
                    spec.expand(), spec.params,
                    sink=lambda p, pt, r, rep: delivered.append(p),
                    retry=RetryPolicy(max_attempts=3),
                )
            assert excinfo.value.failed.run_hash == victim
            assert excinfo.value.failed.attempts == 3
            assert [p for p, _ in executor.last_errors] == [2]
            assert sorted(delivered) == [0, 1, 3, 4, 5, 6, 7]
            assert registry.counter("faults.injected") == 3, executor
            assert registry.counter("retry.attempts") == 2, executor
            assert registry.counter("executor.failed_points") == 1, executor


class TestRunPoints:
    def test_parallel_and_serial_identical_for_identical_seeds(self):
        # Regression: the shared SimulationParameters object travels to the
        # workers through the pool initializer; the results must still be
        # exactly those of an in-process loop.
        points = [
            RunPoint(index=i, scenario=BASE.with_overrides(n_voice=n, seed=s))
            for i, (n, s) in enumerate((n, s) for n in (2, 4) for s in (0, 1))
        ]
        serial = select_executor(points, n_workers=1).execute_with_sink(
            points, PARAMS)
        parallel = select_executor(points, n_workers=2).execute_with_sink(
            points, PARAMS)
        assert [r.summary() for r in serial] == [r.summary() for r in parallel]
        assert [r.scenario for r in serial] == [p.scenario for p in points]

    def test_sink_sees_every_completion(self):
        points = [
            RunPoint(index=i, scenario=BASE.with_overrides(seed=i))
            for i in range(3)
        ]
        seen = []
        results = SerialExecutor().execute_with_sink(
            points, PARAMS,
            sink=lambda pos, point, result, report: seen.append(
                (pos, point, result, report)),
        )
        assert [pos for pos, _, _, _ in seen] == [0, 1, 2]
        assert [r for _, _, r, _ in seen] == results
        assert [report.position for _, _, _, report in seen] == [0, 1, 2]
        assert [report.run_hash for _, _, _, report in seen] == \
            [point.run_hash() for point in points]


class TestSelection:
    def test_explicit_workers_force_choice(self):
        points = _small_spec().expand()
        # ParallelExecutor subclasses SerialExecutor: compare exact types.
        assert type(select_executor(points, n_workers=1)) is SerialExecutor
        chosen = select_executor(points, n_workers=3)
        assert isinstance(chosen, ParallelExecutor)
        assert chosen.n_workers == 3

    def test_small_grids_stay_serial(self):
        points = _small_spec().expand()
        assert estimated_grid_cost(points) < 2000.0
        assert type(select_executor(points)) is SerialExecutor

    def test_cost_model_scales_with_grid(self):
        small = _small_spec().expand()
        assert estimated_grid_cost(_big_spec().expand()) > estimated_grid_cost(small)

    def test_default_workers_count_usable_cpus(self, monkeypatch):
        # The cases of the constellation runner's twin test: one helper
        # counts the CPUs for every default worker count.
        points = _big_spec().expand()
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert ParallelExecutor().n_workers == 3
        assert select_executor(points).n_workers == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert ParallelExecutor().n_workers == 1
        assert type(select_executor(points)) is SerialExecutor
        # Explicit arguments keep precedence.
        assert ParallelExecutor(n_workers=2).n_workers == 2
        assert select_executor(points, n_workers=4).n_workers == 4
        # Without an affinity call the machine's CPU count is the default.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert ParallelExecutor().n_workers == 2
        assert select_executor(points).n_workers == 2

    def test_grid_cost_sums_point_costs(self):
        points = _small_spec().expand()
        assert estimated_grid_cost(points) == pytest.approx(
            sum(estimated_point_cost(p) for p in points)
        )
