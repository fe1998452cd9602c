"""Tests for the execution backends: serial/parallel parity, per-point
dispatch, the cancellation and error contract, recovery from a dead pool
worker, selection."""

import json
import os
import signal
from concurrent.futures.process import BrokenProcessPool

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
from repro.constellation.scenario import ConstellationScenario
from repro.faults import PointFailed, RetryPolicy
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


def _record_submissions(monkeypatch):
    """The points handed to pools, rebuilt ones included."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.api import executors

    submitted = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.extend(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(executors, "ProcessPoolExecutor", RecordingPool)
    return submitted


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

    def test_constellation_grid_matches_serial(self):
        # A pool worker steps a constellation's beams in-process, and its
        # result must come back with a ConstellationScenario.
        spec = ExperimentSpec(
            protocols=("rama",),
            base_scenario=ConstellationScenario(
                protocol="rama", n_beams=2, n_voice=3, n_data=1,
                duration_s=0.3, warmup_s=0.1, macro_frames=8,
                handover_rate=0.05,
            ),
            axes=(SweepAxis("n_voice", (3, 5)),),
            params=PARAMS,
        )
        serial = run(spec, executor=SerialExecutor())
        pooled = run(spec, executor=ParallelExecutor(n_workers=2))
        scenarios = [record.result.scenario for record in pooled]
        assert scenarios == [point.scenario for point in spec.expand()]
        assert all(isinstance(s, ConstellationScenario) for s in scenarios)
        assert pooled.to_records() == serial.to_records()

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
        submitted = _record_submissions(monkeypatch)
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


@pytest.fixture
def _bounded():
    # A recovery that reruns a poison point forever must fail the test,
    # not hang it.  Forked workers do not inherit the alarm.
    def expire(signum, frame):
        pytest.fail("the grid did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def small_serial():
    """``_small_spec``'s results, run in-process."""
    spec = _small_spec()
    return SerialExecutor().execute_with_sink(spec.expand(), spec.params)


def _assert_serial(results, serial, except_at=()):
    """Each result but those at ``except_at`` equals the serial one."""
    for position, (result, reference) in enumerate(zip(results, serial)):
        if position not in except_at:
            assert result.summary() == reference.summary(), position


def _submission_order(points):
    """Run-list positions in the order a pool submits them."""
    return sorted(range(len(points)),
                  key=lambda position: -estimated_point_cost(points[position]))


class _ScriptedPools:
    """Process pools whose workers die on cue, without killing a process.

    Installed in place of ``ProcessPoolExecutor``.  Every point really runs,
    except that while a run-list position in ``deaths`` has deaths left,
    its submission returns a future failed with ``BrokenProcessPool``, as
    if its worker had died under it.  The ``broken_submit``-th submission
    to the first pool raises ``BrokenProcessPool``, as if that pool had
    broken before the call.  ``on_build(n)`` runs as the n-th pool is built.

    Per pool built, ``initargs`` holds its initializer arguments,
    ``submitted`` its ``(position, pending)`` submissions, ``pending`` being
    how many of that pool's futures were unfinished at the time, and
    ``open_at_build`` how many earlier pools were not yet shut down.
    """

    def __init__(self, monkeypatch, deaths=None, broken_submit=None,
                 on_build=None):
        from concurrent.futures import Future, ProcessPoolExecutor

        from repro.api import executors

        self.deaths = dict(deaths or {})
        self.initargs = []
        self.submitted = []
        self.open_at_build = []
        pools = []
        script = self

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers, initializer, initargs):
                super().__init__(max_workers=max_workers,
                                 initializer=initializer, initargs=initargs)
                self.futures = []
                self.log = []
                self.closed = False
                script.open_at_build.append(
                    sum(not pool.closed for pool in pools))
                pools.append(self)
                script.initargs.append(initargs)
                script.submitted.append(self.log)
                if on_build is not None:
                    on_build(len(script.submitted))

            def submit(self, fn, /, *args, **kwargs):
                if (self.log is script.submitted[0]
                        and len(self.log) + 1 == broken_submit):
                    raise BrokenProcessPool("the pool broke before the call")
                position = kwargs["position"]
                pending = sum(not future.done() for future in self.futures)
                self.log.append((position, pending))
                if script.deaths.get(position, 0) > 0:
                    script.deaths[position] -= 1
                    future = Future()
                    future.set_exception(BrokenProcessPool("a worker died"))
                else:
                    future = super().submit(fn, *args, **kwargs)
                self.futures.append(future)
                return future

            def shutdown(self, *args, **kwargs):
                self.closed = True
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", Pool)

    def runs_of(self, position):
        """How many times ``position`` was submitted, over every pool."""
        return sum(p == position for log in self.submitted for p, _ in log)

    @property
    def reruns(self):
        """Submissions beyond one per point."""
        return sum(map(len, self.submitted)) - len(
            {p for log in self.submitted for p, _ in log})


@pytest.mark.usefixtures("_bounded")
class TestBrokenPoolRecovery:
    """The recovery's bookkeeping, on pools whose workers die on cue: who
    is lost, what reruns alone, and whose deaths count."""

    @staticmethod
    def _grid():
        spec = _small_spec()
        points = spec.expand()
        return spec, points, _submission_order(points)

    def test_a_death_in_a_crowd_is_not_the_points_own(
            self, monkeypatch, small_serial):
        # With no policy a point fails at its first own death.  The first
        # death struck with three other points in flight, so it counts for
        # none of them.
        spec, points, order = self._grid()
        pools = _ScriptedPools(monkeypatch, deaths={order[0]: 1})
        executor = ParallelExecutor(n_workers=2)
        results = executor.execute_with_sink(points, spec.params)
        assert not executor.last_errors
        _assert_serial(results, small_serial)
        assert pools.runs_of(order[0]) == 2
        assert len(pools.submitted) == 2

    @pytest.mark.parametrize("max_attempts", (1, 3))
    def test_own_deaths_below_max_attempts_recover(
            self, monkeypatch, small_serial, max_attempts):
        from repro.obs import metrics as _metrics

        spec, points, order = self._grid()
        victim = order[0]
        # One death in the crowd, then max_attempts - 1 of its own.
        pools = _ScriptedPools(monkeypatch, deaths={victim: max_attempts})
        executor = ParallelExecutor(n_workers=2)
        with _metrics.recording() as registry:
            results = executor.execute_with_sink(
                points, spec.params,
                retry=RetryPolicy(max_attempts=max_attempts,
                                  on_error="record"))
        assert not executor.last_errors
        _assert_serial(results, small_serial)
        assert pools.runs_of(victim) == max_attempts + 1
        assert registry.counter("retry.attempts") == pools.reruns
        assert registry.counter("executor.failed_points") == 0

    @pytest.mark.parametrize("max_attempts", (1, 3))
    @pytest.mark.parametrize("on_error", ("raise", "record"))
    def test_max_attempts_own_deaths_fail_the_point(
            self, monkeypatch, small_serial, on_error, max_attempts):
        from repro.faults import FailedPoint
        from repro.obs import metrics as _metrics

        spec, points, order = self._grid()
        victim = order[0]
        pools = _ScriptedPools(monkeypatch, deaths={victim: 99})
        executor = ParallelExecutor(n_workers=2)
        retry = RetryPolicy(max_attempts=max_attempts, on_error=on_error)
        delivered = []
        with _metrics.recording() as registry:
            try:
                results = executor.execute_with_sink(
                    points, spec.params, retry=retry,
                    sink=lambda p, pt, result, rep: delivered.append(p))
            except PointFailed as error:
                assert on_error == "raise"
                assert executor.last_errors == [(victim, error)]
                assert isinstance(error.__cause__, BrokenProcessPool)
                failed = error.failed
                assert sorted(delivered) == sorted(set(order) - {victim})
            else:
                assert on_error == "record" and not executor.last_errors
                failed = results[victim]
                assert isinstance(failed, FailedPoint)
                _assert_serial(results, small_serial, except_at=(victim,))
        assert failed == FailedPoint(
            run_hash=points[victim].run_hash(),
            error_type="BrokenProcessPool", message="a worker died",
            attempts=max_attempts, transient=True)
        # One death in the crowd, then max_attempts alone, and no more.
        assert pools.runs_of(victim) == max_attempts + 1
        assert registry.counter("executor.failed_points") == 1

    def test_lost_points_rerun_first_and_alone(self, monkeypatch):
        spec, points, order = self._grid()
        delivered, owed = [], []

        def on_build(n):
            if n == 2:
                owed.extend(p for p, _ in pools.submitted[0]
                            if p not in delivered)

        pools = _ScriptedPools(monkeypatch, deaths={order[0]: 1},
                               on_build=on_build)
        ParallelExecutor(n_workers=2).execute_with_sink(
            points, spec.params,
            sink=lambda p, pt, result, rep: delivered.append(p))
        assert order[0] in owed
        reruns = pools.submitted[1][:len(owed)]
        assert [p for p, _ in reruns] == owed
        assert all(pending == 0 for _, pending in reruns)
        # Then the grid fans out again.
        rest = pools.submitted[1][len(owed):]
        assert sorted(p for p, _ in rest) == sorted(set(order) - set(owed))
        assert any(pending > 0 for _, pending in rest)

    def test_a_submit_into_a_broken_pool_keeps_its_point_queued(
            self, monkeypatch, small_serial):
        # The third submission finds the pool broken: the two points in
        # flight are lost and rerun alone; the third was never taken, so
        # it goes out next, as the first of the fanned-out rest.
        spec, points, order = self._grid()
        pools = _ScriptedPools(monkeypatch, broken_submit=3)
        executor = ParallelExecutor(n_workers=2)
        results = executor.execute_with_sink(points, spec.params)
        assert not executor.last_errors
        _assert_serial(results, small_serial)
        assert [p for p, _ in pools.submitted[0]] == order[:2]
        assert pools.submitted[1][:3] == [
            (order[0], 0), (order[1], 0), (order[2], 0)]
        assert pools.reruns == 2

    def test_the_broken_pool_is_shut_down_and_rebuilt_alike(
            self, monkeypatch, small_serial):
        # The new workers get the parameters, the retry policy, the fault
        # plan and the metrics flag again, so injected crashes still
        # recover.
        from repro.faults import FaultPlan, injecting
        from repro.obs import metrics as _metrics

        spec, points, order = self._grid()
        pools = _ScriptedPools(monkeypatch, deaths={order[0]: 1})
        plan = FaultPlan(crash_every=2, seed=3)
        retry = RetryPolicy(max_attempts=4)
        executor = ParallelExecutor(n_workers=2)
        with _metrics.recording() as registry, injecting(plan):
            results = executor.execute_with_sink(points, spec.params,
                                                 retry=retry)
        assert pools.initargs == [(spec.params, retry, plan.to_spec(), True)] * 2
        assert pools.open_at_build == [0, 0]
        assert not executor.last_errors
        _assert_serial(results, small_serial)
        assert registry.counter("faults.injected") > 0

    def test_cancelling_during_recovery_reruns_nothing(self, monkeypatch):
        spec, points, order = self._grid()
        executor = ParallelExecutor(n_workers=2)
        pools = _ScriptedPools(
            monkeypatch, deaths={order[0]: 1},
            on_build=lambda n: n == 2 and executor.cancel())
        calls = []
        with pytest.raises(ExecutionCancelled) as excinfo:
            executor.execute_with_sink(
                points, spec.params,
                progress=lambda done, total: calls.append((done, total)))
        assert pools.submitted[1] == []
        assert excinfo.value.results[order[0]] is None
        completed = excinfo.value.completed
        assert completed < len(points)
        assert calls[-1] == (completed, len(points))

    def test_each_crowd_is_lost_once(self, monkeypatch, small_serial):
        # The first and the last point submitted each die once, in
        # different crowds: two rebuilds, and no point fails.
        spec, points, order = self._grid()
        pools = _ScriptedPools(monkeypatch,
                               deaths={order[0]: 1, order[-1]: 1})
        executor = ParallelExecutor(n_workers=2)
        results = executor.execute_with_sink(points, spec.params)
        assert not executor.last_errors
        _assert_serial(results, small_serial)
        assert len(pools.submitted) == 3
        assert pools.runs_of(order[0]) == pools.runs_of(order[-1]) == 2

    def test_sink_and_progress_hear_each_point_once(self, monkeypatch):
        spec, points, order = self._grid()
        _ScriptedPools(monkeypatch, deaths={order[0]: 1})
        sunk, calls = [], []
        ParallelExecutor(n_workers=2).execute_with_sink(
            points, spec.params,
            progress=lambda done, total: calls.append((done, total)),
            sink=lambda p, pt, result, rep: sunk.append(p))
        assert sorted(sunk) == list(range(len(points)))
        assert calls == [(done, len(points))
                         for done in range(1, len(points) + 1)]


def _kill_own_worker(monkeypatch, victims, markers=None):
    """Make each of ``victims`` SIGKILL the pool worker that runs it.

    Every time, or with a ``markers`` directory only the first time (that
    run leaves a file named by the point's index there).  Pool workers fork
    after the patch and inherit it; the test process itself never kills
    itself.
    """
    from repro.api import executors

    real = executors.run_simulation
    coordinator = os.getpid()

    def run_simulation(scenario, params):
        for point in victims:
            if scenario != point.scenario or os.getpid() == coordinator:
                continue
            marker = markers / str(point.index) if markers else None
            if marker is None or not marker.exists():
                if marker is not None:
                    marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return real(scenario, params)

    monkeypatch.setattr(executors, "run_simulation", run_simulation)


@pytest.mark.usefixtures("_bounded")
class TestWorkerDeath:
    """A dead pool worker fails every point in flight with
    ``BrokenProcessPool``.  The pool is rebuilt, those points rerun one at
    a time, and the rest of the grid still runs."""

    VICTIM = 3

    def test_one_death_loses_no_point(self, monkeypatch, tmp_path):
        from repro.obs import metrics as _metrics
        from repro.store import CachingExecutor, ResultStore

        spec = _small_spec()
        points = spec.expand()
        serial = run(spec, executor=SerialExecutor())
        submitted = _record_submissions(monkeypatch)
        marker = tmp_path / str(points[self.VICTIM].index)
        _kill_own_worker(monkeypatch, [points[self.VICTIM]], tmp_path)
        inner = ParallelExecutor(n_workers=2)
        with _metrics.recording() as registry:
            results = run(
                spec,
                executor=CachingExecutor(ResultStore(tmp_path / "store"), inner),
                retry=RetryPolicy(max_attempts=3, on_error="record"),
            )
        assert marker.exists()
        assert not results.errors() and not inner.last_errors
        assert results.to_records() == serial.to_records()
        stored = [
            json.loads(line)["run_hash"]
            for shard in (tmp_path / "store" / "shards").glob("*.jsonl")
            for line in shard.read_text(encoding="utf-8").splitlines()
        ]
        assert sorted(stored) == sorted(point.run_hash() for point in points)
        reruns = len(submitted) - len(points)
        assert reruns >= 1
        assert registry.counter("retry.attempts") == reruns

    def test_a_point_that_always_kills_its_worker_fails_alone(
            self, monkeypatch):
        spec = _small_spec()
        points = spec.expand()
        serial = run(spec, executor=SerialExecutor()).to_records()
        _kill_own_worker(monkeypatch, [points[self.VICTIM]])
        results = run(spec, executor=ParallelExecutor(n_workers=2),
                      retry=RetryPolicy(max_attempts=3, on_error="record"))
        [failed] = results.errors()
        assert failed.run_hash == points[self.VICTIM].run_hash()
        assert failed.error_type == "BrokenProcessPool"
        assert failed.attempts == 3
        records = results.to_records()
        del records[self.VICTIM], serial[self.VICTIM]
        assert records == serial

    @pytest.mark.parametrize("retry, raised", [
        (RetryPolicy(max_attempts=3), PointFailed),
        (None, BrokenProcessPool),
    ])
    def test_the_error_raises_after_the_rest_of_the_grid(
            self, monkeypatch, retry, raised):
        spec = _small_spec()
        points = spec.expand()
        serial = SerialExecutor().execute_with_sink(points, spec.params)
        _kill_own_worker(monkeypatch, [points[self.VICTIM]])
        executor = ParallelExecutor(n_workers=2)
        delivered = {}
        with pytest.raises(raised) as excinfo:
            executor.execute_with_sink(
                points, spec.params, retry=retry,
                sink=lambda p, pt, result, rep: delivered.update({p: result}),
            )
        if retry is not None:
            assert excinfo.value.failed.error_type == "BrokenProcessPool"
            assert excinfo.value.failed.attempts == retry.max_attempts
        assert [p for p, _ in executor.last_errors] == [self.VICTIM]
        assert sorted(delivered) == [
            p for p in range(len(points)) if p != self.VICTIM
        ]
        for position, result in delivered.items():
            assert result.summary() == serial[position].summary()

    def test_every_point_killing_its_first_worker_matches_serial(
            self, monkeypatch, tmp_path):
        # The pool breaks once per point.  A point lost before it started
        # dies once more, alone, so two attempts always suffice.
        spec = _small_spec()
        points = spec.expand()
        serial = run(spec, executor=SerialExecutor()).to_records()
        _kill_own_worker(monkeypatch, points, tmp_path)
        executor = ParallelExecutor(n_workers=2)
        results = run(spec, executor=executor,
                      retry=RetryPolicy(max_attempts=2, on_error="record"))
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            str(point.index) for point in points)
        assert not results.errors() and not executor.last_errors
        assert results.to_records() == serial

    def test_a_recovered_grid_counts_like_serial(self, monkeypatch, tmp_path):
        # The dead worker's points in flight never shipped their counts;
        # their reruns do, so the totals equal a serial run's.
        from repro.obs import metrics as _metrics

        spec = _small_spec()
        with _metrics.recording() as registry:
            run(spec, executor=SerialExecutor())
        serial = registry.snapshot()["counters"]
        _kill_own_worker(monkeypatch, [spec.expand()[self.VICTIM]], tmp_path)
        with _metrics.recording() as registry:
            run(spec, executor=ParallelExecutor(n_workers=2))
        pooled = registry.snapshot()["counters"]
        assert (tmp_path / str(self.VICTIM)).exists()
        assert pooled["contention.rounds"] == serial["contention.rounds"] > 0
        assert "executor.worker_errors" not in pooled
        assert "executor.failed_points" not in pooled

    @pytest.mark.parametrize("retry, raised", [
        (RetryPolicy(max_attempts=2, on_error="record"), None),
        (RetryPolicy(max_attempts=2), PointFailed),
        (None, BrokenProcessPool),
    ])
    def test_the_store_keeps_every_point_but_the_poison_one(
            self, monkeypatch, tmp_path, retry, raised):
        # Whatever the policy, the other points reach the store, so the
        # rerun of the grid simulates the poison point alone.
        from repro.store import CachingExecutor, ResultStore

        spec = _small_spec()
        victim = spec.expand()[self.VICTIM]
        store = ResultStore(tmp_path / "store")
        _kill_own_worker(monkeypatch, [victim])
        cached = CachingExecutor(store, ParallelExecutor(n_workers=2))
        if raised is None:
            errors = run(spec, executor=cached, retry=retry).errors()
            assert [error.run_hash for error in errors] == [victim.run_hash()]
        else:
            with pytest.raises(raised):
                run(spec, executor=cached, retry=retry)
        assert len(store) == spec.n_runs - 1
        assert victim.run_hash() not in store
        # In this process the patched simulation never kills.
        resumed = CachingExecutor(store, SerialExecutor())
        results = run(spec, executor=resumed)
        assert (resumed.hits, resumed.misses) == (spec.n_runs - 1, 1)
        assert results.to_records() == \
            run(spec, executor=SerialExecutor()).to_records()


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
