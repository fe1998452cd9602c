"""Tests for CachingExecutor: hit/miss parity, resumability, facade wiring."""

import pytest

from repro.api import (
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    SweepAxis,
    run,
)
from repro.config import SimulationParameters
from repro.faults import FaultPlan, InjectedFault
from repro.sim.scenario import Scenario
from repro.store import CachingExecutor, ResultStore

PARAMS = SimulationParameters()
BASE = Scenario(protocol="charisma", n_voice=0, n_data=1,
                duration_s=0.4, warmup_s=0.2)


def _spec():
    return ExperimentSpec(
        protocols=("charisma", "dtdma_fr"),
        base_scenario=BASE,
        axes=(SweepAxis("n_voice", (2, 4)),),
        params=PARAMS,
        seeds=(0, 1),
        name="caching-test",
    )


class CountingExecutor:
    """Serial executor that records how many points it was asked to run."""

    def __init__(self):
        self.calls = 0
        self.points_executed = 0
        self._inner = SerialExecutor()

    def execute_with_sink(self, points, params, progress=None, sink=None,
                          retry=None):
        self.calls += 1
        self.points_executed += len(points)
        return self._inner.execute_with_sink(
            points, params, progress, sink, retry
        )


class InterruptedError_(RuntimeError):
    pass


class DyingExecutor(CountingExecutor):
    """Simulates a kill: dies after ``die_after`` completed points."""

    def __init__(self, die_after):
        super().__init__()
        self.die_after = die_after

    def execute_with_sink(self, points, params, progress=None, sink=None,
                          retry=None):
        self.calls += 1
        completed = 0

        def counting_sink(position, point, result, report):
            nonlocal completed
            if sink is not None:
                sink(position, point, result, report)
            completed += 1
            if completed >= self.die_after:
                raise InterruptedError_("killed mid-sweep")

        return self._inner.execute_with_sink(
            points, params, progress, counting_sink, retry
        )


class TestCacheHitMissParity:
    def test_identical_spec_executes_zero_simulations(self, tmp_path):
        """Acceptance: a re-run with cache_dir set is 100% cache hits."""
        spec = _spec()
        store = ResultStore(tmp_path / "cache")

        cold_inner = CountingExecutor()
        cold = CachingExecutor(store, cold_inner)
        cold_results = run(spec, executor=cold)
        assert cold_inner.points_executed == spec.n_runs
        assert (cold.hits, cold.misses) == (0, spec.n_runs)

        warm_inner = CountingExecutor()
        warm = CachingExecutor(store, warm_inner)
        warm_results = run(spec, executor=warm)
        assert warm_inner.calls == 0            # inner executor never invoked
        assert warm_inner.points_executed == 0  # zero simulations executed
        assert (warm.hits, warm.misses) == (spec.n_runs, 0)
        assert warm_results.to_records() == cold_results.to_records()

    def test_serial_cached_and_parallel_agree(self, tmp_path):
        spec = _spec()
        serial = run(spec, executor=SerialExecutor())
        cached = run(spec, cache_dir=str(tmp_path / "c1"))
        parallel = run(spec, executor=ParallelExecutor(n_workers=2))
        cached_parallel = run(
            spec,
            executor=CachingExecutor(ResultStore(tmp_path / "c2"),
                                     ParallelExecutor(n_workers=2)),
        )
        reference = serial.to_records()
        assert cached.to_records() == reference
        assert parallel.to_records() == reference
        assert cached_parallel.to_records() == reference

    def test_parallel_inner_persists_incrementally(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path / "cache")
        caching = CachingExecutor(store, ParallelExecutor(n_workers=2))
        results = run(spec, executor=caching)
        assert caching.misses == spec.n_runs
        assert len(store) == spec.n_runs
        again = CachingExecutor(store, SerialExecutor())
        assert run(spec, executor=again).to_records() == results.to_records()
        assert again.misses == 0

    def test_sink_fires_for_hits_and_misses(self, tmp_path):
        # The sink contract is "once per available result": layered caches
        # (an outer CachingExecutor around a warm inner one) break if hits
        # are silent.
        spec = _spec()
        store = ResultStore(tmp_path / "inner")
        run(spec, executor=CachingExecutor(store, SerialExecutor()))  # warm

        seen = []
        warm = CachingExecutor(store, SerialExecutor())
        warm.execute_with_sink(
            spec.expand(), spec.params,
            sink=lambda pos, point, result, report: seen.append(pos),
        )
        assert sorted(seen) == list(range(spec.n_runs))

        outer = CachingExecutor(ResultStore(tmp_path / "outer"),
                                CachingExecutor(store, SerialExecutor()))
        results = run(spec, executor=outer)
        assert outer.misses == spec.n_runs  # outer store was cold...
        assert results.to_records() == \
            run(spec, executor=SerialExecutor()).to_records()
        rewarmed = CachingExecutor(ResultStore(tmp_path / "outer"),
                                   SerialExecutor())
        run(spec, executor=rewarmed)        # ...and is now fully populated
        assert rewarmed.hits == spec.n_runs

    def test_facade_rejects_store_on_caching_executor(self, tmp_path):
        spec = _spec()
        executor = CachingExecutor(ResultStore(tmp_path / "a"), SerialExecutor())
        with pytest.raises(ValueError, match="not both"):
            run(spec, executor=executor, cache_dir=str(tmp_path / "b"))

    def test_progress_spans_hits_and_misses(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path / "cache")
        run(spec, executor=CachingExecutor(store, SerialExecutor()))
        # Warm a *subset* by invalidating half the entries.
        points = spec.expand()
        for point in points[: spec.n_runs // 2]:
            store.invalidate(point.run_hash())
        calls = []
        run(spec, executor=CachingExecutor(store, SerialExecutor()),
            progress=lambda done, total: calls.append((done, total)))
        assert calls[0] == (spec.n_runs // 2, spec.n_runs)  # hits first
        assert calls[-1] == (spec.n_runs, spec.n_runs)
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)


class TestResume:
    def test_killed_then_resumed_completes_only_missing_points(self, tmp_path):
        """Acceptance: resume after a kill runs only the missing points and
        the final results equal a cold serial run."""
        spec = _spec()
        cold_reference = run(spec, executor=SerialExecutor()).to_records()

        store = ResultStore(tmp_path / "cache")
        die_after = 3
        dying = CachingExecutor(store, DyingExecutor(die_after))
        with pytest.raises(InterruptedError_):
            run(spec, executor=dying)
        # Everything finished before the kill was already persisted.
        assert len(store) == die_after

        resume_inner = CountingExecutor()
        resumed = CachingExecutor(store, resume_inner)
        resumed_results = run(spec, executor=resumed)
        assert resumed.hits == die_after
        assert resumed.misses == spec.n_runs - die_after
        assert resume_inner.points_executed == spec.n_runs - die_after
        assert resumed_results.to_records() == cold_reference

    def test_pool_crash_loses_only_the_crashed_point(self, tmp_path):
        """A point that crashes without a retry policy costs only itself:
        the pool still delivers every other point to the store, so an
        identical re-run executes exactly one point."""
        spec = _spec()
        victim = spec.expand()[0].run_hash()
        store = ResultStore(tmp_path / "cache")
        calls = []
        with pytest.raises(InjectedFault):
            run(spec,
                executor=CachingExecutor(store, ParallelExecutor(n_workers=2)),
                progress=lambda done, total: calls.append((done, total)),
                faults=FaultPlan(crash_points=(victim,),
                                 crash_point_attempts=99))
        assert calls[-1] == (spec.n_runs - 1, spec.n_runs)
        assert len(store) == spec.n_runs - 1
        assert victim not in store

        resume_inner = CountingExecutor()
        resumed = CachingExecutor(store, resume_inner)
        results = run(spec, executor=resumed)
        assert resume_inner.points_executed == 1
        assert results.to_records() == \
            run(spec, executor=SerialExecutor()).to_records()

    def test_resume_through_facade_cache_dir(self, tmp_path):
        spec = _spec()
        cache_dir = str(tmp_path / "cache")
        store = ResultStore(cache_dir)
        with pytest.raises(InterruptedError_):
            run(spec, executor=CachingExecutor(store, DyingExecutor(2)))
        results = run(spec, cache_dir=cache_dir)
        assert results.to_records() == \
            run(spec, executor=SerialExecutor()).to_records()


class TestHashStability:
    def test_same_spec_same_keys_across_expansions(self, tmp_path):
        spec = _spec()
        first = [p.run_hash() for p in spec.expand()]
        second = [p.run_hash() for p in _spec().expand()]
        assert first == second
        # and the store is keyed by exactly those hashes
        store = ResultStore(tmp_path / "cache")
        run(spec, executor=CachingExecutor(store, SerialExecutor()))
        for run_hash in first:
            assert run_hash in store

    def test_different_params_never_collide(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec_a = _spec()
        spec_b = ExperimentSpec(
            protocols=spec_a.protocols,
            base_scenario=spec_a.base_scenario,
            axes=spec_a.axes,
            params=PARAMS.with_overrides(mean_snr_db=20.0),
            seeds=spec_a.seeds,
        )
        hashes_a = {p.run_hash() for p in spec_a.expand()}
        hashes_b = {p.run_hash() for p in spec_b.expand()}
        assert not hashes_a & hashes_b

    def test_legacy_points_get_params_digest_filled_in(self):
        from repro.api.spec import RunPoint

        point = RunPoint(index=0, scenario=BASE)  # no params_digest
        key_a = CachingExecutor.key_for(point, PARAMS)
        key_b = CachingExecutor.key_for(
            point, PARAMS.with_overrides(mean_snr_db=20.0)
        )
        assert key_a != key_b
