"""Chaos suite: every executor must survive injected faults bit-identically.

A grid executed under a fault plan that crashes every Kth point attempt —
with a retry policy absorbing the crashes — must produce byte-for-byte the
same records as the fault-free run, on the serial and process-pool
executors alike.
"""

import pytest

from repro.api import (
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    SweepAxis,
    run,
)
from repro.config import SimulationParameters
from repro.faults import FaultPlan, RetryPolicy, injecting, uninstall
from repro.sim.scenario import Scenario
from repro.store import CachingExecutor, ResultStore

PARAMS = SimulationParameters()
BASE = Scenario(protocol="charisma", n_voice=0, n_data=1,
                duration_s=0.3, warmup_s=0.1)


def small_spec():
    return ExperimentSpec(
        protocols=("charisma", "rama"),
        base_scenario=BASE,
        axes=(SweepAxis("n_voice", (2, 4)),),
        params=PARAMS,
        seeds=(0, 1),
        name="chaos",
    )


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    uninstall()


RECOVERING = RetryPolicy(max_attempts=4, on_error="record")


class TestBitIdenticalUnderInjectedCrashes:
    """Acceptance: crashes every Kth attempt, retried, identical results."""

    @pytest.fixture(scope="class")
    def reference(self):
        return run(small_spec(), executor=SerialExecutor()).to_records()

    def test_serial(self, reference):
        results = run(small_spec(), executor=SerialExecutor(),
                      retry=RECOVERING, faults="crash_every=2,seed=3")
        assert not results.errors()
        assert results.to_records() == reference

    def test_parallel(self, reference):
        executor = ParallelExecutor(n_workers=2)
        results = run(small_spec(), executor=executor,
                      retry=RECOVERING, faults="crash_every=2,seed=3")
        assert not results.errors()
        assert results.to_records() == reference


class TestGracefulDegradation:
    def test_targeted_crash_degrades_one_point_only(self):
        spec = small_spec()
        victim = spec.expand()[2].run_hash()
        # the victim fails on more attempts than the policy allows
        plan = FaultPlan(crash_points=(victim,), crash_point_attempts=99)
        results = run(spec, executor=SerialExecutor(),
                      retry=RetryPolicy(max_attempts=2, on_error="record"),
                      faults=plan)
        errors = results.errors()
        assert [e.run_hash for e in errors] == [victim]
        assert errors[0].error_type == "InjectedFault"
        assert errors[0].attempts == 2
        assert len(results.completed()) == spec.n_runs - 1
        # aggregation keeps working over the survivors
        assert results.aggregate(["voice_loss_rate"], by=("protocol",))

    def test_raise_mode_aborts_the_grid(self):
        from repro.faults import PointFailed

        spec = small_spec()
        victim = spec.expand()[0].run_hash()
        plan = FaultPlan(crash_points=(victim,), crash_point_attempts=99)
        with pytest.raises(PointFailed):
            run(spec, executor=SerialExecutor(),
                retry=RetryPolicy(max_attempts=2), faults=plan)

    def test_env_var_configures_the_plan(self, monkeypatch):
        from repro.faults import FAULTS_ENV_VAR
        from repro.obs import metrics as _metrics

        monkeypatch.setenv(FAULTS_ENV_VAR, "crash_every=2,seed=3")
        with _metrics.recording() as registry:
            results = run(small_spec(), executor=SerialExecutor(),
                          retry=RECOVERING)
        assert not results.errors()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["faults.injected"] > 0
        assert snapshot["counters"]["retry.attempts"] > 0


class TestCachingKillResume:
    """Satellite: chaos kill-resume — a caching run interrupted by injected
    crashes resumes with zero re-executions of the finished points and ends
    bit-identical to the fault-free run."""

    def test_kill_resume_zero_reexecutions(self, tmp_path):
        spec = small_spec()
        reference = run(spec, executor=SerialExecutor()).to_records()

        # First pass: no retries, so every injected crash loses its point.
        cold = CachingExecutor(ResultStore(tmp_path / "cache"),
                               SerialExecutor())
        crashed = run(spec, executor=cold,
                      retry=RetryPolicy(max_attempts=1, on_error="record"),
                      faults="crash_every=3,seed=1")
        n_failed = len(crashed.errors())
        assert 0 < n_failed < spec.n_runs  # the chaos actually bit
        assert cold.misses == spec.n_runs

        # Restart, faults gone: only the lost points execute again.
        warm = CachingExecutor(ResultStore(tmp_path / "cache"),
                               SerialExecutor())
        resumed = run(spec, executor=warm)
        assert warm.hits == spec.n_runs - n_failed
        assert warm.misses == n_failed
        assert resumed.to_records() == reference

    def test_injected_sink_failure_surfaces(self, tmp_path):
        spec = small_spec()
        executor = CachingExecutor(ResultStore(tmp_path / "cache"),
                                   SerialExecutor())
        with injecting(FaultPlan(sink_fail_every=3)):
            with pytest.raises(Exception):
                run(spec, executor=executor)
