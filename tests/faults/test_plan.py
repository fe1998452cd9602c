"""Tests for FaultPlan spec syntax and the deterministic injector."""

import pytest

from repro.faults import (
    FAULTS_ENV_VAR,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    active_plan,
    injecting,
    install,
    uninstall,
)
from repro.faults import injector as injector_mod


class TestPlanSpec:
    def test_spec_round_trip(self):
        plan = FaultPlan(seed=7, crash_every=3, crash_rate=0.25,
                         crash_points=("ab", "cd"), hang_every=5, hang_s=0.2)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_default_plan_is_inactive_and_empty_spec(self):
        plan = FaultPlan()
        assert not plan.active
        assert plan.to_spec() == ""

    def test_from_spec_ignores_whitespace_and_empty_entries(self):
        plan = FaultPlan.from_spec(" crash_every = 2 , , seed=3 ")
        assert plan.crash_every == 2
        assert plan.seed == 3

    def test_unknown_key_rejected_with_valid_list(self):
        with pytest.raises(ValueError, match="crash_every"):
            FaultPlan.from_spec("explode=1")

    def test_not_key_value_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.from_spec("crash_every")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_every=-1)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(hang_s=-0.1)

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env({FAULTS_ENV_VAR: "crash_every=4"})
        assert plan == FaultPlan(crash_every=4)

    def test_resolve(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert FaultPlan.resolve(None) is None
        assert FaultPlan.resolve("crash_every=2") == FaultPlan(crash_every=2)
        # an inactive plan resolves to None (nothing to install)
        assert FaultPlan.resolve(FaultPlan()) is None
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash_every=9")
        assert FaultPlan.resolve(None) == FaultPlan(crash_every=9)


class TestInjectorTriggers:
    def test_periodic_point_crashes(self):
        injector = FaultInjector(FaultPlan(crash_every=3))
        fired = 0
        for _ in range(9):
            try:
                injector.point_attempt("aa" + "0" * 14)
            except InjectedFault:
                fired += 1
        assert fired == 3
        assert injector.counts()["injected"]["point"] == 3
        assert injector.counts()["occurrences"]["point"] == 9

    def test_probabilistic_is_deterministic_per_seed(self):
        def firing_pattern(seed):
            injector = FaultInjector(FaultPlan(crash_rate=0.5, seed=seed))
            pattern = []
            for _ in range(32):
                try:
                    injector.point_attempt("aa" + "0" * 14)
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert firing_pattern(1) == firing_pattern(1)
        assert firing_pattern(1) != firing_pattern(2)
        assert any(firing_pattern(1))  # rate 0.5 over 32 draws must fire

    def test_crash_limit_caps_injections(self):
        injector = FaultInjector(FaultPlan(crash_every=1, crash_limit=2))
        fired = 0
        for _ in range(10):
            try:
                injector.point_attempt("aa" + "0" * 14)
            except InjectedFault:
                fired += 1
        assert fired == 2

    def test_targeted_crash_points_fire_by_prefix_and_attempt(self):
        injector = FaultInjector(
            FaultPlan(crash_points=("ab",), crash_point_attempts=1)
        )
        victim, bystander = "ab" + "0" * 14, "cd" + "0" * 14
        with pytest.raises(InjectedFault):
            injector.point_attempt(victim, attempt=1)
        # retry (attempt 2) is allowed through; other points never fire
        injector.point_attempt(victim, attempt=2)
        injector.point_attempt(bystander, attempt=1)

    def test_torn_append_truncates_every_nth_line(self):
        injector = FaultInjector(FaultPlan(store_torn_every=2))
        line = '{"payload": "0123456789"}'
        assert injector.torn_append(line) == line
        maimed = injector.torn_append(line)
        assert maimed != line
        assert line.startswith(maimed)


class TestInstallation:
    def teardown_method(self):
        uninstall()

    def test_install_uninstall_cycle(self):
        plan = FaultPlan(crash_every=2)
        install(plan)
        assert injector_mod.INJECTOR is not None
        assert active_plan() == plan
        uninstall()
        assert injector_mod.INJECTOR is None
        assert active_plan() is None

    def test_injecting_scopes_and_restores(self):
        outer = install(FaultPlan(crash_every=9))
        with injecting(FaultPlan(crash_every=2)) as inner:
            assert injector_mod.INJECTOR is inner
            assert active_plan() == FaultPlan(crash_every=2)
        assert injector_mod.INJECTOR is outer
