"""Tests for RetryPolicy, FailedPoint and the attempt loop."""

import pytest

from repro.faults import (
    FailedPoint,
    FatalPointError,
    InjectedFault,
    PointFailed,
    PointTimeout,
    RetryPolicy,
    TransientPointError,
    run_point_attempts,
)
from repro.faults.retry import give_up

HASH = "ab" + "0" * 14


class TestClassification:
    @pytest.mark.parametrize("error", [
        TransientPointError("x"),
        InjectedFault("point", 1),
        PointTimeout("x"),
        TimeoutError("x"),
        ConnectionError("x"),
        OSError("x"),
    ])
    def test_transient_families(self, error):
        assert RetryPolicy.classify(error) is True

    @pytest.mark.parametrize("error", [
        FatalPointError("x"),
        ValueError("x"),
        KeyError("x"),
        RuntimeError("x"),
    ])
    def test_fatal_families(self, error):
        assert RetryPolicy.classify(error) is False


class TestBackoff:
    def test_no_backoff_configured_means_zero(self):
        policy = RetryPolicy(backoff_s=0.0)
        assert policy.backoff_for(HASH, 2) == 0.0

    def test_first_attempt_never_sleeps(self):
        policy = RetryPolicy(backoff_s=1.0)
        assert policy.backoff_for(HASH, 1) == 0.0

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(max_attempts=9, backoff_s=1.0,
                             backoff_factor=2.0, max_backoff_s=5.0,
                             jitter=0.0)
        waits = [policy.backoff_for(HASH, a) for a in (2, 3, 4, 5, 6)]
        assert waits == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5, jitter_seed=3)
        first = policy.backoff_for(HASH, 2)
        assert first == policy.backoff_for(HASH, 2)  # replayable
        assert 0.5 <= first <= 1.5
        # different (point, attempt) keys de-synchronise the sleeps
        assert first != policy.backoff_for("cd" + "1" * 14, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(on_error="ignore")


class TestAttemptLoop:
    def test_no_policy_is_a_single_bare_call(self):
        calls = []

        def attempt(n):
            calls.append(n)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_point_attempts(None, HASH, attempt)
        assert calls == [1]

    def test_transient_error_retries_to_success(self):
        calls = []

        def attempt(n):
            calls.append(n)
            if n < 3:
                raise InjectedFault("point", n)
            return "ok"

        policy = RetryPolicy(max_attempts=4)
        assert run_point_attempts(policy, HASH, attempt) == "ok"
        assert calls == [1, 2, 3]

    def test_fatal_error_never_retries(self):
        calls = []

        def attempt(n):
            calls.append(n)
            raise ValueError("deterministic bug")

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(PointFailed) as excinfo:
            run_point_attempts(policy, HASH, attempt)
        assert calls == [1]
        failed = excinfo.value.failed
        assert failed.error_type == "ValueError"
        assert failed.attempts == 1
        assert failed.transient is False
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_exhausted_attempts_raise_pointfailed(self):
        def attempt(n):
            raise InjectedFault("point", n)

        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(PointFailed) as excinfo:
            run_point_attempts(policy, HASH, attempt)
        assert excinfo.value.failed.attempts == 3
        assert excinfo.value.failed.transient is True

    def test_record_mode_returns_failedpoint(self):
        def attempt(n):
            raise InjectedFault("point", n)

        policy = RetryPolicy(max_attempts=2, on_error="record")
        outcome = run_point_attempts(policy, HASH, attempt)
        assert isinstance(outcome, FailedPoint)
        assert outcome.run_hash == HASH
        assert outcome.error_type == "InjectedFault"
        assert outcome.attempts == 2

    def test_cooperative_timeout_is_transient(self, monkeypatch):
        from repro.obs import clock as _clock

        ticks = iter([0.0, 10.0, 20.0, 20.1])
        monkeypatch.setattr(_clock, "now", lambda: next(ticks))

        def attempt(n):
            return f"slow-result-{n}"

        policy = RetryPolicy(max_attempts=2, timeout_s=1.0,
                             on_error="record")
        outcome = run_point_attempts(policy, HASH, attempt)
        # attempt 1 blows the budget (t: 0 -> 10), attempt 2 lands in it
        assert outcome == "slow-result-2"

    def test_timeout_exhaustion_records_pointtimeout(self, monkeypatch):
        from repro.obs import clock as _clock

        ticks = iter([0.0, 10.0, 20.0, 30.0])
        monkeypatch.setattr(_clock, "now", lambda: next(ticks))
        policy = RetryPolicy(max_attempts=2, timeout_s=1.0,
                             on_error="record")
        outcome = run_point_attempts(policy, HASH, lambda n: "discarded")
        assert isinstance(outcome, FailedPoint)
        assert outcome.error_type == "PointTimeout"


class TestFailedPoint:
    def test_payload_round_trip(self):
        failed = FailedPoint(run_hash=HASH, error_type="InjectedFault",
                             message="injected", attempts=3, transient=True)
        assert FailedPoint.from_payload(failed.to_payload()) == failed

    def test_from_error(self):
        failed = FailedPoint.from_error(HASH, ValueError("nope"), 2, False)
        assert failed.error_type == "ValueError"
        assert failed.message == "nope"
        assert failed.attempts == 2

    def test_point_failed_survives_a_pickle_round_trip(self):
        # A pool worker's PointFailed travels back to the caller pickled,
        # with the metrics snapshot it carries as an attribute.
        import pickle

        failed = FailedPoint(run_hash=HASH, error_type="InjectedFault",
                             message="injected", attempts=3, transient=True)
        error = PointFailed(failed)
        error.metrics_snapshot = {"counters": {"retry.attempts": 2}}
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is PointFailed
        assert copy.failed == failed
        assert str(copy) == str(error)
        assert copy.metrics_snapshot == error.metrics_snapshot


class TestGiveUp:
    """The terminal failure the attempt loop and the process pool share."""

    def test_record_mode_returns_the_failed_point(self):
        error = InjectedFault("point", 4)
        failed = give_up(RetryPolicy(on_error="record"), HASH, error, 4, True)
        assert failed == FailedPoint.from_error(HASH, error, 4, True)

    def test_raise_mode_raises_point_failed_from_the_error(self):
        error = ValueError("nope")
        with pytest.raises(PointFailed) as excinfo:
            give_up(RetryPolicy(), HASH, error, 2, False)
        assert excinfo.value.failed == FailedPoint.from_error(
            HASH, error, 2, False)
        assert excinfo.value.__cause__ is error

    @pytest.mark.parametrize("on_error", ("raise", "record"))
    def test_counts_one_failed_point(self, on_error):
        from contextlib import nullcontext

        from repro.obs import metrics as _metrics

        policy = RetryPolicy(on_error=on_error)
        raises = (pytest.raises(PointFailed) if on_error == "raise"
                  else nullcontext())
        with _metrics.recording() as registry, raises:
            give_up(policy, HASH, ValueError("nope"), 1, False)
        assert registry.snapshot()["counters"] == {
            "executor.failed_points": 1}
