"""Forked-worker and in-process shard stepping must produce identical results.

Shards share no mutable state between block barriers, the coordinator plans
every coupling in beam order from the one handover stream, and each worker
sends its shards back at the end, so the worker count is a pure performance
knob: every per-beam result, the merged result, the handover count and the
final shard state must be independent of it.  Where forking is unsafe (other
live threads, inside a ``multiprocessing`` child, tracing or metrics in this
process) the runner steps every shard in-process instead.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.config import SimulationParameters
from repro.constellation import (
    WORKERS_ENV,
    ConstellationRunner,
    ConstellationScenario,
    resolve_workers,
    run_constellation,
)

PARAMS = SimulationParameters()
SRC = Path(__file__).resolve().parents[2] / "src"


COUPLED = ConstellationScenario(
    protocol="charisma", n_beams=5, n_voice=10, n_data=3,
    duration_s=0.6, warmup_s=0.1, seed=13, macro_frames=8,
    handover_rate=0.1, coupling_db=2.0, reuse_factor=2,
)

UNCOUPLED = ConstellationScenario(
    protocol="drma", n_beams=4, n_voice=8, n_data=2,
    duration_s=0.5, warmup_s=0.1, seed=21, macro_frames=16,
)


def rmav_coupled(rng_mode):
    return ConstellationScenario(
        protocol="rmav", n_beams=6, n_voice=12, n_data=3,
        duration_s=0.5, warmup_s=0.1, seed=5, rng_mode=rng_mode,
        macro_frames=8, handover_rate=0.2, coupling_db=1.5, reuse_factor=3,
    )


SCENARIOS = {
    "coupled": COUPLED,
    "uncoupled": UNCOUPLED,
    "rmav-coupled-parity": rmav_coupled("parity"),
    "rmav-coupled-fast": rmav_coupled("fast"),
}

POPULATION_STATE = (
    "voice_generated", "voice_delivered", "voice_errored", "voice_dropped",
    "data_generated", "data_delivered", "data_retransmissions", "occupancy",
)


def assert_same_outcome(outcome, reference):
    assert outcome.merged == reference.merged
    assert outcome.beams == reference.beams
    assert outcome.handovers == reference.handovers


def assert_same_shards(shards, reference):
    assert len(shards) == len(reference)
    for shard, expected in zip(shards, reference):
        assert shard.beam == expected.beam
        assert shard.engine.frame_index == expected.engine.frame_index
        for name in POPULATION_STATE:
            assert (
                getattr(shard.population, name)
                == getattr(expected.population, name)
            ).all(), (shard.beam, name)
        assert shard.population.voice_loss_total == (
            expected.population.voice_loss_total
        )
        assert sorted(shard.engine.protocol.reservations.holders()) == sorted(
            expected.engine.protocol.reservations.holders()
        )


@pytest.mark.parametrize("scenario", SCENARIOS.values(), ids=SCENARIOS.keys())
@pytest.mark.parametrize("n_workers", [2, 4])
def test_workers_match_serial(scenario, n_workers):
    serial = ConstellationRunner(scenario, PARAMS, n_workers=1)
    reference = serial.run()
    assert reference.n_workers == 1
    runner = ConstellationRunner(scenario, PARAMS, n_workers=n_workers)
    outcome = runner.run()
    assert_same_outcome(outcome, reference)
    assert_same_shards(runner.shards, serial.shards)
    assert multiprocessing.active_children() == []


def test_fresh_interpreter_steps_in_worker_processes():
    # A fresh interpreter has no stray thread left by another test, so the
    # run must take the forked path and still match serial stepping.
    script = textwrap.dedent("""
        import multiprocessing
        from repro.config import SimulationParameters
        from repro.constellation import ConstellationScenario, run_constellation

        scenario = ConstellationScenario(
            protocol="rama", n_beams=4, n_voice=10, n_data=2, duration_s=0.3,
            warmup_s=0.1, seed=7, macro_frames=8, handover_rate=0.2,
            coupling_db=1.0, reuse_factor=2,
        )
        forked = run_constellation(scenario, SimulationParameters(), n_workers=2)
        serial = run_constellation(scenario, SimulationParameters(), n_workers=1)
        assert forked.n_workers == 2, forked.n_workers
        assert forked.beams == serial.beams and forked.merged == serial.merged
        assert forked.handovers == serial.handovers > 0
        assert multiprocessing.active_children() == []
        print("forked ok")
    """)
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "forked ok" in completed.stdout


def test_dead_worker_is_reported_and_reaped():
    # A worker that vanishes without a word (killed, crashed interpreter)
    # must fail the run, naming its beams, and leave no child behind.  Run
    # in a fresh interpreter: in this one a stray thread could switch the
    # run to in-process stepping, where the patched exit would end pytest.
    script = textwrap.dedent("""
        import multiprocessing, os
        from repro.config import SimulationParameters
        from repro.constellation import ConstellationScenario, run_constellation
        from repro.constellation.shard import BeamShard

        coordinator = os.getpid()
        original = BeamShard.run_frames

        def run_frames(self, n_frames):
            if self.beam == 3 and os.getpid() != coordinator:
                os._exit(3)
            original(self, n_frames)

        BeamShard.run_frames = run_frames
        scenario = ConstellationScenario(
            protocol="rmav", n_beams=4, n_voice=6, n_data=2, duration_s=0.2,
            warmup_s=0.05, seed=2, macro_frames=8, handover_rate=0.1,
        )
        try:
            run_constellation(scenario, SimulationParameters(), n_workers=2)
        except RuntimeError as exc:
            assert "beams 2-3" in str(exc), exc
        else:
            raise AssertionError("a dead worker went unnoticed")
        assert multiprocessing.active_children() == []
        print("reaped ok")
    """)
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "reaped ok" in completed.stdout


def test_shard_failure_names_the_beam(monkeypatch):
    from repro.constellation.shard import BeamShard

    original = BeamShard.run_frames

    def run_frames(self, n_frames):
        if self.beam == 3:
            raise ValueError("injected shard failure")
        original(self, n_frames)

    monkeypatch.setattr(BeamShard, "run_frames", run_frames)
    with pytest.raises(RuntimeError, match=r"beam 3 failed.*injected shard failure"):
        run_constellation(COUPLED, PARAMS, n_workers=2)
    assert multiprocessing.active_children() == []


def test_metrics_recording_steps_in_process():
    from repro.obs.metrics import MetricsRegistry, recording

    reference = run_constellation(COUPLED, PARAMS, n_workers=1)
    with recording(MetricsRegistry()):
        outcome = run_constellation(COUPLED, PARAMS, n_workers=2)
    assert outcome.n_workers == 1
    assert_same_outcome(outcome, reference)


def test_tracing_steps_in_process():
    from repro.obs.trace import ListTraceSink, tracing

    reference = run_constellation(COUPLED, PARAMS, n_workers=1)
    with tracing(ListTraceSink()):
        outcome = run_constellation(COUPLED, PARAMS, n_workers=2)
    assert outcome.n_workers == 1
    assert_same_outcome(outcome, reference)


def test_live_thread_steps_in_process():
    reference = run_constellation(COUPLED, PARAMS, n_workers=1)
    release = threading.Event()
    bystander = threading.Thread(target=release.wait)
    bystander.start()
    try:
        outcome = run_constellation(COUPLED, PARAMS, n_workers=2)
    finally:
        release.set()
        bystander.join(timeout=10)
    assert not bystander.is_alive()
    assert outcome.n_workers == 1
    assert_same_outcome(outcome, reference)


def _run_in_child(conn):
    outcome = run_constellation(COUPLED, PARAMS, n_workers=2)
    conn.send((outcome.n_workers, outcome.merged, outcome.beams, outcome.handovers))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_daemonic_child_steps_in_process():
    reference = run_constellation(COUPLED, PARAMS, n_workers=1)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_run_in_child, args=(sender,), daemon=True)
    child.start()
    sender.close()
    assert receiver.poll(120), "the daemonic child sent no result"
    n_workers, merged, beams, handovers = receiver.recv()
    receiver.close()
    child.join(timeout=30)
    assert not child.is_alive()
    assert child.exitcode == 0
    assert n_workers == 1
    assert (merged, beams, handovers) == (
        reference.merged, reference.beams, reference.handovers
    )


def test_workers_env_override(monkeypatch):
    from repro.constellation import WORKERS_ENV, resolve_workers

    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(UNCOUPLED) == 3
    # Explicit argument wins over the environment.
    assert resolve_workers(UNCOUPLED, 2) == 2
    # Never more workers than beams.
    monkeypatch.setenv(WORKERS_ENV, "64")
    assert resolve_workers(UNCOUPLED) == UNCOUPLED.n_beams


def test_default_workers_count_usable_cpus(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert resolve_workers(UNCOUPLED) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert resolve_workers(UNCOUPLED) == 1
    # Explicit arguments and the environment keep precedence.
    assert resolve_workers(UNCOUPLED, 2) == 2
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert resolve_workers(UNCOUPLED) == 4
    # Without an affinity call the machine's CPU count is the default.
    monkeypatch.delenv(WORKERS_ENV)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert resolve_workers(UNCOUPLED) == 2
