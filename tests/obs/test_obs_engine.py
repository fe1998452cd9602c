"""Engine instrumentation: parity, span structure, phase-split equivalence.

Parity assertions compare ``(voice, data, mac)``.  A test that names a block
size picks it through the engine: :func:`tests.utils.run_in_blocks`, or, for
a run that must open its ``engine.run`` span, an engine whose
``BLOCK_FRAMES`` is overridden on the instance.
"""

import pytest

from repro.mac.registry import available_protocols
from repro.obs import metrics
from repro.obs.trace import PHASES, ListTraceSink, install_tracer, uninstall_tracer
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario
from tests.utils import run_in_blocks


def _scenario(**overrides):
    base = dict(protocol="rmav", n_voice=8, n_data=3, use_request_queue=True,
                duration_s=0.4, warmup_s=0.2, seed=13)
    base.update(overrides)
    return Scenario(**base)


def _engine(**overrides):
    return UplinkSimulationEngine(_scenario(**overrides))


def _metrics_of(result):
    return (result.voice, result.data, result.mac)


@pytest.fixture
def sink():
    sink = ListTraceSink()
    install_tracer(sink)
    yield sink
    uninstall_tracer()


class TestTracedParity:
    @pytest.mark.parametrize("block_frames", [1, 16])
    def test_tracing_is_bit_identical(self, block_frames):
        plain = run_in_blocks(_engine(), block_frames)
        sink = ListTraceSink()
        install_tracer(sink)
        try:
            traced = run_in_blocks(_engine(), block_frames)
        finally:
            uninstall_tracer()
        assert _metrics_of(traced) == _metrics_of(plain)
        assert any(r.get("name") == "phase.mac" for r in sink.records)

    def test_metrics_recording_is_bit_identical(self):
        plain = run_in_blocks(_engine(protocol="charisma"), 16)
        with metrics.recording() as registry:
            recorded = run_in_blocks(_engine(protocol="charisma"), 16)
        assert _metrics_of(recorded) == _metrics_of(plain)
        assert registry.counter("contention.rounds") > 0

    @pytest.mark.parametrize("rng_mode", ["parity", "fast"])
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_contention_rounds_do_not_depend_on_macro_frames(
        self, protocol, rng_mode
    ):
        """Every frame path counts the request minislots it resolves.

        The golden cell's load: quiet frames, contended frames and (for
        DRMA) converted slots without contenders all occur.
        """
        rounds = {}
        for block_frames in (1, 64):
            engine = UplinkSimulationEngine(Scenario(
                protocol=protocol, n_voice=60, n_data=20, duration_s=0.15,
                warmup_s=0.1, seed=0, rng_mode=rng_mode,
            ))
            with metrics.recording() as registry:
                run_in_blocks(engine, block_frames)
            rounds[block_frames] = registry.counter("contention.rounds")
        assert rounds[64] == rounds[1], rounds

    def test_untraced_run_after_uninstall_is_clean(self):
        scenario = _scenario()
        sink = ListTraceSink()
        install_tracer(sink)
        try:
            run_simulation(scenario)
        finally:
            uninstall_tracer()
        written = len(sink.records)
        # A fresh run after uninstall must not touch the dead sink.
        run_simulation(scenario)
        assert len(sink.records) == written


class TestSpanStructure:
    @pytest.mark.parametrize("block_frames", [1, 16, None])
    def test_phase_spans_nest_under_engine_run(self, sink, block_frames):
        engine = _engine()
        if block_frames is not None:
            engine.BLOCK_FRAMES = block_frames
        engine.run()
        spans = [r for r in sink.records if r.get("record") == "span"]
        by_name = {}
        for record in spans:
            by_name.setdefault(record["name"], []).append(record)
        (engine_run,) = by_name["engine.run"]
        assert engine_run["attrs"]["block_frames"] == (block_frames or 64)
        phase_names = {
            name for name in by_name if name.startswith("phase.")
        }
        assert phase_names == {f"phase.{p}" for p in PHASES}
        for name in phase_names:
            for record in by_name[name]:
                assert record["parent"] == engine_run["id"]

    def test_phase_spans_follow_engine_phase_order(self, sink):
        run_in_blocks(_engine(), 1)
        # Reconstruct start order (file order is completion order).
        phase_starts = sorted(
            (r["start_s"], r["name"])
            for r in sink.records
            if r.get("record") == "span" and r["name"].startswith("phase.")
        )
        first_cycle = [name[len("phase."):] for _, name in phase_starts[:3]]
        assert first_cycle == list(PHASES)[:3]

    def test_macro_events_present_when_macro_stepping(self, sink):
        run_in_blocks(_engine(protocol="charisma"), 16)
        events = {r["name"] for r in sink.records if r.get("record") == "event"}
        assert "macro.plan" in events


class TestPhaseTimingMigration:
    def test_enable_phase_timing_still_returns_phase_dict(self):
        from repro.config import SimulationParameters
        from repro.sim.engine import UplinkSimulationEngine

        engine = UplinkSimulationEngine(_scenario(), SimulationParameters())
        phases = engine.enable_phase_timing()
        engine.run()
        assert set(phases) == set(PHASES)
        assert sum(phases.values()) > 0.0

    def test_traced_split_matches_phase_timer_split(self, sink):
        """The trace's per-phase totals are the same accumulation the
        ``enable_phase_timing`` dict reports (one PhaseRecorder feeds both)."""
        from repro.config import SimulationParameters
        from repro.obs.summary import summarize_trace
        from repro.obs.trace import JsonLinesTraceSink  # noqa: F401

        uninstall_tracer()  # replace the fixture's sink with a file sink
        import os
        import tempfile

        from repro.obs.trace import tracing

        from repro.sim.engine import UplinkSimulationEngine

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.jsonl")
            engine = UplinkSimulationEngine(
                _scenario(), SimulationParameters()
            )
            with tracing(path):
                phases = engine.enable_phase_timing()
                engine.run()
            traced = summarize_trace(path).phase_seconds()
        assert set(traced) == set(phases)
        for name, seconds in phases.items():
            # Identical accumulation up to the span-bracket overhead.
            assert traced[name] == pytest.approx(seconds, rel=0.5, abs=5e-3)

    def test_dispatch_counter_installs_and_restores(self):
        from repro.config import SimulationParameters
        from repro.accel import deadline_scan as before
        from repro.sim.engine import UplinkSimulationEngine

        engine = UplinkSimulationEngine(
            _scenario(protocol="charisma"), SimulationParameters()
        )
        engine.enable_phase_timing(count_dispatches=True)
        engine.run_frames(40)
        counts = dict(engine.dispatch_counts or {})
        engine.disable_phase_timing()
        assert sum(counts.values()) > 0
        assert counts.get("traffic", 0) > 0
        from repro.accel import deadline_scan as after

        assert after is before  # uninstall restored the live binding

    def test_dispatch_counter_feeds_metrics_registry(self):
        from repro.config import SimulationParameters
        from repro.sim.engine import UplinkSimulationEngine

        with metrics.recording() as registry:
            engine = UplinkSimulationEngine(
                _scenario(), SimulationParameters()
            )
            engine.enable_phase_timing(count_dispatches=True)
            try:
                engine.run_frames(40)
            finally:
                engine.disable_phase_timing()
        assert registry.counter("kernel.dispatches") > 0
