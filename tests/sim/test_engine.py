"""Integration tests of the frame-synchronous engine and the runner."""

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario

PARAMS = SimulationParameters()
SHORT = dict(duration_s=1.0, warmup_s=0.25)


def scenario(protocol="charisma", n_voice=8, n_data=2, queue=False, seed=1, **kw):
    merged = {**SHORT, **kw}
    return Scenario(protocol=protocol, n_voice=n_voice, n_data=n_data,
                    use_request_queue=queue, seed=seed, **merged)


class TestEngineBasics:
    def test_step_advances_frame_counter(self):
        engine = UplinkSimulationEngine(scenario(), PARAMS)
        engine.step()
        engine.step()
        assert engine.frame_index == 2

    def test_run_returns_consistent_result(self):
        result = run_simulation(scenario(), PARAMS)
        assert 0.0 <= result.voice.loss_rate <= 1.0
        assert result.data.throughput_packets_per_frame >= 0.0
        assert result.mac.n_frames == scenario().measured_frames(PARAMS)

    def test_reproducible_with_same_seed(self):
        a = run_simulation(scenario(seed=5), PARAMS)
        b = run_simulation(scenario(seed=5), PARAMS)
        assert a.summary() == b.summary()

    def test_different_seeds_differ(self):
        a = run_simulation(scenario(seed=5, n_voice=20), PARAMS)
        b = run_simulation(scenario(seed=6, n_voice=20), PARAMS)
        assert a.summary() != b.summary()

    def test_zero_population_runs(self):
        result = run_simulation(scenario(n_voice=0, n_data=0), PARAMS)
        assert result.voice.generated == 0
        assert result.data.generated == 0

    def test_speed_override_used(self):
        fast = UplinkSimulationEngine(scenario(mobile_speed_kmh=80.0), PARAMS)
        assert fast.doppler.speed_kmh == 80.0
        default = UplinkSimulationEngine(scenario(), PARAMS)
        assert default.doppler.speed_kmh == PARAMS.mobile_speed_kmh


class TestStepPaths:
    def test_frames_emit_grant_columns(self):
        """The engine's frames carry aligned, valid grant columns, and the
        collector counts exactly the slots they grant."""
        engine = UplinkSimulationEngine(
            scenario(protocol="dtdma_vr", n_voice=12, n_data=4,
                     duration_s=0.5, warmup_s=0.1, seed=2),
            PARAMS,
        )
        protocol = engine.protocol
        frame_method = protocol.run_frame
        emitted = []

        def capture(*args):
            result = frame_method(*args)
            emitted.append(result[1])
            return result

        protocol.run_frame = capture
        for _ in range(120):
            engine.step()
        assert len(emitted) == 120
        saw_grants = False
        for grants in emitted:
            if len(grants):
                saw_grants = True
                assert len(grants.n_slots) == len(grants)
                assert len(grants.packet_capacities) == len(grants)
                assert len(grants.throughputs) == len(grants)
                assert all(n >= 1 for n in grants.n_slots)
                assert all(c >= 1 for c in grants.packet_capacities)
                assert all(t is None or t > 0 for t in grants.throughputs)
        assert saw_grants
        assert engine.collector.mac_stats().allocated_slots == sum(
            grants.total_slots for grants in emitted
        )

    def test_timed_step_mirrors_untimed_step(self):
        """A step bracketed by the phase clock must equal the plain step:
        identical per-frame records and final results, with every phase
        accumulating time."""
        charisma = scenario(n_voice=8, n_data=3, queue=True, duration_s=0.4,
                            warmup_s=0.1, seed=6)
        timed = UplinkSimulationEngine(charisma, PARAMS)
        plain = UplinkSimulationEngine(charisma, PARAMS)
        phases = timed.enable_phase_timing()
        for _ in range(150):
            timed.step()
            plain.step()
            assert timed.collector.mac_stats() == plain.collector.mac_stats()
        for series in ("data_delivered_per_frame", "voice_loss_events_per_frame"):
            assert getattr(timed.collector, series) == getattr(
                plain.collector, series
            )
        assert (
            timed.collect_results().summary() == plain.collect_results().summary()
        )
        assert set(phases) == {"traffic", "channel", "mac", "phy", "metrics"}
        assert all(seconds > 0.0 for seconds in phases.values())


class TestEngineInvariants:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_every_protocol_runs_and_accounts_packets(self, protocol):
        queue = protocol != "rmav"
        result = run_simulation(
            scenario(protocol=protocol, n_voice=12, n_data=3, queue=queue), PARAMS
        )
        voice = result.voice
        # every generated voice packet is eventually delivered, errored,
        # dropped, or still sitting in a buffer at the end of the run
        assert voice.delivered + voice.errored + voice.dropped <= voice.generated + 12
        assert 0.0 <= voice.loss_rate <= 1.0
        data = result.data
        assert data.delivered <= data.generated
        assert data.mean_delay_s >= 0.0
        assert 0.0 <= result.mac.slot_utilisation <= 1.0

    def test_loss_grows_with_overload(self):
        light = run_simulation(scenario(n_voice=10, protocol="dtdma_fr"), PARAMS)
        heavy = run_simulation(
            scenario(n_voice=220, protocol="dtdma_fr", duration_s=1.5), PARAMS
        )
        assert heavy.voice.loss_rate > light.voice.loss_rate

    def test_charisma_beats_fixed_rate_baseline_under_load(self):
        """The headline qualitative claim on a small workload."""
        kwargs = dict(n_voice=60, n_data=5, duration_s=2.0, warmup_s=1.0, seed=3)
        charisma = run_simulation(scenario(protocol="charisma", **kwargs), PARAMS)
        fixed = run_simulation(scenario(protocol="dtdma_fr", **kwargs), PARAMS)
        assert charisma.voice.loss_rate <= fixed.voice.loss_rate
        assert charisma.data.mean_delay_s <= fixed.data.mean_delay_s


class TestRunner:
    """The sweep helpers moved to repro.api; runner keeps the single run."""

    def test_run_simulation_independent_seeds(self):
        results = [run_simulation(scenario(seed=s), PARAMS) for s in (1, 2)]
        assert len(results) == 2
        assert results[0].summary() != results[1].summary()

    def test_sweep_spec_shapes(self):
        from repro.api import SerialExecutor, run, sweep_spec

        spec = sweep_spec(
            ("charisma",), "n_voice", [4, 8],
            base_scenario=scenario(n_voice=0, n_data=0), params=PARAMS,
        )
        sweep = run(spec, executor=SerialExecutor()).to_sweep_result("n_voice")
        assert sweep.values == [4, 8]
        assert len(sweep.results) == 2
        assert sweep.results[1].scenario.n_voice == 8

    def test_sweep_spec_invalid_parameter(self):
        from repro.api import sweep_spec

        with pytest.raises(ValueError, match="sweepable"):
            sweep_spec(("charisma",), "n_bogus", [1],
                       base_scenario=scenario(n_voice=0, n_data=0))

    def test_protocol_comparison_keys(self):
        from repro.api import SerialExecutor, run, sweep_spec

        spec = sweep_spec(
            ("charisma", "rama"), "n_voice", [4],
            base_scenario=scenario(n_voice=0, n_data=0), params=PARAMS,
        )
        sweeps = run(spec, executor=SerialExecutor()).to_sweep_results("n_voice")
        assert set(sweeps) == {"charisma", "rama"}
