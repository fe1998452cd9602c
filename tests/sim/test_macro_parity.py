"""Macro-stepped runs, the measurement window and dense terminal ids.

Macro stepping re-partitions every random stream's draws without re-ordering
any stream, so in parity RNG mode a macro-stepped run must equal the
per-frame run exactly — aggregates and per-frame collector series alike.
"""

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario

PARAMS = SimulationParameters()


class TestMacroStepParity:
    """Macro-stepped blocks must be bit-identical to per-frame stepping.

    The macro engine re-partitions every random stream's draws (traffic
    plans, contention pools, deferred PHY batches) without re-ordering any
    stream, so in parity mode the results must match exactly for every
    block size.
    """

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_macro_block_sizes_bit_identical(self, protocol):
        base = dict(
            protocol=protocol, n_voice=12, n_data=3,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.6, warmup_s=0.2, seed=7,
        )
        reference = run_simulation(Scenario(**base), PARAMS)
        for macro_frames in (4, 16, 64):
            result = run_simulation(
                Scenario(**base, macro_frames=macro_frames), PARAMS
            )
            assert result.summary() == reference.summary(), (
                protocol, macro_frames,
            )

    def test_macro_per_frame_collector_streams_match(self):
        """Not just the aggregates: the per-frame metric streams align,
        so every lookahead truncation lands losses in the right frame."""
        base = dict(protocol="dtdma_vr", n_voice=16, n_data=4,
                    duration_s=0.6, warmup_s=0.1, seed=11)
        engines = {}
        for macro_frames in (1, 16):
            engine = UplinkSimulationEngine(
                Scenario(**base, macro_frames=macro_frames), PARAMS
            )
            engine.run()
            engines[macro_frames] = engine.collector
        assert (
            engines[1].data_delivered_per_frame
            == engines[16].data_delivered_per_frame
        )
        assert (
            engines[1].voice_loss_events_per_frame
            == engines[16].voice_loss_events_per_frame
        )


class TestMeasurementWindow:
    """Packets created before the measured window never count in it."""

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_outcome_conservation_with_warmup_backlog(self, protocol):
        scenario = Scenario(
            protocol=protocol, n_voice=10, n_data=4,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.4, warmup_s=0.5, seed=9,
        )
        result = run_simulation(scenario, PARAMS)
        voice, data = result.voice, result.data
        assert voice.delivered + voice.errored + voice.dropped <= voice.generated
        assert data.delivered <= data.generated
        assert len(data.delay_frames) == data.delivered
        assert all(delay >= 0 for delay in data.delay_frames)

    def test_window_reset_clears_counters(self):
        engine = UplinkSimulationEngine(
            Scenario(protocol="dtdma_fr", n_voice=8, n_data=2,
                     duration_s=0.5, warmup_s=0.0, seed=3),
            PARAMS,
        )
        for _ in range(120):
            engine.step()
        population = engine.population
        assert population.voice_generated.sum() > 0
        population.begin_measurement(engine.frame_index)
        assert population.voice_generated.sum() == 0
        assert population.voice_loss_total == 0
        assert population.all_data_delays() == []
        # Pre-window backlog may still be buffered — its later outcomes must
        # not be counted against the fresh window.
        engine.collector.reset()
        for _ in range(120):
            engine.step()
        result = engine.collect_results()
        voice = result.voice
        assert voice.delivered + voice.errored + voice.dropped <= voice.generated


class TestDenseIds:
    def test_snapshot_rejects_out_of_range_ids(self):
        from tests.utils import make_snapshot

        snapshot = make_snapshot([1.0, 2.0, 0.5])
        assert snapshot.amplitude_of(2) == 0.5
        with pytest.raises(IndexError, match="dense"):
            snapshot.amplitude_of(3)
        with pytest.raises(IndexError, match="dense"):
            snapshot.amplitude_of(-1)
        with pytest.raises(IndexError, match="dense"):
            snapshot.snr_db_of(17)

    @pytest.mark.parametrize("backend", ["object", "gpu"])
    def test_scenario_rejects_other_backends(self, backend):
        with pytest.raises(ValueError, match="engine_backend"):
            Scenario(protocol="charisma", n_voice=1, n_data=0,
                     engine_backend=backend)
