"""The lazy channel: users advance only when a snapshot read asks for them.

In ``rng_mode="fast"`` the engine's :class:`ChannelManager` keeps each
user's complex gain, shadow deviation and the frame it was last advanced
to, and a read jumps the user to the snapshot's frame through the exact
``k``-step AR(1) marginal.  These tests pin that contract: the values are
equal in law to the eager per-frame recursion, reads go forward in time,
duplicate reads are free and consistent, the interference penalty applies
at read time, and a run that reads nothing draws nothing.
"""

import math

import numpy as np
import pytest

from repro.channel.doppler import DopplerModel
from repro.channel.fading import clarke_correlation
from repro.channel.manager import ChannelManager, EagerSnapshot, LazySnapshot
from repro.config import SimulationParameters
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario
from tests.utils import run_in_blocks

PARAMS = SimulationParameters()
DT = PARAMS.frame_duration_s
#: Pedestrian speed: rho is close to 1, so k-step correlations stay large.
SLOW = DopplerModel(speed_kmh=5.0)


def make(n_users, seed=0, doppler=SLOW, **kw):
    return ChannelManager(
        n_users, doppler, frame_duration_s=DT,
        rng=np.random.default_rng(seed), lazy=True, **kw,
    )


def gains(manager):
    """The complex gains a lazy manager keeps (its per-user state)."""
    return np.array(manager._re) + 1j * np.array(manager._im)


def gain_correlation(first, second):
    """Normalised ``E[conj(g1) g2] / E[|g1|^2]`` over the population."""
    return float(np.mean(np.conj(first) * second).real / np.mean(np.abs(first) ** 2))


class TestEqualInLaw:
    def test_mean_square_amplitude_is_unity_without_shadowing(self):
        manager = make(4000, seed=1, shadow_std_db=0.0)
        snapshots = manager.advance_block(120)
        rng = np.random.default_rng(2)
        # Every user is read at its own irregular frames, so the jumps
        # cover many different k.
        for user in range(4000):
            for frame in sorted(rng.choice(120, size=3, replace=False)):
                snapshots[frame].read(user)
        amplitude = snapshots[-1].gather(np.arange(4000))
        assert np.mean(amplitude**2) == pytest.approx(1.0, abs=0.06)

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_gain_correlation_is_rho_to_the_k(self, k):
        manager = make(6000, seed=3, shadow_std_db=0.0)
        snapshots = manager.advance_block(10 + k)
        everyone = np.arange(6000)
        snapshots[9].gather(everyone)
        before = gains(manager)
        snapshots[9 + k].gather(everyone)
        after = gains(manager)
        rho = clarke_correlation(SLOW.doppler_hz, DT)
        assert gain_correlation(before, after) == pytest.approx(rho**k, abs=0.04)
        # The jump keeps the stationary power.
        assert np.mean(np.abs(after) ** 2) == pytest.approx(1.0, abs=0.06)

    def test_shadow_deviation_std_is_sigma(self):
        manager = make(5000, seed=4, shadow_std_db=6.0)
        snapshots = manager.advance_block(400)
        everyone = np.arange(5000)
        snapshots[99].gather(everyone)
        snapshots[399].gather(everyone)
        deviation = np.array(manager._dev)
        assert np.std(deviation) == pytest.approx(6.0, abs=0.25)
        assert np.mean(deviation) == pytest.approx(0.0, abs=0.3)

    def test_per_user_doppler_list(self):
        slow, fast = SLOW, DopplerModel(speed_kmh=50.0)
        n = 8000
        manager = make(n, seed=5, shadow_std_db=0.0, doppler=[slow, fast] * (n // 2))
        k = 3
        snapshots = manager.advance_block(5 + k)
        everyone = np.arange(n)
        snapshots[4].gather(everyone)
        before = gains(manager)
        snapshots[4 + k].gather(everyone)
        after = gains(manager)
        for offset, model in ((0, slow), (1, fast)):
            rho = clarke_correlation(model.doppler_hz, DT)
            group = slice(offset, None, 2)
            assert gain_correlation(before[group], after[group]) == pytest.approx(
                rho**k, abs=0.05
            )
            assert np.mean(np.abs(after[group]) ** 2) == pytest.approx(1.0, abs=0.08)

    def test_construction_matches_the_eager_manager(self):
        lazy = make(50, seed=6)
        eager = ChannelManager(
            50, SLOW, frame_duration_s=DT,
            rng=np.random.default_rng(6),
        )
        assert lazy._rng.bit_generator.state == eager._rng.bit_generator.state
        lazy_now, eager_now = lazy.snapshot(), eager.snapshot()
        assert isinstance(lazy_now, LazySnapshot)
        assert isinstance(eager_now, EagerSnapshot)
        np.testing.assert_allclose(
            lazy_now.gather(np.arange(50)), eager_now.amplitude, rtol=1e-12
        )
        np.testing.assert_allclose(
            lazy_now.gather(np.arange(50), snr_db=True), eager_now.snr_db, rtol=1e-12
        )


class TestReadContract:
    def test_reading_an_earlier_frame_raises(self):
        manager = make(4)
        snapshots = manager.advance_block(5)
        snapshots[3].read(1)
        with pytest.raises(ValueError, match="frame"):
            snapshots[1].read(1)
        # Other users keep their own stamps.
        snapshots[1].read(2)

    def test_duplicate_gather_advances_each_user_once(self):
        twin_a, twin_b = make(8, seed=7), make(8, seed=7)
        frame_a = twin_a.advance_block(10)[-1]
        frame_b = twin_b.advance_block(10)[-1]
        values = frame_a.gather([4, 4, 1, 4])
        assert values[0] == values[1] == values[3]
        np.testing.assert_array_equal(frame_b.gather([4, 1]), values[[0, 2]])
        # Both twins consumed the same normals: their next reads agree.
        assert frame_a.read(6) == frame_b.read(6)
        assert frame_a.read(4, snr_db=True) == frame_b.gather([4], snr_db=True)[0]

    def test_interference_applies_at_read_time(self):
        clean, coupled = make(4, seed=8), make(4, seed=8)
        handle_clean = clean.advance_block(3)[-1]
        handle_coupled = coupled.advance_block(3)[-1]
        before = handle_coupled.read(0)
        assert handle_clean.read(0) == before
        # Set after the handle was made: the next read carries it.
        coupled.set_interference_db(6.0)
        gain = 10.0 ** (-6.0 / 20.0)
        assert handle_coupled.read(0) == pytest.approx(before * gain)
        assert handle_coupled.read(2) == pytest.approx(handle_clean.read(2) * gain)
        assert handle_clean.read(2, snr_db=True) - handle_coupled.read(
            2, snr_db=True
        ) == pytest.approx(6.0)

    def test_id_errors_carry_beam_and_local_id(self):
        sharded = make(4, beam=7)
        with pytest.raises(IndexError, match=r"beam 7, local_id 99"):
            sharded.snapshot().read(99)
        with pytest.raises(IndexError, match=r"beam 7, local_id -1"):
            sharded.snapshot().gather([0, -1])
        with pytest.raises(IndexError, match=r"user_id 4"):
            make(4).snapshot().read(4, snr_db=True)

    def test_eager_gather_raises_the_lazy_id_errors(self):
        # NumPy indexing would wrap -1 around to user 3.
        eager = ChannelManager(
            4, SLOW, frame_duration_s=DT, rng=np.random.default_rng(0), beam=2
        ).advance_frame()
        lazy = make(4, beam=2).advance_frame()
        assert isinstance(eager, EagerSnapshot)
        for ids, bad in (([0, -1], -1), ([3, 4], 4), (np.array([-2, 9]), -2)):
            for snapshot in (eager, lazy):
                with pytest.raises(IndexError, match=rf"beam 2, local_id {bad}\)"):
                    snapshot.gather(ids, snr_db=True)
        np.testing.assert_array_equal(
            eager.gather([3, 0, 3]), eager.amplitude[[3, 0, 3]]
        )
        assert eager.gather([]).shape == (0,)

    def test_zero_amplitude_reads_minus_infinity_db(self):
        manager = make(1, shadow_std_db=0.0)
        manager._re[0] = manager._im[0] = 0.0
        assert manager.snapshot().read(0, snr_db=True) == -math.inf


class TestEngine:
    @pytest.mark.parametrize("block_frames", [1, 16])
    def test_run_that_grants_nothing_draws_no_channel_noise(self, block_frames):
        # Data terminals whose first burst is far beyond the run: nothing
        # contends, nothing is granted, nothing reads the channel.
        params = SimulationParameters(mean_data_interarrival_s=1e9)
        engine = UplinkSimulationEngine(
            Scenario(
                protocol="charisma", n_voice=0, n_data=6, duration_s=0.2,
                warmup_s=0.05, seed=2, rng_mode="fast",
            ),
            params,
        )
        assert isinstance(engine.channels.snapshot(), LazySnapshot)
        channel_rng = engine.channels._rng
        constructed = channel_rng.bit_generator.state
        result = run_in_blocks(engine, block_frames)
        assert result.mac.allocated_slots == 0
        assert engine.frame_index > 0
        assert channel_rng.bit_generator.state == constructed

    def test_parity_engine_stays_eager(self):
        engine = UplinkSimulationEngine(
            Scenario(protocol="rmav", n_voice=2, n_data=1, duration_s=0.05,
                     warmup_s=0.0),
            PARAMS,
        )
        assert isinstance(engine.channels.snapshot(), EagerSnapshot)
