"""Equivalence of the vectorised trace paths against per-step advancing.

The Fig. 5 trace generators used to loop ``advance()`` sample by sample;
they now draw their noise in one batch (same draw order, hence identical
random-stream consumption) and evaluate the AR(1) recursions as linear
filters.  These tests pin the equivalence with the loop implementation.
"""

import numpy as np
import pytest

from repro.channel.composite import CompositeChannel
from repro.channel.doppler import DopplerModel
from repro.channel.fading import RayleighFading
from repro.channel.manager import ChannelManager
from repro.channel.shadowing import LogNormalShadowing

DOPPLER = DopplerModel(speed_kmh=50.0)


def loop_trace(process, n, dt=None):
    return np.array([process.advance(dt) for _ in range(n)])


class TestRayleighTrace:
    def test_matches_advance_loop(self):
        vec = RayleighFading(100.0, 0.0025, np.random.default_rng(5))
        loop = RayleighFading(100.0, 0.0025, np.random.default_rng(5))
        np.testing.assert_allclose(
            vec.trace(2000), loop_trace(loop, 2000), rtol=1e-10, atol=1e-13
        )
        # Both paths leave the generator and the gain in the same state.
        assert vec.complex_gain == loop.complex_gain
        assert vec._rng.bit_generator.state == loop._rng.bit_generator.state

    def test_custom_dt_matches_loop(self):
        vec = RayleighFading(100.0, 0.0025, np.random.default_rng(6))
        loop = RayleighFading(100.0, 0.0025, np.random.default_rng(6))
        np.testing.assert_allclose(
            vec.trace(500, dt=0.001), loop_trace(loop, 500, dt=0.001),
            rtol=1e-10, atol=1e-13,
        )

    def test_trace_continues_from_current_state(self):
        fading = RayleighFading(100.0, 0.0025, np.random.default_rng(7))
        first = fading.trace(10)
        second = fading.trace(10)
        assert not np.array_equal(first, second)

    def test_empty_and_invalid(self):
        fading = RayleighFading(100.0, 0.0025, np.random.default_rng(0))
        assert fading.trace(0).shape == (0,)
        with pytest.raises(ValueError):
            fading.trace(-1)
        with pytest.raises(ValueError):
            fading.trace(5, dt=-0.1)


class TestShadowingTrace:
    def test_matches_advance_loop(self):
        vec = LogNormalShadowing(rng=np.random.default_rng(8))
        loop = LogNormalShadowing(rng=np.random.default_rng(8))
        levels = []
        for _ in range(2000):
            loop.advance()
            levels.append(loop.level_db)
        np.testing.assert_allclose(
            vec.trace_db(2000), np.array(levels), rtol=1e-9, atol=1e-9
        )
        assert vec._rng.bit_generator.state == loop._rng.bit_generator.state

    def test_zero_std_is_constant_without_draws(self):
        shadowing = LogNormalShadowing(std_db=0.0, mean_db=-1.5,
                                       rng=np.random.default_rng(9))
        state = shadowing._rng.bit_generator.state
        trace = shadowing.trace_db(50)
        assert np.all(trace == -1.5)
        assert shadowing._rng.bit_generator.state == state


class TestCompositeTrace:
    def test_matches_advance_loop(self):
        vec = CompositeChannel(DOPPLER, rng=np.random.default_rng(10))
        loop = CompositeChannel(DOPPLER, rng=np.random.default_rng(10))
        np.testing.assert_allclose(
            vec.trace(2000), loop_trace(loop, 2000), rtol=1e-9, atol=1e-12
        )
        # Subsequent advancing agrees too: the trace left both sub-process
        # states and the shared generator in the loop path's state.
        np.testing.assert_allclose(
            [vec.advance() for _ in range(5)],
            [loop.advance() for _ in range(5)],
            rtol=1e-9,
        )

    def test_zero_shadow_std_matches_loop_exactly(self):
        vec = CompositeChannel(DOPPLER, rng=np.random.default_rng(11),
                               shadow_std_db=0.0)
        loop = CompositeChannel(DOPPLER, rng=np.random.default_rng(11),
                                shadow_std_db=0.0)
        np.testing.assert_allclose(
            vec.trace(500), loop_trace(loop, 500), rtol=1e-12
        )


class TestManagerBlockAdvance:
    @pytest.mark.parametrize("shadow_std", [4.0, 0.0])
    def test_block_bit_identical_to_per_frame(self, shadow_std):
        per_frame = ChannelManager(40, DOPPLER, rng=np.random.default_rng(3),
                                   shadow_std_db=shadow_std)
        blocked = ChannelManager(40, DOPPLER, rng=np.random.default_rng(3),
                                 shadow_std_db=shadow_std)
        singles = [per_frame.advance_frame() for _ in range(70)]
        blocks = (
            blocked.advance_block(32)
            + blocked.advance_block(32)
            + blocked.advance_block(6)
        )
        for single, block in zip(singles, blocks):
            assert single.frame_index == block.frame_index
            assert np.array_equal(single.amplitude, block.amplitude)
            assert np.array_equal(single.snr_db, block.snr_db)
        # The states (and streams) continue identically after the block.
        follow_a = per_frame.advance_frame()
        follow_b = blocked.advance_frame()
        assert np.array_equal(follow_a.amplitude, follow_b.amplitude)

    def test_block_validates_and_handles_empty(self):
        manager = ChannelManager(4, DOPPLER, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            manager.advance_block(-1)
        assert manager.advance_block(0) == []

    def test_mixed_speed_population_takes_the_block_path(self, monkeypatch):
        dopplers = [DopplerModel(speed_kmh=30.0), DopplerModel(speed_kmh=80.0)]
        blocked = ChannelManager(2, dopplers, rng=np.random.default_rng(4))
        per_frame = ChannelManager(2, dopplers, rng=np.random.default_rng(4))
        blocks = blocked.advance_block(10)
        singles = [per_frame.advance_frame() for _ in range(10)]
        for single, block in zip(singles, blocks):
            assert np.array_equal(single.amplitude, block.amplitude)

        # Five speeds over 40 users, each user with its own rho: the blocks
        # step every user at once and never fall back to single frames.
        speeds = [3.0, 15.0, 30.0, 50.0, 70.0]
        dopplers = [DopplerModel(speed_kmh=speeds[i % 5]) for i in range(40)]
        blocked = ChannelManager(40, dopplers, rng=np.random.default_rng(9))
        per_frame = ChannelManager(40, dopplers, rng=np.random.default_rng(9))
        assert len(np.unique(blocked._rho_fast)) == 5

        def no_single_frames():
            raise AssertionError("advance_block stepped frame by frame")

        monkeypatch.setattr(blocked, "advance_frame", no_single_frames)
        blocks = (
            blocked.advance_block(64)
            + blocked.advance_block(64)
            + blocked.advance_block(2)
        )
        singles = [per_frame.advance_frame() for _ in range(130)]
        for single, block in zip(singles, blocks):
            assert single.frame_index == block.frame_index
            assert np.array_equal(single.amplitude, block.amplitude)
            assert np.array_equal(single.snr_db, block.snr_db)
        assert (
            blocked._rng.bit_generator.state == per_frame._rng.bit_generator.state
        )
