"""The fast RNG mode: statistical equivalence and stream plumbing.

``rng_mode="fast"`` batches whole-frame draws from per-subsystem child
streams, so a fast run is *not* bit-identical to a parity run — it is a
different, equally valid sample of the same stochastic model.  These tests
pin down exactly that contract:

* determinism — a fast run is reproducible from its seed, and its block
  size changes no result;
* statistical equivalence — across seed replicates, the metric means of
  the two modes agree within a paired Student-t confidence interval (all
  six protocols);
* accounting — the PR-2 conservation invariants hold in fast mode;
* plumbing — child streams are deterministic, label-independent in order,
  and distinct across labels/streams; the fast contention kernel draws a
  single matrix and resolves the same process as the scalar path.
"""

import math

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.mac.contention import run_contention_ids
from repro.mac.registry import available_protocols
from repro.sim.rng import RandomStreams, child_stream
from repro.sim.runner import run_simulation
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario
from repro.traffic.permission import PermissionPolicy
from tests.utils import run_in_blocks

PARAMS = SimulationParameters()

SEEDS = (0, 1, 2, 3, 4, 5)


def _run(protocol, seed, rng_mode):
    return run_simulation(
        Scenario(
            protocol=protocol, n_voice=10, n_data=3, use_request_queue=True,
            duration_s=0.5, warmup_s=0.15, seed=seed, rng_mode=rng_mode,
        ),
        PARAMS,
    )


def _metrics(result):
    return {
        "voice_generated": float(result.voice.generated),
        "data_generated": float(result.data.generated),
        "slot_utilisation": float(result.mac.slot_utilisation),
    }


def _paired_t_half_width(differences, confidence=0.99):
    n = len(differences)
    mean = sum(differences) / n
    variance = sum((d - mean) ** 2 for d in differences) / (n - 1)
    from scipy import stats as scipy_stats

    t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return mean, t_value * math.sqrt(variance / n)


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_metric_means_within_paired_t_ci(self, protocol):
        """Seed-paired parity/fast metric differences are centred on zero.

        For each metric the paired per-seed difference (parity − fast) must
        have |mean| within the Student-t confidence half-width — i.e. no
        statistically detectable bias between the modes.  Deterministic
        given the fixed seed list.
        """
        parity = [_metrics(_run(protocol, seed, "parity")) for seed in SEEDS]
        fast = [_metrics(_run(protocol, seed, "fast")) for seed in SEEDS]
        for metric in parity[0]:
            differences = [p[metric] - f[metric] for p, f in zip(parity, fast)]
            if all(d == 0 for d in differences):
                continue
            mean, half_width = _paired_t_half_width(differences)
            scale = max(
                1e-9,
                max(abs(p[metric]) for p in parity),
            )
            assert abs(mean) <= max(half_width, 0.05 * scale), (
                protocol, metric, mean, half_width,
            )

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_fast_mode_conservation(self, protocol):
        for seed in SEEDS[:3]:
            result = _run(protocol, seed, "fast")
            voice, data = result.voice, result.data
            assert (
                voice.delivered + voice.errored + voice.dropped
                <= voice.generated
            )
            assert data.delivered <= data.generated
            assert len(data.delay_frames) == data.delivered

    def test_fast_mode_is_deterministic(self):
        first = _run("charisma", 9, "fast").summary()
        second = _run("charisma", 9, "fast").summary()
        assert first == second

    @pytest.mark.parametrize(
        "protocol", ("rmav", "dtdma_vr", "drma", "charisma")
    )
    def test_macro_fast_mode_block_size_changes_no_result(self, protocol):
        """A fast run in 16-frame blocks equals the default run exactly.

        The block pools (DRMA's converted slots, CHARISMA's estimation
        noise on its dedicated child stream) roll back and replay what a
        block leaves unused, and the lazy channel is read in grant order,
        so a fast run is the same sample at any block size.
        """
        for seed in SEEDS:
            scenario = Scenario(
                protocol=protocol, n_voice=10, n_data=3,
                use_request_queue=(protocol != "rmav"),
                duration_s=0.5, warmup_s=0.15, seed=seed, rng_mode="fast",
            )
            default = UplinkSimulationEngine(scenario, PARAMS).run()
            blocks = run_in_blocks(UplinkSimulationEngine(scenario, PARAMS), 16)
            assert (blocks.voice, blocks.data, blocks.mac) == (
                default.voice, default.data, default.mac,
            ), seed

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_macro_fast_mode_conservation(self, protocol):
        engine = UplinkSimulationEngine(
            Scenario(
                protocol=protocol, n_voice=10, n_data=3,
                use_request_queue=(protocol != "rmav"),
                duration_s=0.4, warmup_s=0.15, seed=1,
                rng_mode="fast",
            ),
            PARAMS,
        )
        result = run_in_blocks(engine, 16)
        voice, data = result.voice, result.data
        assert voice.delivered + voice.errored + voice.dropped <= voice.generated
        assert data.delivered <= data.generated
        assert len(data.delay_frames) == data.delivered

    def test_charisma_macro_fast_batched_csi_engages_and_is_deterministic(self):
        """The batched-CSI lookahead actually runs, reproducibly.

        In fast mode CHARISMA's estimation noise comes from a dedicated
        child stream the macro runner prefetches a block of normals from,
        so macro blocks must take the pooled CSI path — and two
        identically-seeded runs must agree bit-for-bit.
        """
        def build():
            return UplinkSimulationEngine(
                Scenario(
                    protocol="charisma", n_voice=10, n_data=3,
                    use_request_queue=True, duration_s=0.4, warmup_s=0.1,
                    seed=9, rng_mode="fast",
                ),
                PARAMS,
            )

        first = build()
        first_result = run_in_blocks(first, 16)
        # The pooled estimation noise engaged in fast mode.
        draws = first._macro._draws
        assert draws._csi_pool is not None
        assert draws.estimate == draws._pooled_estimate
        assert first_result.voice.delivered > 0
        second = build()
        assert first_result.summary() == run_in_blocks(second, 16).summary()

    def test_fast_and_parity_differ_but_share_initial_state(self):
        """Same seed, different draw partitioning: the realisations diverge
        (they are different samples), while construction-time state —
        drawn from the shared stream in both modes — is identical."""
        engines = {
            mode: UplinkSimulationEngine(
                Scenario(protocol="dtdma_fr", n_voice=8, n_data=2,
                         duration_s=0.5, warmup_s=0.1, seed=21, rng_mode=mode),
                PARAMS,
            )
            for mode in ("parity", "fast")
        }
        assert np.array_equal(
            engines["parity"].population.countdown,
            engines["fast"].population.countdown,
        )


class TestChildStreams:
    def test_child_is_deterministic_and_order_independent(self):
        streams_a = RandomStreams(42)
        streams_b = RandomStreams(42)
        # Request children in different orders: same (seed, stream, label)
        # must yield the same generator state either way.
        toggle_a = streams_a.child("traffic", "toggle")
        burst_a = streams_a.child("traffic", "burst")
        burst_b = streams_b.child("traffic", "burst")
        toggle_b = streams_b.child("traffic", "toggle")
        assert toggle_a.random(4).tolist() == toggle_b.random(4).tolist()
        assert burst_a.random(4).tolist() == burst_b.random(4).tolist()

    def test_children_distinct_across_labels_streams_and_seeds(self):
        streams = RandomStreams(7)
        draws = {
            ("traffic", "toggle"): streams.child("traffic", "toggle").random(6),
            ("traffic", "burst"): streams.child("traffic", "burst").random(6),
            ("mac", "toggle"): streams.child("mac", "toggle").random(6),
        }
        values = [tuple(v.tolist()) for v in draws.values()]
        assert len(set(values)) == len(values)
        other_seed = RandomStreams(8).child("traffic", "toggle").random(6)
        assert not np.array_equal(draws[("traffic", "toggle")], other_seed)

    def test_child_does_not_disturb_parent_stream(self):
        streams = RandomStreams(3)
        before = streams["traffic"].bit_generator.state["state"]
        streams.child("traffic", "toggle")
        after = streams["traffic"].bit_generator.state["state"]
        assert before == after

    def test_unknown_stream_raises(self):
        with pytest.raises(KeyError):
            RandomStreams(0).child("nope", "toggle")

    def test_child_stream_function_matches_method(self):
        streams = RandomStreams(5)
        seq = np.random.SeedSequence(5).spawn(len(streams.names))[1]  # traffic
        direct = child_stream(seq, "toggle").random(3)
        via_method = RandomStreams(5).child("traffic", "toggle").random(3)
        assert direct.tolist() == via_method.tolist()


class TestFastContention:
    def test_fast_draws_one_matrix(self):
        class CountingRNG:
            def __init__(self):
                self.calls = 0
                self._rng = np.random.default_rng(0)

            def random(self, size=None):
                self.calls += 1
                return self._rng.random(size)

        rng = CountingRNG()
        run_contention_ids(
            np.arange(12), 6, PermissionPolicy(0.3, 0.2), 10, rng, fast=True
        )
        assert rng.calls == 1

    def test_fast_statistics_match_parity_distribution(self):
        """Aggregate winner/collision statistics of the two paths agree.

        The processes are distributionally identical; over many trials the
        mean winner and collision counts must lie close together.
        """
        ids = np.arange(10)
        permission = PermissionPolicy(0.3, 0.2)  # ids 0-4 voice, 5-9 data
        totals = {"parity": [0, 0], "fast": [0, 0]}
        rng_parity = np.random.default_rng(100)
        rng_fast = np.random.default_rng(200)
        trials = 400
        for _ in range(trials):
            parity = run_contention_ids(ids, 5, permission, 6, rng_parity)
            fast = run_contention_ids(
                ids, 5, permission, 6, rng_fast, fast=True
            )
            totals["parity"][0] += len(parity.winner_ids)
            totals["parity"][1] += parity.collisions
            totals["fast"][0] += len(fast.winner_ids)
            totals["fast"][1] += fast.collisions
        for index in (0, 1):
            mean_parity = totals["parity"][index] / trials
            mean_fast = totals["fast"][index] / trials
            assert abs(mean_parity - mean_fast) < 0.25, (index, totals)

    def test_fast_winner_drops_out_of_later_minislots(self):
        """After a minislot win the winner must stop transmitting: with one
        certain transmitter (voice at p_v = 1) and the rest practically
        silent (data at p_d = 1e-9), every later minislot is idle — never a
        second win by the same candidate."""
        result = run_contention_ids(
            np.array([4, 9]), 5, PermissionPolicy(1.0, 1e-9), 6,
            np.random.default_rng(1), fast=True,
        )
        assert result.winner_ids == [4]
        assert result.idle_slots == 5

    def test_empty_candidates_all_idle(self):
        for fast in (False, True):
            result = run_contention_ids(
                np.zeros(0, dtype=np.int64), 0, PermissionPolicy(0.5, 0.5), 4,
                np.random.default_rng(0), fast=fast,
            )
            assert result.idle_slots == 4
            assert result.winner_ids == []
