"""Macro-stepping correctness: lookahead truncation edges and machinery.

The parity suite (``test_macro_parity.py``) asserts whole-run
bit-identity across block sizes; this module pins the specific events that
truncate or re-align a block — a contention success mid-block, a
reservation expiring at a block boundary, CHARISMA's per-frame CSI draws —
plus the roll-back/replay pool and the accel kernels themselves.  The tests
pick the block size through the engine (:func:`tests.utils.run_in_blocks`).
"""

import numpy as np
import pytest

from repro.accel import (
    WINDOW_BITS,
    deadline_scan,
    next_expiry_bound,
    voice_flush_resolve,
    window_arrivals,
    window_drops,
)
from repro.config import SimulationParameters
from repro.mac.contention import run_contention_ids
from repro.mac.registry import create_protocol
from repro.phy.csi import CSIEstimator
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.macro import BlockDraws, RandomPool
from repro.sim.scenario import Scenario
from repro.traffic.population import ARRAY_EVENTS, TerminalPopulation
from tests.utils import run_in_blocks

PARAMS = SimulationParameters()

#: Every (protocol, RNG mode) pair with a request queue.
QUEUE_CELLS = [
    (protocol, rng_mode)
    for protocol in ("charisma", "dtdma_fr", "dtdma_vr", "rama", "drma")
    for rng_mode in ("parity", "fast")
]


def _pair(block_frames, **kwargs):
    """The cell's results in one-frame blocks and in blocks of ``block_frames``."""
    return tuple(
        run_in_blocks(UplinkSimulationEngine(Scenario(**kwargs), PARAMS), k)
        for k in (1, block_frames)
    )


class TestLookaheadTruncation:
    def test_contention_success_mid_block(self):
        """Winners inside a block truncate the pre-drawn pool exactly.

        A loaded scenario resolves contention successes in nearly every
        block; the per-frame metric streams (not just totals) must align
        across the roll-back/replay boundaries.
        """
        base = dict(protocol="dtdma_fr", n_voice=20, n_data=6,
                    duration_s=0.6, warmup_s=0.1, seed=5)
        engines = {}
        for block_frames in (1, 16):
            engine = UplinkSimulationEngine(Scenario(**base), PARAMS)
            result = run_in_blocks(engine, block_frames)
            engines[block_frames] = (engine, result)
        reference = engines[1][1]
        macro = engines[16][1]
        # The workload must actually exercise the truncation path:
        # contention happened and produced reservations (winners).
        assert reference.mac.contention_attempts > 0
        assert reference.voice.delivered > 0
        assert reference.summary() == macro.summary()
        assert (
            engines[1][0].collector.voice_loss_events_per_frame
            == engines[16][0].collector.voice_loss_events_per_frame
        )

    @pytest.mark.parametrize("block_frames", (2, 3, 5, 7, 8, 9, 16))
    def test_reservation_boundaries_across_block_phases(self, block_frames):
        """Talkspurt ends / reservation releases land on every possible
        position relative to block boundaries as the block size varies;
        each must re-align the holder set without drift."""
        base = dict(protocol="rmav", n_voice=14, n_data=0,
                    duration_s=0.5, warmup_s=0.1, seed=2)
        reference, macro = _pair(block_frames, **base)
        assert reference.summary() == macro.summary()

    def test_charisma_parity_csi_frames_match(self):
        """Parity CHARISMA draws its CSI estimates from the shared MAC
        stream every frame, between the request phases; blocks of 16 must
        still equal one-frame blocks exactly."""
        base = dict(protocol="charisma", n_voice=10, n_data=3,
                    use_request_queue=True, duration_s=0.5, warmup_s=0.1,
                    seed=9)
        reference, macro = _pair(16, **base)
        assert reference.summary() == macro.summary()

    def test_macro_frames_exceeding_measured_frames(self):
        """Blocks clamp to the remaining warm-up/measured frame counts."""
        base = dict(protocol="dtdma_vr", n_voice=8, n_data=2,
                    duration_s=0.1, warmup_s=0.025, seed=4)
        reference, macro = _pair(64, **base)
        assert reference.summary() == macro.summary()
        # The default run's blocks of 64 are longer than either phase.
        scenario = Scenario(**base)
        engine = UplinkSimulationEngine(scenario, PARAMS)
        assert engine.run().summary() == reference.summary()
        assert engine.frame_index == (
            scenario.warmup_frames(PARAMS) + scenario.measured_frames(PARAMS)
        )

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("protocol, rng_mode", QUEUE_CELLS)
    def test_queue_backed_frames_run_inline(self, protocol, rng_mode, seed):
        """The golden grid's macro-64 queue cells: blocks of 64 serve the
        backlog and each summary equals its one-frame-block twin."""
        base = dict(protocol=protocol, n_voice=60, n_data=20,
                    use_request_queue=True, duration_s=0.15, warmup_s=0.1,
                    seed=seed, rng_mode=rng_mode)
        reference, macro = _pair(64, **base)
        assert reference.summary() == macro.summary()

    @pytest.mark.parametrize("fast", (False, True), ids=("parity", "fast"))
    @pytest.mark.parametrize("n_voice", (40, 400))
    def test_phase_buckets_match_one_frame_blocks(self, n_voice, fast):
        """One 64-frame block replays exactly what 64 one-frame blocks do,
        below the array gate (40 talkers' few events a frame) and above it
        (400 talkers' dozens), on either RNG mode's event draws, with
        talkspurts toggling inside the block and a measurement window
        opening mid-block: the same arrays, exported FIFO segments and
        drop columns.  The
        generations and ``frames_since_packet`` also match a model built
        from the talkspurt history alone."""

        def build():
            event_rngs = (
                (np.random.default_rng(5), np.random.default_rng(6))
                if fast else None
            )
            population = TerminalPopulation(
                PARAMS, n_voice, n_voice // 4, np.random.default_rng(17),
                event_rngs=event_rngs,
            )
            # Talkers with staggered phases, and source events spread over
            # the block so talkspurts start and end inside it.
            rng = np.random.default_rng(99)
            population.in_talkspurt[:n_voice] = rng.random(n_voice) < 0.6
            population.frames_since_packet[:n_voice] = rng.integers(
                0, 40, n_voice
            )
            population.countdown[:] = rng.integers(1, 60, len(population))
            return population

        def replay(population, blocks):
            generated, drops, talking = [], [], []
            for start, n_frames in blocks:
                plan = population.plan_frames(start, n_frames)
                for frame in range(start, start + n_frames):
                    if frame == 24:
                        population.begin_measurement(frame)
                    before = int(population.voice_generated.sum())
                    population.apply_planned_frame(plan, frame)
                    generated.append(
                        int(population.voice_generated.sum()) - before
                    )
                    drops.append(tuple(
                        list(column)
                        for column in population.drop_expired_events(frame)
                    ))
                    talking.append(population.in_talkspurt[:n_voice].copy())
            return generated, drops, talking

        n_frames = 64
        stepped = build()
        step_generated, step_drops, history = replay(
            stepped, [(frame, 1) for frame in range(n_frames)]
        )
        block = build()
        block_generated, block_drops, _ = replay(block, [(0, n_frames)])

        # The model: a talker generates every period frames from its
        # talkspurt's first frame; frames_since_packet ends as the frames
        # since that first frame, or as the length of a talkspurt that
        # ended, or untouched.
        initial = build()
        was = initial.in_talkspurt[:n_voice]
        since = initial.frames_since_packet[:n_voice].copy()
        first = -since
        model_generated = []
        for frame, now in enumerate(history):
            first = np.where(now & ~was, frame, first)
            ended = was & ~now
            since[ended] = frame - first[ended]
            model_generated.append(
                int((now & ((frame - first) % PARAMS.frames_per_voice_period == 0)).sum())
            )
            was = now
        since[was] = n_frames - first[was]
        assert step_generated == model_generated
        assert stepped.frames_since_packet[:n_voice].tolist() == since.tolist()

        assert block_generated == step_generated
        assert block_drops == step_drops
        for name in (
            "occupancy", "head_created", "in_talkspurt", "countdown",
            "frames_since_packet", "voice_generated", "voice_dropped",
            "data_generated",
        ):
            assert np.array_equal(getattr(stepped, name), getattr(block, name)), name
        assert [
            stepped.export_terminal_state(i).segments for i in range(len(stepped))
        ] == [block.export_terminal_state(i).segments for i in range(len(block))]
        assert stepped.voice_loss_total == block.voice_loss_total
        # Talkspurts toggled inside the block, window-crossing packets were
        # dropped, and the frames sit on the intended side of the gate.
        assert not np.array_equal(stepped.in_talkspurt, build().in_talkspurt)
        assert any(
            dropped > counted
            for _, lost, counted_ in step_drops
            for dropped, counted in zip(lost, counted_)
        )
        largest = max(max(step_generated), max(len(ids) for ids, _, _ in step_drops))
        if n_voice < 100:
            assert 0 < largest < ARRAY_EVENTS
        else:
            assert min(step_generated[8:]) >= ARRAY_EVENTS
            assert min(len(ids) for ids, _, _ in step_drops[8:]) >= ARRAY_EVENTS

    def test_interleaved_step_calls_resync_mirrors(self):
        """Frames advanced through engine.step() between run_frames calls
        are one-frame blocks of the same loop — the mixed schedule (blocks
        of 64, 32, 1 × 40, 64 and 40) must still be bit-identical to pure
        one-frame stepping."""
        base = dict(protocol="dtdma_fr", n_voice=16, n_data=4,
                    duration_s=0.6, warmup_s=0.0, seed=8)
        mixed = UplinkSimulationEngine(Scenario(**base), PARAMS)
        mixed.run_frames(96)
        for _ in range(40):
            mixed.step()
        mixed.run_frames(104)
        pure = UplinkSimulationEngine(Scenario(**base), PARAMS)
        for _ in range(240):
            pure.step()
        assert mixed.collect_results().summary() == pure.collect_results().summary()

    @pytest.mark.parametrize("protocol, rng_mode", QUEUE_CELLS)
    def test_candidate_mirror_tracks_the_queue(self, protocol, rng_mode):
        """Queued terminals leave the runner's incremental candidate mirror
        and return once served or pruned: after every block it equals the
        authoritative ``contention_candidate_ids``."""
        engine = UplinkSimulationEngine(
            Scenario(protocol=protocol, n_voice=90, n_data=20,
                     use_request_queue=True, duration_s=0.5, warmup_s=0.0,
                     seed=1, rng_mode=rng_mode),
            PARAMS,
        )
        for _ in range(25):
            engine.run_frames(8)
            runner = engine._macro
            assert not runner._mirrors_dirty
            ids = engine.protocol.contention_candidate_ids(engine.population)
            assert runner._cand_ids == ids.tolist()
        # The queue was in use.
        assert engine.collect_results().mac.mean_queue_length > 0

    @pytest.mark.parametrize("rng_mode", ("parity", "fast"))
    def test_candidate_mirror_tracks_a_wide_cell(self, rng_mode):
        """2,000 terminals generate and drop dozens of voice packets a
        frame, so the mirror takes its membership skip and its one-gather
        drop check: after every block it still equals the authoritative
        ``contention_candidate_ids``."""
        engine = UplinkSimulationEngine(
            Scenario(protocol="charisma", n_voice=1600, n_data=400,
                     use_request_queue=True, duration_s=0.5, warmup_s=0.0,
                     seed=1, rng_mode=rng_mode),
            PARAMS,
        )
        for _ in range(25):
            engine.run_frames(8)
            runner = engine._macro
            assert not runner._mirrors_dirty
            ids = engine.protocol.contention_candidate_ids(engine.population)
            assert runner._cand_ids == ids.tolist()
            assert runner._cand_set == set(runner._cand_ids)
        result = engine.collect_results()
        assert result.voice.generated >= ARRAY_EVENTS * 200
        assert result.voice.dropped >= ARRAY_EVENTS * 100

    def test_large_population_path_stays_json_safe(self):
        """Above the bulk-tolist threshold (>256 terminals) the fast path
        reads occupancy from the array; stat records must stay plain ints
        (JSON/store safety) and results bit-identical."""
        import json

        base = dict(protocol="dtdma_vr", n_voice=240, n_data=40,
                    duration_s=0.15, warmup_s=0.05, seed=3)
        reference, macro = _pair(16, **base)
        assert reference.summary() == macro.summary()
        json.dumps(macro.summary())  # would raise on numpy scalar leakage

    def test_record_block_rejects_negative_counters(self):
        from repro.metrics.collector import MetricsCollector

        collector = MetricsCollector(PARAMS, 8)
        with pytest.raises(ValueError, match="non-negative"):
            collector.record_block([[0, 0, 0, 0, 0, -1, 0]])

    def test_macro_frames_validation(self):
        with pytest.raises(ValueError, match="macro_frames"):
            Scenario(protocol="rmav", n_voice=1, n_data=0, macro_frames=0)


class TestMidBlockTruncationProperty:
    """Property: a mid-block contention win truncates the pre-drawn pool to
    exactly the consumed prefix.

    DRMA and RAMA resolve contended frames inline (winners re-enter the
    same frame's pending pool, deep data winners span several converted
    slots), so a block's pool consumption is data-dependent and truncation
    happens constantly.  If the roll-back/replay ever returned one draw too
    many or too few, the shared generator would leave the run in a state no
    per-frame execution can reach — so beyond summary bit-identity, the
    *generator states themselves* must converge for every block size.
    """

    @pytest.mark.parametrize("block_frames", (4, 16, 64))
    @pytest.mark.parametrize("protocol", ("drma", "rama"))
    def test_winner_reentry_reconsumes_exactly_the_used_prefix(
        self, protocol, block_frames
    ):
        base = dict(protocol=protocol, n_voice=24, n_data=6,
                    duration_s=0.5, warmup_s=0.1, seed=11)
        reference_engine = UplinkSimulationEngine(Scenario(**base), PARAMS)
        reference = run_in_blocks(reference_engine, 1)
        macro_engine = UplinkSimulationEngine(Scenario(**base), PARAMS)
        macro = run_in_blocks(macro_engine, block_frames)
        # The workload must actually exercise winner re-entry: contention
        # resolved winners and voice flowed.
        assert reference.mac.contention_attempts > 0
        assert reference.voice.delivered > 0
        assert reference.summary() == macro.summary()
        # The property itself: after the run, the pooled generator sits at
        # exactly the position one-frame blocks leave it — the block's
        # unconsumed suffix was returned, the consumed prefix replayed,
        # nothing more.
        assert (
            reference_engine.protocol.contention_rng.bit_generator.state
            == macro_engine.protocol.contention_rng.bit_generator.state
        )
        # And both streams keep producing identical draws from here on.
        assert np.array_equal(
            reference_engine.protocol.contention_rng.random(16),
            macro_engine.protocol.contention_rng.random(16),
        )


class TestRandomPool:
    def test_partitioned_takes_match_direct_draws(self):
        pool_rng = np.random.default_rng(42)
        direct_rng = np.random.default_rng(42)
        pool = RandomPool(pool_rng, chunk=16)
        taken = np.concatenate(
            [pool.take(5), pool.random(size=30), pool.take(7)]
        )
        assert np.array_equal(taken, direct_rng.random(42))

    def test_close_replays_exactly_the_consumed_prefix(self):
        pool_rng = np.random.default_rng(7)
        direct_rng = np.random.default_rng(7)
        pool = RandomPool(pool_rng, chunk=64)
        pool.take(10)
        pool.close()
        direct_rng.random(10)
        # After closing, both generators must continue identically.
        assert np.array_equal(pool_rng.random(20), direct_rng.random(20))

    def test_close_without_use_is_a_noop(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        RandomPool(rng).close()
        assert rng.bit_generator.state == state


class TestBlockDraws:
    @pytest.mark.parametrize("n_candidates, p_voice, p_data", [
        (5, 0.3, 0.5),  # the scalar path
        (40, 0.05, 0.02),  # the array path
    ])
    def test_converted_slot_contends_on_the_pool_like_a_twin_generator(
        self, n_candidates, p_voice, p_data
    ):
        """A DRMA converted slot — the ``run_contention_ids`` call that
        ``DRMAProtocol.serve_slots`` makes, on the block's pool — resolves
        exactly like the kernel's per-minislot draws on a twin generator,
        slot after slot, and leaves the stream where the twin's draws
        leave it once the block closes."""
        ids = list(range(0, 2 * n_candidates, 2))
        n_voice = n_candidates  # the first half of the ids are voice
        params = PARAMS.with_overrides(
            voice_permission_probability=p_voice,
            data_permission_probability=p_data,
        )
        outcomes = set()
        for seed in range(12):
            protocol = create_protocol("drma", params, np.random.default_rng(seed))
            twin = np.random.default_rng(seed)
            minislots = protocol.frame_structure.minislots_per_info_slot
            draws = BlockDraws(protocol)
            for _ in range(4):
                got = run_contention_ids(
                    ids, n_voice, protocol.permission, minislots, draws.pool
                )
                want = run_contention_ids(
                    ids, n_voice, protocol.permission, minislots, twin
                )
                assert got == want
                outcomes.add(len(got.winner_ids))
            assert ids == list(range(0, 2 * n_candidates, 2))
            draws.close()
            assert (protocol.contention_rng.bit_generator.state
                    == twin.bit_generator.state)
        assert {0, 1} <= outcomes  # winnerless and winning slots both occur

    def test_fast_mode_estimate_pools_the_estimator_stream(self):
        """In fast mode the frames' CSI estimates come from pooled normals:
        the values explicit ``estimate_amplitudes`` calls draw on a twin
        generator, with the stream left where those calls leave it."""
        protocol = create_protocol(
            "charisma", PARAMS, np.random.default_rng(0),
            contention_rng=np.random.default_rng(1),
            csi_rng=np.random.default_rng(3),
        )
        draws = BlockDraws(protocol)
        assert draws.estimate == draws._pooled_estimate
        twin = CSIEstimator(
            n_pilot_symbols=PARAMS.pilot_symbols_per_request,
            mean_snr_db=PARAMS.mean_snr_db,
            validity_frames=PARAMS.csi_validity_frames,
            rng=np.random.default_rng(3),
        )
        for amplitudes in ([1.0, 0.0, 3.0], [], [0.5, 0.02]):
            got = draws.estimate(np.array(amplitudes), 7)
            want = twin.estimate_amplitudes(np.array(amplitudes), 7)
            assert got.tolist() == want.tolist()
        draws.close()
        assert (protocol.csi_estimator.noise_rng.bit_generator.state
                == twin.noise_rng.bit_generator.state)


class TestAccelKernels:
    def test_deadline_scan_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            heads = rng.integers(-1, 40, size=n)
            limit = int(rng.integers(-1, 40))
            expected = [
                i for i, head in enumerate(heads.tolist()) if 0 <= head <= limit
            ]
            assert deadline_scan(heads, limit).tolist() == expected
            alive = [head for head in heads.tolist() if head >= 0]
            bound = min(alive) + 8 if alive else 10**9
            assert next_expiry_bound(heads, 8, 10**9) == bound

    def test_window_arrivals_and_drops_match_a_packet_list(self):
        """The window kernels against each terminal's list of buffered
        packets' creation frames: arrivals append the frame, drops remove
        the frames at or before the limit and count those from the
        measurement window's start on."""
        rng = np.random.default_rng(1)
        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(1, 40))
            frame = int(rng.integers(0, 90))
            # Each buffer: distinct frames within the window's reach.
            packets = [
                sorted(rng.choice(
                    np.arange(max(0, frame - 60), frame), replace=False,
                    size=int(rng.integers(0, min(3, frame) + 1)),
                ).tolist())
                for _ in range(n)
            ]

            def arrays():
                head = np.array([p[0] if p else -1 for p in packets], dtype=np.int64)
                window = np.array(
                    [sum(1 << (c - p[0]) for c in p) if p else 0 for p in packets],
                    dtype=np.uint64,
                )
                occupancy = np.array([len(p) for p in packets], dtype=np.int64)
                return window, occupancy, head

            window, occupancy, head_created = arrays()
            generated = rng.integers(0, 5, size=n)
            want_generated = generated.copy()
            ids = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            fresh = any(not packets[i] for i in ids.tolist())
            for i in ids.tolist():
                packets[i].append(frame)
                want_generated[i] += 1
            got = window_arrivals(ids, frame, window, occupancy, generated, head_created)
            assert got == fresh
            assert generated.tolist() == want_generated.tolist()
            for got_array, want_array in zip(
                (window, occupancy, head_created), arrays()
            ):
                assert got_array.tolist() == want_array.tolist()
            outcomes.add(fresh)

            limit = int(rng.integers(-1, frame + 1))
            measure_from = int(rng.integers(0, frame + 2))
            ids = deadline_scan(head_created, limit)
            voice_dropped = rng.integers(0, 5, size=n)
            want_dropped = voice_dropped.copy()
            want_lost, want_counted = [], []
            for i in ids.tolist():
                expired = [c for c in packets[i] if c <= limit]
                packets[i] = [c for c in packets[i] if c > limit]
                counted = sum(c >= measure_from for c in expired)
                want_lost.append(len(expired))
                want_counted.append(counted)
                want_dropped[i] += counted
            lost, counted = window_drops(
                ids, limit, measure_from, window, occupancy, head_created,
                voice_dropped,
            )
            assert lost.tolist() == want_lost
            assert counted.tolist() == want_counted
            assert voice_dropped.tolist() == want_dropped.tolist()
            want_window, want_occupancy, want_head = arrays()
            assert occupancy.tolist() == want_occupancy.tolist()
            assert head_created.tolist() == want_head.tolist()
            alive = want_head >= 0
            assert window[alive].tolist() == want_window[alive].tolist()
        assert outcomes == {False, True}

    def test_window_drops_of_a_stale_head_empty_the_window(self):
        """Drops that resume after a head fell WINDOW_BITS or more frames
        behind the limit still remove every packet at or before it."""
        window = np.array([0b101, 1 | 1 << 63], dtype=np.uint64)
        occupancy = np.array([2, 2], dtype=np.int64)
        head_created = np.array([0, 0], dtype=np.int64)
        voice_dropped = np.zeros(2, dtype=np.int64)
        ids = np.array([0, 1])
        lost, counted = window_drops(
            ids, WINDOW_BITS + 5, 1, window, occupancy, head_created,
            voice_dropped,
        )
        assert lost.tolist() == [2, 2] and counted.tolist() == [1, 1]
        assert occupancy.tolist() == [0, 0]
        assert head_created.tolist() == [-1, -1]

    def test_voice_flush_resolve_matches_row_loop(self):
        # Reference: one row at a time, the first `delivered` of a row's
        # popped packets were received, the rest errored, and the
        # `pre_window` FIFO prefix counts towards neither.
        rng = np.random.default_rng(2)
        cases = set()
        for _ in range(60):
            n = int(rng.integers(0, 25))
            n_ids = int(rng.integers(1, 8))
            size = n_ids + int(rng.integers(0, 3))
            terminal_ids = rng.integers(0, n_ids, size=n)
            counts = rng.integers(0, 5, size=n)
            pre_window = rng.integers(0, counts + 1)
            delivered = rng.integers(0, counts + 1)

            delivered_totals = [0] * size
            errored_totals = [0] * size
            errored = []
            for tid, count, pre, got in zip(
                terminal_ids.tolist(), counts.tolist(),
                pre_window.tolist(), delivered.tolist(),
            ):
                floor = got if got > pre else pre
                delivered_totals[tid] += got - pre if got > pre else 0
                errored_totals[tid] += count - floor
                errored.append(count - floor)
                cases.add((int(np.sign(got - pre)), count == floor))

            got_delivered, got_errored, got_rows, got_errors = (
                voice_flush_resolve(
                    terminal_ids, counts, pre_window, delivered, size
                )
            )
            assert got_delivered.tolist() == delivered_totals
            assert got_errored.tolist() == errored_totals
            assert got_rows.tolist() == [
                row for row, err in enumerate(errored) if err
            ]
            assert got_errors.tolist() == errored
        # delivered below, at and above pre_window, each with and without
        # an errored packet.
        assert cases == {
            (sign, clean) for sign in (-1, 0, 1) for clean in (False, True)
        }

    def test_resolve_voice_outcomes_adds_to_population_counters(self):
        from tests.utils import make_population

        population = make_population(voice=[0] * 6, data=[0, 0])
        population.voice_delivered[:] = [3, 0, 1, 0, 2, 0, 0, 0]
        population.voice_errored[:] = [0, 1, 0, 0, 0, 2, 0, 0]
        delivered_before = population.voice_delivered.tolist()
        errored_before = population.voice_errored.tolist()
        loss_before = population.voice_loss_total
        # Terminal 1 transmits in three frames; terminal 4 never does.
        terminal_ids = np.array([1, 0, 1, 5, 2, 1], dtype=np.int64)
        counts = np.array([3, 2, 1, 4, 2, 2], dtype=np.int64)
        pre_window = np.array([1, 0, 0, 2, 2, 0], dtype=np.int64)
        delivered = np.array([2, 2, 0, 1, 2, 1], dtype=np.int64)

        rows, errors = population.resolve_voice_outcomes(
            terminal_ids, counts, pre_window, delivered
        )

        assert rows.tolist() == [0, 2, 3, 5]
        assert errors.tolist() == [1, 0, 1, 2, 0, 1]
        assert (population.voice_delivered - delivered_before).tolist() == [
            2, 2, 0, 0, 0, 0, 0, 0,
        ]
        assert (population.voice_errored - errored_before).tolist() == [
            0, 3, 0, 0, 0, 2, 0, 0,
        ]
        assert population.voice_loss_total == loss_before + 5


class TestDispatchCounter:
    def test_counts_per_phase_and_floor_drops_under_macro(self):
        counts = {}
        for block_frames in (1, 16):
            scenario = Scenario(protocol="rmav", n_voice=16, n_data=4,
                                duration_s=0.25, warmup_s=0.0, seed=1)
            engine = UplinkSimulationEngine(scenario, PARAMS)
            engine.enable_phase_timing(count_dispatches=True)
            try:
                run_in_blocks(engine, block_frames)  # 100 measured frames
                counts[block_frames] = dict(engine.dispatch_counts)
            finally:
                engine.disable_phase_timing()
        assert counts[1]["traffic"] > 0
        assert counts[1]["phy"] > 0
        total_per_frame = sum(counts[1].values())
        total_macro = sum(counts[16].values())
        assert total_macro < total_per_frame
