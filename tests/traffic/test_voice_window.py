"""The voice buffer window against a list of buffered packets' frames.

A voice terminal's FIFO is one bit window relative to its head-of-line
frame.  The property test here drives the window through random
generation (on both sides of ``ARRAY_EVENTS``), voice pops, deadline drops,
measurement windows and handover export/import, and checks every step
against a model that keeps each terminal's buffered packets as a list of
creation frames.  The guard tests check that states the window cannot
hold raise instead of corrupting the buffer.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.accel import WINDOW_BITS
from repro.config import SimulationParameters
from repro.traffic.population import (
    ARRAY_EVENTS,
    TerminalMigrationState,
    TerminalPopulation,
    TrafficBlockPlan,
)
from tests.utils import make_population

PARAMS = SimulationParameters()
DEADLINE = PARAMS.voice_deadline_frames
N_VOICE = ARRAY_EVENTS + 4
N_DATA = 2


def generate(population, frame, ids):
    """Replay a one-frame plan in which ``ids`` generate a voice packet."""
    plan = TrafficBlockPlan(frame, 1)
    plan.voice_gen[0] = list(ids)
    population.apply_planned_frame(plan, frame)


class Model:
    """Each voice terminal's buffered packets as a list of creation frames."""

    def __init__(self):
        self.packets = [[] for _ in range(N_VOICE)]
        self.generated = [0] * N_VOICE
        self.dropped = [0] * N_VOICE
        self.loss_total = 0
        self.measure_from = 0

    def pop(self, index, max_packets):
        popped = self.packets[index][:max_packets]
        del self.packets[index][:max_packets]
        return len(popped), sum(c < self.measure_from for c in popped)

    def drop(self, frame):
        limit = frame - DEADLINE
        ids, lost, counted = [], [], []
        for i, packets in enumerate(self.packets):
            expired = [c for c in packets if c <= limit]
            if not expired:
                continue
            self.packets[i] = packets[len(expired):]
            in_window = sum(c >= self.measure_from for c in expired)
            self.dropped[i] += in_window
            self.loss_total += in_window
            ids.append(i)
            lost.append(len(expired))
            counted.append(in_window)
        return ids, lost, counted

    def begin_measurement(self, frame):
        self.measure_from = frame
        self.generated = [0] * N_VOICE
        self.dropped = [0] * N_VOICE
        self.loss_total = 0

    def swap(self, i, j):
        for column in (self.packets, self.generated, self.dropped):
            column[i], column[j] = column[j], column[i]


def assert_matches(population, model):
    assert population.occupancy[:N_VOICE].tolist() == [
        len(p) for p in model.packets
    ]
    assert population.head_created[:N_VOICE].tolist() == [
        p[0] if p else -1 for p in model.packets
    ]
    assert [
        population.export_terminal_state(i).segments for i in range(N_VOICE)
    ] == [[[c, 1] for c in p] for p in model.packets]
    assert population.voice_generated[:N_VOICE].tolist() == model.generated
    assert population.voice_dropped[:N_VOICE].tolist() == model.dropped
    assert population.voice_loss_total == model.loss_total
    for index in range(N_VOICE, N_VOICE + N_DATA):
        assert population.export_terminal_state(index).segments == []


voice_ids = st.integers(0, N_VOICE - 1)
advance = st.integers(0, 3)
STEPS = {
    "generate": st.tuples(
        st.just("generate"),
        advance,
        st.one_of(
            st.sets(voice_ids, max_size=ARRAY_EVENTS - 1),
            st.sets(voice_ids, min_size=ARRAY_EVENTS),
        ),
    ),
    "pop": st.tuples(st.just("pop"), voice_ids, st.integers(1, 3)),
    # Up to a deadline's worth of frames, so packets expire between drops.
    "drop": st.tuples(st.just("drop"), st.integers(0, DEADLINE + 1)),
    "measure": st.tuples(st.just("measure"), advance),
    "swap": st.tuples(st.just("swap"), voice_ids, voice_ids),
}
# Measurement windows open rarely enough that packets from just before one
# live on to its pops and drops.
steps = st.lists(
    st.sampled_from(
        ["generate"] * 3 + ["pop"] * 3 + ["drop"] * 3 + ["measure", "swap"]
    ).flatmap(STEPS.__getitem__),
    min_size=20,
    max_size=60,
)


# Packets created just before a measurement window opens, popped and
# dropped on the scalar and the array paths.
@example([("generate", 0, {0}), ("measure", 1), ("pop", 0, 1)])
@example([
    ("generate", 0, {0}), ("generate", 1, {0}), ("measure", 0), ("pop", 0, 2),
])
@example([("generate", 0, {0}), ("measure", 1), ("drop", DEADLINE)])
@example([
    ("generate", 0, set(range(N_VOICE))), ("measure", 1), ("drop", DEADLINE),
])
@settings(max_examples=100, deadline=None)
@given(steps)
def test_window_matches_a_list_of_creation_frames(steps):
    population = TerminalPopulation(
        PARAMS, N_VOICE, N_DATA, np.random.default_rng(0)
    )
    model = Model()
    frame = 0
    for step in steps:
        kind = step[0]
        if kind == "generate":
            # A talker generates once a frame, and the frame loop's drops
            # keep its head within the window (the guards are tested below).
            frame += step[1]
            ids = [
                i for i in sorted(step[2])
                if not model.packets[i] or (
                    model.packets[i][-1] != frame
                    and frame - model.packets[i][0] < WINDOW_BITS
                )
            ]
            for i in ids:
                model.packets[i].append(frame)
                model.generated[i] += 1
            generate(population, frame, ids)
        elif kind == "pop":
            _, index, max_packets = step
            assert population.transmit_voice_pop(index, max_packets) == (
                model.pop(index, max_packets)
            )
        elif kind == "drop":
            frame += step[1]
            ids, lost, counted = population.drop_expired_events(frame)
            assert (list(ids), list(lost), list(counted)) == model.drop(frame)
        elif kind == "measure":
            frame += step[1]
            population.begin_measurement(frame)
            model.begin_measurement(frame)
        else:
            _, i, j = step
            incoming = population.export_terminal_state(j)
            population.import_terminal_state(j, population.export_terminal_state(i))
            population.import_terminal_state(i, incoming)
            model.swap(i, j)
        assert_matches(population, model)


class TestWindowGuards:
    def test_construction_rejects_a_deadline_the_window_cannot_hold(self):
        frame_s = PARAMS.frame_duration_s
        widest = PARAMS.with_overrides(voice_deadline_s=(WINDOW_BITS - 1) * frame_s)
        assert widest.voice_deadline_frames == WINDOW_BITS - 1
        TerminalPopulation(widest, 1, 0, np.random.default_rng(0))
        too_wide = PARAMS.with_overrides(voice_deadline_s=WINDOW_BITS * frame_s)
        with pytest.raises(ValueError, match="voice_deadline_frames 64"):
            TerminalPopulation(too_wide, 1, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("segments", (
        [[5, 2]],
        [[5, 1], [5, 1]],
        [[6, 1], [5, 1]],
    ), ids=("two-in-one-segment", "repeated-frame", "out-of-order"))
    def test_import_rejects_a_buffer_not_one_packet_a_frame(self, segments):
        population = TerminalPopulation(
            PARAMS, 2, 0, np.random.default_rng(0), beam=3
        )
        state = TerminalMigrationState(
            is_voice=True, in_talkspurt=True, countdown=9,
            frames_since_packet=0, occupancy=2,
            head_created=segments[0][0], segments=segments,
        )
        with pytest.raises(
            ValueError, match=r"\(beam 3, local_id 1\).*one packet a frame"
        ):
            population.import_terminal_state(1, state)
        # The slot is untouched.
        assert population.occupancy.tolist() == [0, 0]
        assert population.export_terminal_state(1).segments == []

    def test_import_rejects_a_state_wider_than_the_window(self):
        population = make_population(voice=[1])
        state = population.export_terminal_state(0)
        state.segments = [[0, 1], [WINDOW_BITS, 1]]
        state.occupancy = 2
        with pytest.raises(ValueError, match=r"terminal 0.*wider than"):
            population.import_terminal_state(0, state)
        assert population.export_terminal_state(0).segments == [[0, 1]]

    def test_import_rejects_segments_that_disagree_with_the_counts(self):
        population = make_population(voice=[2])
        state = population.export_terminal_state(0)
        state.occupancy = 3
        with pytest.raises(ValueError, match=r"terminal 0.*disagree"):
            population.import_terminal_state(0, state)

    @pytest.mark.parametrize("n_talkers", (1, ARRAY_EVENTS))
    def test_generation_rejects_a_head_the_window_cannot_reach(self, n_talkers):
        """Packets kept past their deadline (no drops for WINDOW_BITS
        frames) leave a head the window cannot reach from the next
        generation: it raises, on the scalar and the array path, and the
        buffers keep their packets."""
        population = make_population(voice=[1] * n_talkers)
        generate(population, WINDOW_BITS - 1, range(n_talkers))
        with pytest.raises(ValueError, match="window"):
            generate(population, WINDOW_BITS, range(n_talkers))
        assert population.occupancy.tolist() == [2] * n_talkers
        assert population.head_created.tolist() == [0] * n_talkers
        assert population.export_terminal_state(n_talkers - 1).segments == [
            [0, 1], [WINDOW_BITS - 1, 1],
        ]
