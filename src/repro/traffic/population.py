"""Struct-of-arrays terminal population: the traffic state of a whole cell.

:class:`TerminalPopulation` keeps every terminal's traffic state in NumPy
arrays — buffer occupancy, head-of-line created frames, talkspurt and burst
countdowns, per-kind outcome counters — and advances it with a handful of
vectorised operations per frame, looping in Python only over the rare
*events* of a frame (talkspurt toggles, burst arrivals, deadline expiries,
grants).  The MAC protocols' ``run_frame_batch`` kernels read the arrays
directly.

RNG draw order
--------------
In parity RNG mode the population draws from the run's ``traffic`` stream
in a fixed scalar order:

* construction draws one exponential per voice terminal (initial silence)
  followed by one per data terminal (initial inter-arrival);
* :meth:`advance_frame` draws scalar exponentials only for the terminals
  whose state toggles this frame, in ascending terminal-id order (voice ids
  always precede data ids).

:meth:`plan_frames` replays exactly that order for a whole macro block, so
macro-stepped runs are bit-identical to per-frame runs.  The golden
baselines in ``tests/golden`` pin the resulting realisations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from repro.accel import (
    deadline_scan,
    next_expiry_bound,
    voice_flush_resolve,
    voice_generation_offsets,
)
from repro.config import SimulationParameters
from repro.lint.contracts import kernel

__all__ = [
    "TerminalMigrationState",
    "TerminalPopulation",
    "TrafficBlockPlan",
]

#: Sentinel for "no buffered voice packet can expire" (see ``drop_expired``).
_NO_DROP = 1 << 62


@dataclass
class TerminalMigrationState:
    """One terminal's complete traffic state, detached from its population.

    The handover currency of the multi-beam constellation layer:
    :meth:`TerminalPopulation.export_terminal_state` materialises a slot into
    one of these and :meth:`TerminalPopulation.import_terminal_state` installs
    it into a (same-service-class) slot of another population, carrying the
    source model phase, the buffered FIFO segments and every accumulated
    statistic across the shard boundary.  Export followed by import is
    conservation-exact: no packet, delay sample or outcome counter is lost or
    duplicated (asserted by ``tests/constellation/test_handover.py``).
    """

    is_voice: bool
    in_talkspurt: bool
    countdown: int
    frames_since_packet: int
    occupancy: int
    head_created: int
    segments: List[List[int]] = field(default_factory=list)
    voice_generated: int = 0
    voice_delivered: int = 0
    voice_errored: int = 0
    voice_dropped: int = 0
    data_generated: int = 0
    data_delivered: int = 0
    data_retransmissions: int = 0
    data_delays: List[int] = field(default_factory=list)


class TrafficBlockPlan:
    """Pre-drawn traffic evolution for a block of frames (macro stepping).

    :meth:`TerminalPopulation.plan_frames` consumes the traffic stream for a
    whole block up front — in exactly the per-frame draw order, so the
    realisation is bit-identical — and records each frame's *events* here:

    * ``toggles[offset]`` — ``(index, now_talking)`` talkspurt transitions;
    * ``bursts[offset]`` — ``(index, size)`` data-burst arrivals;
    * ``voice_gen[offset]`` — indices generating a voice packet.

    Entries are ``None`` when a frame has no event of that kind (the common
    case), so the macro engine's per-frame application is a few list checks.
    Buffer state (occupancy, segments, counters) is only touched when
    :meth:`TerminalPopulation.apply_planned_frame` replays the frame —
    keeping the arrays the MAC layer reads exact at every frame boundary.
    """

    __slots__ = ("start", "n_frames", "toggles", "bursts", "voice_gen")

    def __init__(self, start: int, n_frames: int) -> None:
        self.start = int(start)
        self.n_frames = int(n_frames)
        self.toggles: List[Optional[List]] = [None] * n_frames
        self.bursts: List[Optional[List]] = [None] * n_frames
        self.voice_gen: List[Optional[List]] = [None] * n_frames


class TerminalPopulation:
    """Columnar (struct-of-arrays) state of a whole terminal population.

    Voice terminals occupy indices ``0 .. n_voice-1`` and data terminals the
    following ``n_data`` indices, so a terminal's id doubles as its row in
    every array and in the :class:`~repro.channel.manager.ChannelManager`.

    Parameters
    ----------
    params:
        Shared simulation parameters.
    n_voice, n_data:
        Population sizes per service class.
    rng:
        The run's ``traffic`` random stream (see the module docstring for
        the parity-mode draw order).
    """

    def __init__(
        self,
        params: SimulationParameters,
        n_voice: int,
        n_data: int,
        rng: np.random.Generator,
        rng_mode: str = "parity",
        toggle_rng: Optional[np.random.Generator] = None,
        burst_rng: Optional[np.random.Generator] = None,
        beam: Optional[int] = None,
    ) -> None:
        if n_voice < 0 or n_data < 0:
            raise ValueError("population sizes must be non-negative")
        if rng_mode not in ("parity", "fast"):
            raise ValueError(f"rng_mode must be 'parity' or 'fast', got {rng_mode!r}")
        self.params = params
        self._rng = rng
        # Fast RNG mode batches each frame's event draws (talkspurt/silence
        # toggles, burst arrivals) into single calls against dedicated child
        # streams; parity mode keeps the scalar draw order of the module
        # docstring on the shared traffic stream.  Construction draws always
        # come from the shared stream, so the initial population state is
        # identical in both modes.
        self._rng_fast = rng_mode == "fast"
        if self._rng_fast:
            self._toggle_rng = toggle_rng if toggle_rng is not None else rng.spawn(1)[0]
            self._burst_rng = burst_rng if burst_rng is not None else rng.spawn(1)[0]
        else:
            self._toggle_rng = self._burst_rng = None
        #: Beam index when this population is one shard of a multi-beam
        #: constellation (``None`` for plain single-cell runs); indices are
        #: then *beam-local*, and error messages carry ``(beam, local_id)``.
        self.beam = None if beam is None else int(beam)
        self.n_voice = int(n_voice)
        self.n_data = int(n_data)
        n = self.n_voice + self.n_data
        self._n = n
        self._dt = params.frame_duration_s
        self._period = params.frames_per_voice_period
        self._deadline = params.voice_deadline_frames

        self.is_voice = np.zeros(n, dtype=bool)
        self.is_voice[: self.n_voice] = True
        self.is_data_mask = ~self.is_voice

        # Talkspurt/burst state machines of the voice and data sources.
        # ``countdown`` unifies the two per-terminal timers — frames to the
        # next talkspurt/silence toggle for voice rows, frames to the next
        # burst arrival for data rows — so one vector compare per frame
        # finds every source event.
        self.in_talkspurt = np.zeros(n, dtype=bool)
        self.countdown = np.zeros(n, dtype=np.int64)
        self.frames_since_packet = np.zeros(n, dtype=np.int64)

        # Transmit buffers: occupancy + head-of-line created frame per
        # terminal, with the full FIFO content as (created_frame, count)
        # segments — one segment per voice packet, one per data burst — so
        # the per-frame cost is O(events), not O(packets).
        self.occupancy = np.zeros(n, dtype=np.int64)
        self.head_created = np.full(n, -1, dtype=np.int64)
        self._segments: List[Deque[List[int]]] = [deque() for _ in range(n)]

        # Per-terminal outcome counters.
        self.voice_generated = np.zeros(n, dtype=np.int64)
        self.voice_delivered = np.zeros(n, dtype=np.int64)
        self.voice_errored = np.zeros(n, dtype=np.int64)
        self.voice_dropped = np.zeros(n, dtype=np.int64)
        self.data_generated = np.zeros(n, dtype=np.int64)
        self.data_delivered = np.zeros(n, dtype=np.int64)
        self.data_retransmissions = np.zeros(n, dtype=np.int64)
        self._data_delays: List[List[int]] = [[] for _ in range(n)]

        self._measure_from = 0
        self._voice_loss_total = 0
        # Earliest frame at which any buffered voice packet could expire
        # (lower bound): drop_expired returns immediately before it, so the
        # per-frame deadline scan costs nothing while no voice backlog ages.
        self._next_drop_frame = _NO_DROP

        # Initial state draws (voice rows, then data rows): every voice
        # terminal starts in a silence period of random exponential length,
        # every data terminal draws its first burst inter-arrival.
        mean_silence = params.mean_silence_s
        for i in range(self.n_voice):
            self.countdown[i] = self._duration_frames(rng.exponential(mean_silence))
        mean_arrival = params.mean_data_interarrival_s
        for j in range(self.n_voice, n):
            self.countdown[j] = self._duration_frames(rng.exponential(mean_arrival))

    # ------------------------------------------------------------------ API
    def __len__(self) -> int:
        return self._n

    @property
    def n_terminals(self) -> int:
        """Total number of terminals."""
        return self._n

    @property
    def voice_loss_total(self) -> int:
        """Running total of voice losses (dropped + errored) this window."""
        return self._voice_loss_total

    @property
    def measure_from_frame(self) -> int:
        """First frame of the current measurement window."""
        return self._measure_from

    # -------------------------------------------------------------- traffic
    @kernel
    def advance_frame(self, frame_index: int) -> None:
        """Generate traffic for one frame across the whole population.

        Vectorised counters, with scalar RNG draws only for the terminals
        whose on/off state toggles or whose burst arrives this frame — in
        ascending id order (the parity draw order).
        """
        if frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        nv = self.n_voice
        params = self.params
        rng = self._rng

        countdown = self.countdown
        events = countdown == 0
        # Terminals firing an event get a fresh duration below, so the
        # global decrement may briefly take them negative.
        countdown -= 1
        if events.any():
            if self._rng_fast:
                self._fire_events_fast(events, frame_index)
            else:
                # Ascending index order fixes the scalar draw order (voice
                # ids precede data).
                for i in events.nonzero()[0]:
                    if i < nv:
                        if self.in_talkspurt[i]:
                            self.in_talkspurt[i] = False
                            # Per-terminal draw in the parity order
                            # (ascending index, voice before data).
                            # lint: allow[KRN001]
                            duration = rng.exponential(params.mean_silence_s)
                        else:
                            self.in_talkspurt[i] = True
                            self.frames_since_packet[i] = 0
                            # Same parity-ordered gate as the silence
                            # branch above.
                            # lint: allow[KRN001]
                            duration = rng.exponential(params.mean_talkspurt_s)
                        countdown[i] = self._duration_frames(duration)
                    else:
                        size = max(
                            1,
                            # lint: allow[KRN001] -- parity-ordered draw
                            int(round(rng.exponential(params.mean_data_burst_packets))),
                        )
                        countdown[i] = self._duration_frames(
                            # lint: allow[KRN001] -- parity-ordered draw
                            rng.exponential(params.mean_data_interarrival_s)
                        )
                        self.data_generated[i] += size
                        self.occupancy[i] += size
                        self._segments[i].append([frame_index, size])
                        if self.head_created[i] < 0:
                            self.head_created[i] = frame_index

        if nv:
            talking = self.in_talkspurt[:nv]
            since = self.frames_since_packet[:nv]
            generating = talking & (since % self._period == 0)
            since += talking
            if generating.any():
                self.voice_generated[:nv] += generating
                self.occupancy[:nv] += generating
                for i in generating.nonzero()[0]:
                    self._segments[i].append([frame_index, 1])
                    if self.head_created[i] < 0:
                        self.head_created[i] = frame_index
                        if frame_index + self._deadline < self._next_drop_frame:
                            self._next_drop_frame = frame_index + self._deadline

    def _fire_events_fast(self, events: np.ndarray, frame_index: int) -> None:
        """Batched source-event draws (fast RNG mode).

        Identical state transitions to the parity loop, but the frame's
        draws collapse into one batched call per draw site — talkspurt and
        silence durations from the ``toggle`` child stream, burst sizes and
        inter-arrivals from the ``burst`` child stream — so the per-frame
        RNG cost no longer scales with the number of firing terminals.
        """
        params = self.params
        dt = self._dt
        countdown = self.countdown
        indices = events.nonzero()[0]
        nv = self.n_voice

        # One or two firing terminals (the common case: toggles and bursts
        # are second-scale events against 2.5 ms frames) are cheaper as
        # scalar draws from the same child streams — identically
        # distributed, just without the array fixed costs.
        if indices.shape[0] <= 2:
            for i in indices.tolist():
                if i < nv:
                    if self.in_talkspurt[i]:
                        self.in_talkspurt[i] = False
                        mean = params.mean_silence_s
                    else:
                        self.in_talkspurt[i] = True
                        self.frames_since_packet[i] = 0
                        mean = params.mean_talkspurt_s
                    countdown[i] = self._duration_frames(
                        self._toggle_rng.exponential(mean)
                    )
                else:
                    size = max(
                        1,
                        int(round(
                            self._burst_rng.exponential(
                                params.mean_data_burst_packets
                            )
                        )),
                    )
                    countdown[i] = self._duration_frames(
                        self._burst_rng.exponential(
                            params.mean_data_interarrival_s
                        )
                    )
                    self.data_generated[i] += size
                    self.occupancy[i] += size
                    self._segments[i].append([frame_index, size])
                    if self.head_created[i] < 0:
                        self.head_created[i] = frame_index
            return

        voice_idx = indices[indices < nv]
        data_idx = indices[indices >= nv]

        if voice_idx.shape[0]:
            talking = self.in_talkspurt[voice_idx]
            means = np.where(
                talking, params.mean_silence_s, params.mean_talkspurt_s
            )
            durations = (
                self._toggle_rng.standard_exponential(voice_idx.shape[0]) * means
            )
            countdown[voice_idx] = np.maximum(
                1, np.round(durations / dt).astype(np.int64)
            )
            self.in_talkspurt[voice_idx] = ~talking
            self.frames_since_packet[voice_idx[~talking]] = 0

        if data_idx.shape[0]:
            k = data_idx.shape[0]
            sizes = np.maximum(
                1,
                np.round(
                    self._burst_rng.exponential(
                        params.mean_data_burst_packets, size=k
                    )
                ).astype(np.int64),
            )
            gaps = self._burst_rng.exponential(
                params.mean_data_interarrival_s, size=k
            )
            countdown[data_idx] = np.maximum(1, np.round(gaps / dt).astype(np.int64))
            self.data_generated[data_idx] += sizes
            self.occupancy[data_idx] += sizes
            head_created = self.head_created
            segments = self._segments
            for i, size in zip(data_idx.tolist(), sizes.tolist()):
                segments[i].append([frame_index, size])
                if head_created[i] < 0:
                    head_created[i] = frame_index

    # ------------------------------------------------------- macro stepping
    def plan_frames(self, start_frame: int, n_frames: int) -> TrafficBlockPlan:
        """Pre-draw a whole block's traffic evolution (macro stepping).

        Consumes the traffic stream for ``n_frames`` frames in **exactly**
        the order :meth:`advance_frame` would (event draws in ascending
        terminal-id order, frame by frame), so the planned realisation is
        bit-identical to per-frame advancing.  The talkspurt/burst counters
        (``countdown``, ``frames_since_packet``) are advanced to their
        end-of-block state here — nothing reads them mid-block — while
        everything the MAC layer observes per frame (``in_talkspurt``,
        buffers, outcome counters) is only mutated when
        :meth:`apply_planned_frame` replays each frame's recorded events.

        Event-free stretches are planned without per-frame work: the next
        source event is ``countdown.min()`` frames away, and the voice
        packets generated inside the gap follow deterministically from each
        talking terminal's phase counter.
        """
        if start_frame < 0:
            raise ValueError("start_frame must be non-negative")
        if n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        plan = TrafficBlockPlan(start_frame, n_frames)
        n = self._n
        if n == 0:
            return plan
        nv = self.n_voice
        period = self._period
        params = self.params
        rng = self._rng
        fast = self._rng_fast
        countdown = self.countdown
        talking = set(np.nonzero(self.in_talkspurt[:nv])[0].tolist())
        since = self.frames_since_packet[:nv].tolist()
        voice_gen = plan.voice_gen
        toggles = plan.toggles
        bursts = plan.bursts

        f = 0
        while f < n_frames:
            gap = int(countdown.min())
            if gap > 0:
                take = gap if gap < n_frames - f else n_frames - f
                if len(talking) >= 64:
                    # Large talking sets: one (compiled or vectorised)
                    # schedule evaluation instead of a per-terminal loop.
                    talk_ids = np.fromiter(
                        talking, dtype=np.int64, count=len(talking)
                    )
                    since_values = np.fromiter(
                        (since[i] for i in talk_ids.tolist()),
                        dtype=np.int64,
                        count=talk_ids.shape[0],
                    )
                    offsets, rows = voice_generation_offsets(
                        since_values, period, take
                    )
                    id_list = talk_ids.tolist()
                    for o, row in zip(offsets.tolist(), rows.tolist()):
                        lst = voice_gen[f + o]
                        if lst is None:
                            lst = voice_gen[f + o] = []
                        lst.append(id_list[row])
                    for i in id_list:
                        since[i] += take
                else:
                    for i in talking:
                        s = since[i]
                        o = (-s) % period
                        while o < take:
                            lst = voice_gen[f + o]
                            if lst is None:
                                lst = voice_gen[f + o] = []
                            lst.append(i)
                            o += period
                        since[i] = s + take
                countdown -= take
                f += take
                continue

            # Event frame: fire the due sources (draw order identical to
            # advance_frame), then generate for the updated talking set.
            fired = np.nonzero(countdown == 0)[0]
            countdown -= 1
            frame_toggles: List = []
            frame_bursts: List = []
            if fast:
                self._plan_events_fast(
                    fired, frame_toggles, frame_bursts, talking, since
                )
            else:
                for i in fired.tolist():
                    if i < nv:
                        if i in talking:
                            talking.discard(i)
                            frame_toggles.append((i, False))
                            duration = rng.exponential(params.mean_silence_s)
                        else:
                            talking.add(i)
                            since[i] = 0
                            frame_toggles.append((i, True))
                            duration = rng.exponential(params.mean_talkspurt_s)
                        countdown[i] = self._duration_frames(duration)
                    else:
                        size = max(
                            1,
                            int(round(rng.exponential(params.mean_data_burst_packets))),
                        )
                        countdown[i] = self._duration_frames(
                            rng.exponential(params.mean_data_interarrival_s)
                        )
                        frame_bursts.append((i, size))
            if frame_toggles:
                toggles[f] = frame_toggles
            if frame_bursts:
                bursts[f] = frame_bursts
            gen: Optional[List] = None
            for i in talking:
                s = since[i]
                if s % period == 0:
                    if gen is None:
                        gen = voice_gen[f] = []
                    gen.append(i)
                since[i] = s + 1
            f += 1

        if nv:
            self.frames_since_packet[:nv] = since
        return plan

    def _plan_events_fast(
        self, fired: np.ndarray, frame_toggles, frame_bursts, talking, since
    ) -> None:
        """Fast-RNG-mode event firing for :meth:`plan_frames`.

        Identical draw calls (streams, sizes, order) to
        :meth:`_fire_events_fast` on the same firing set, so a macro-stepped
        fast-mode run realises the same traffic as the per-frame fast path.
        """
        params = self.params
        dt = self._dt
        countdown = self.countdown
        nv = self.n_voice

        if fired.shape[0] <= 2:
            for i in fired.tolist():
                if i < nv:
                    if i in talking:
                        talking.discard(i)
                        frame_toggles.append((i, False))
                        mean = params.mean_silence_s
                    else:
                        talking.add(i)
                        since[i] = 0
                        frame_toggles.append((i, True))
                        mean = params.mean_talkspurt_s
                    countdown[i] = self._duration_frames(
                        self._toggle_rng.exponential(mean)
                    )
                else:
                    size = max(
                        1,
                        int(round(
                            self._burst_rng.exponential(
                                params.mean_data_burst_packets
                            )
                        )),
                    )
                    countdown[i] = self._duration_frames(
                        self._burst_rng.exponential(
                            params.mean_data_interarrival_s
                        )
                    )
                    frame_bursts.append((i, size))
            return

        voice_idx = fired[fired < nv]
        data_idx = fired[fired >= nv]

        if voice_idx.shape[0]:
            was_talking = np.array(
                [i in talking for i in voice_idx.tolist()], dtype=bool
            )
            means = np.where(
                was_talking, params.mean_silence_s, params.mean_talkspurt_s
            )
            durations = (
                self._toggle_rng.standard_exponential(voice_idx.shape[0]) * means
            )
            countdown[voice_idx] = np.maximum(
                1, np.round(durations / dt).astype(np.int64)
            )
            for i, was in zip(voice_idx.tolist(), was_talking.tolist()):
                if was:
                    talking.discard(i)
                    frame_toggles.append((i, False))
                else:
                    talking.add(i)
                    since[i] = 0
                    frame_toggles.append((i, True))

        if data_idx.shape[0]:
            k = data_idx.shape[0]
            sizes = np.maximum(
                1,
                np.round(
                    self._burst_rng.exponential(
                        params.mean_data_burst_packets, size=k
                    )
                ).astype(np.int64),
            )
            gaps = self._burst_rng.exponential(
                params.mean_data_interarrival_s, size=k
            )
            countdown[data_idx] = np.maximum(1, np.round(gaps / dt).astype(np.int64))
            for i, size in zip(data_idx.tolist(), sizes.tolist()):
                frame_bursts.append((i, size))

    @kernel
    def apply_planned_frame(self, plan: TrafficBlockPlan, frame_index: int) -> None:
        """Replay one planned frame's events onto the live state.

        Together with the counter advances done at plan time this leaves
        every array a MAC kernel reads (``in_talkspurt``, ``occupancy``,
        segment FIFOs, outcome counters) in exactly the state
        :meth:`advance_frame` would have produced at this frame.
        """
        offset = frame_index - plan.start
        toggles = plan.toggles[offset]
        if toggles is not None:
            in_talkspurt = self.in_talkspurt
            for i, now_talking in toggles:
                in_talkspurt[i] = now_talking
        gen = plan.voice_gen[offset]
        if gen is not None:
            occupancy = self.occupancy
            generated = self.voice_generated
            head_created = self.head_created
            segments = self._segments
            expiry = frame_index + self._deadline
            for i in gen:
                generated[i] += 1
                occupancy[i] += 1
                segments[i].append([frame_index, 1])
                if head_created[i] < 0:
                    head_created[i] = frame_index
                    if expiry < self._next_drop_frame:
                        self._next_drop_frame = expiry
        bursts = plan.bursts[offset]
        if bursts is not None:
            occupancy = self.occupancy
            generated = self.data_generated
            head_created = self.head_created
            segments = self._segments
            for i, size in bursts:
                generated[i] += size
                occupancy[i] += size
                segments[i].append([frame_index, size])
                if head_created[i] < 0:
                    head_created[i] = frame_index

    @kernel(batch=False)
    def transmit_voice_pop(self, index: int, max_packets: int):
        """Pop a voice grant's packets now, deferring the outcome counters.

        The deterministic half of :meth:`transmit` for a voice terminal:
        removes ``min(max_packets, occupancy)`` packets from the FIFO (a
        transmitted voice packet leaves the buffer whether or not it is
        received) and returns ``(n_transmitted, n_pre_window)`` so
        :meth:`record_voice_outcome` can attribute delivered/errored counts
        once the batched PHY draw resolves — the macro engine's mechanism
        for fusing many frames' voice transmissions into one draw.
        """
        occupancy = int(self.occupancy[index])
        n_transmitted = min(max_packets, occupancy)
        if n_transmitted == 0:
            return 0, 0
        segments = self._segments[index]
        window = self._measure_from
        pre = 0
        for _ in range(n_transmitted):
            created, _count = segments.popleft()
            if created < window:
                pre += 1
        self.occupancy[index] = occupancy - n_transmitted
        self.head_created[index] = segments[0][0] if segments else -1
        return n_transmitted, pre

    @kernel(batch=False)
    def record_voice_outcome(
        self, index: int, n_transmitted: int, n_pre_window: int, n_delivered: int
    ) -> int:
        """Resolve a deferred voice transmission's counters; return errors.

        Accounting-identical to the voice branch of :meth:`transmit` on the
        same popped packets: the first ``n_delivered`` positions were
        received, the rest errored, and positions before the measurement
        window (always a FIFO prefix) count towards neither.
        """
        floor = n_delivered if n_delivered > n_pre_window else n_pre_window
        delivered = n_delivered - n_pre_window if n_delivered > n_pre_window else 0
        errored = n_transmitted - floor
        if delivered:
            self.voice_delivered[index] += delivered
        if errored:
            self.voice_errored[index] += errored
            self._voice_loss_total += errored
        return errored

    @kernel
    def resolve_voice_outcomes(
        self,
        terminal_ids: np.ndarray,
        counts: np.ndarray,
        pre_window: np.ndarray,
        delivered: np.ndarray,
    ):
        """Batched :meth:`record_voice_outcome` over a flush's voice rows.

        One compiled (or NumPy-twin) pass resolves every deferred voice
        row's delivered/errored split and scatter-accumulates the
        per-terminal counters — count-identical to calling
        :meth:`record_voice_outcome` row by row, in any order (every update
        is an independent add).  Returns ``(rows, errors)``: the positions
        within the batch that errored, and the per-row errored counts, so
        the caller can attribute losses to its per-frame records.
        """
        delivered_totals, errored_totals, rows, errors = voice_flush_resolve(
            terminal_ids, counts, pre_window, delivered,
            self.occupancy.shape[0],
        )
        self.voice_delivered += delivered_totals
        self.voice_errored += errored_totals
        self._voice_loss_total += int(errored_totals.sum())
        return rows, errors

    def drop_expired(self, current_frame: int) -> int:
        """Drop buffered voice packets whose 20 ms deadline has passed.

        Returns the total number of packets removed; only drops of packets
        created inside the measurement window count towards the statistics.
        Frames at which no buffered voice
        packet can yet have expired (tracked via a conservative
        next-expiry lower bound) return without touching any array.
        """
        total = 0
        for _, dropped, _ in self.drop_expired_events(current_frame):
            total += dropped
        return total

    @kernel
    def drop_expired_events(self, current_frame: int):
        """Deadline expiry with per-terminal outcomes (macro-engine form).

        Returns a sequence of ``(index, dropped, counted)`` tuples — the
        terminals whose head-of-line packets expired this frame, how many
        packets each lost, and how many of those fell inside the current
        measurement window (the ones charged to ``voice_dropped``).  State
        mutations are identical to :meth:`drop_expired`.
        """
        nv = self.n_voice
        if not nv or current_frame < self._next_drop_frame:
            return ()
        heads = self.head_created[:nv]
        # head_created is -1 exactly when the buffer is empty, so a single
        # range test finds the expired heads.
        expired = deadline_scan(heads, current_frame - self._deadline)
        events = []
        if expired.shape[0]:
            for i in expired:
                segments = self._segments[i]
                dropped = 0
                counted = 0
                while segments and segments[0][0] + self._deadline <= current_frame:
                    created, count = segments.popleft()
                    dropped += count
                    if created >= self._measure_from:
                        counted += count
                self.occupancy[i] -= dropped
                self.head_created[i] = segments[0][0] if segments else -1
                if counted:
                    self.voice_dropped[i] += counted
                    self._voice_loss_total += counted
                events.append((int(i), dropped, counted))
        # Re-derive the next-expiry lower bound.  Transmissions only move
        # heads later (FIFO), so a bound computed here can never skip a
        # real expiry; fresh heads tighten it at their append sites.
        self._next_drop_frame = next_expiry_bound(
            self.head_created[:nv], self._deadline, _NO_DROP
        )
        return events

    # --------------------------------------------------------- transmission
    @kernel(batch=False)
    def transmit(
        self, index: int, max_packets: int, n_delivered: int, current_frame: int
    ) -> int:
        """Record a transmission opportunity's outcome for one terminal.

        Outcomes of packets created before the measurement window are not
        counted.  Voice pops every transmitted packet
        (errored ones are lost), data pops only the delivered ones and
        counts the rest as retransmissions.
        """
        if max_packets < 0:
            raise ValueError("max_packets must be non-negative")
        occupancy = int(self.occupancy[index])
        n_transmitted = min(max_packets, occupancy)
        if n_delivered < 0 or n_delivered > n_transmitted:
            raise ValueError("n_delivered must lie in [0, n_transmitted]")
        if n_transmitted == 0:
            return 0
        segments = self._segments[index]
        window = self._measure_from

        if self.is_voice[index]:
            delivered = 0
            errored = 0
            for position in range(n_transmitted):
                created, count = segments.popleft()
                if created < window:
                    continue
                if position < n_delivered:
                    delivered += count
                else:
                    errored += count
            self.occupancy[index] -= n_transmitted
            self.head_created[index] = segments[0][0] if segments else -1
            if delivered:
                self.voice_delivered[index] += delivered
            if errored:
                self.voice_errored[index] += errored
                self._voice_loss_total += errored
            return n_transmitted

        remaining = n_delivered
        delays = self._data_delays[index]
        while remaining:
            segment = segments[0]
            created, count = segment
            take = min(remaining, count)
            if created >= window:
                self.data_delivered[index] += take
                delay = max(0, current_frame - created)
                delays.extend([delay] * take)
            if take == count:
                segments.popleft()
            else:
                segment[1] = count - take
            remaining -= take
        self.occupancy[index] -= n_delivered
        self.head_created[index] = segments[0][0] if segments else -1
        self.data_retransmissions[index] += n_transmitted - n_delivered
        return n_delivered

    @kernel
    def apply_grants(
        self, indices, capacities, delivered_counts, current_frame: int
    ) -> int:
        """Apply one executed batch of grants; return delivered data packets.

        Equivalent to calling :meth:`transmit` per grant (same order, same
        accounting); consolidated so the engine's hot loop crosses the
        population boundary once per batch instead of once per grant.
        """
        data_delivered = 0
        voice = self.is_voice
        for index, capacity, n_delivered in zip(indices, capacities, delivered_counts):
            n_ok = int(n_delivered)
            taken = self.transmit(
                index, max_packets=capacity, n_delivered=n_ok,
                current_frame=current_frame,
            )
            if not voice[index]:
                data_delivered += n_ok
            if taken > capacity:
                raise AssertionError("terminal consumed more packets than granted")
        return data_delivered

    # ------------------------------------------------------------ accounting
    def begin_measurement(self, frame_index: int) -> None:
        """Start a fresh measurement window at ``frame_index``.

        Zeroes every outcome counter and excludes packets created before the
        window from all future outcome accounting — the PR-2 epoch-tagging
        semantics (``delivered + errored + dropped <= generated``) carried
        over to array counters.
        """
        if frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        for array in (
            self.voice_generated,
            self.voice_delivered,
            self.voice_errored,
            self.voice_dropped,
            self.data_generated,
            self.data_delivered,
            self.data_retransmissions,
        ):
            array[:] = 0
        self._data_delays = [[] for _ in range(self._n)]
        self._measure_from = int(frame_index)
        self._voice_loss_total = 0

    # ----------------------------------------------------- handover migration
    def describe_index(self, index: int) -> str:
        """Human-readable id for error messages: beam-local when sharded."""
        if self.beam is None:
            return f"terminal {index}"
        return f"(beam {self.beam}, local_id {index})"

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self._n:
            where = (
                "population"
                if self.beam is None
                else f"beam {self.beam} (ids are beam-local)"
            )
            raise IndexError(
                f"{self.describe_index(index)} outside the dense 0.."
                f"{self._n - 1} {where}"
            )
        return index

    @kernel
    def export_terminal_state(self, index: int) -> TerminalMigrationState:
        """Detach one slot's full traffic state (handover export).

        Returns an owning copy — FIFO segments and delay samples included —
        and leaves the slot itself untouched; the caller is expected to
        overwrite it with :meth:`import_terminal_state` (a handover is a
        state *swap* between two same-class slots, keeping both populations
        at their fixed sizes and dense-id layouts).
        """
        index = self._check_index(index)
        return TerminalMigrationState(
            is_voice=bool(self.is_voice[index]),
            in_talkspurt=bool(self.in_talkspurt[index]),
            countdown=int(self.countdown[index]),
            frames_since_packet=int(self.frames_since_packet[index]),
            occupancy=int(self.occupancy[index]),
            head_created=int(self.head_created[index]),
            segments=[list(segment) for segment in self._segments[index]],
            voice_generated=int(self.voice_generated[index]),
            voice_delivered=int(self.voice_delivered[index]),
            voice_errored=int(self.voice_errored[index]),
            voice_dropped=int(self.voice_dropped[index]),
            data_generated=int(self.data_generated[index]),
            data_delivered=int(self.data_delivered[index]),
            data_retransmissions=int(self.data_retransmissions[index]),
            data_delays=list(self._data_delays[index]),
        )

    @kernel
    def import_terminal_state(
        self, index: int, state: TerminalMigrationState
    ) -> None:
        """Install a detached terminal state into one slot (handover import).

        The slot's service class must match the incoming state (the dense
        voice-then-data layout is immutable; handover exchanges same-class
        subscribers).  Outcome counters move with the subscriber, so the
        population's running loss total is adjusted by the difference
        between the incoming and outgoing slot's losses — summed over both
        ends of a swap the global totals are exactly conserved.
        """
        index = self._check_index(index)
        if bool(self.is_voice[index]) != state.is_voice:
            raise ValueError(
                f"cannot import a "
                f"{'voice' if state.is_voice else 'data'} terminal state "
                f"into {self.describe_index(index)}: the slot's service "
                f"class is fixed by the dense voice-then-data layout"
            )
        outgoing_losses = int(self.voice_errored[index] + self.voice_dropped[index])
        self.in_talkspurt[index] = state.in_talkspurt
        self.countdown[index] = state.countdown
        self.frames_since_packet[index] = state.frames_since_packet
        self.occupancy[index] = state.occupancy
        self.head_created[index] = state.head_created
        self._segments[index] = deque(list(s) for s in state.segments)
        self.voice_generated[index] = state.voice_generated
        self.voice_delivered[index] = state.voice_delivered
        self.voice_errored[index] = state.voice_errored
        self.voice_dropped[index] = state.voice_dropped
        self.data_generated[index] = state.data_generated
        self.data_delivered[index] = state.data_delivered
        self.data_retransmissions[index] = state.data_retransmissions
        self._data_delays[index] = list(state.data_delays)
        self._voice_loss_total += (
            int(state.voice_errored + state.voice_dropped) - outgoing_losses
        )
        if state.is_voice and state.head_created >= 0:
            bound = state.head_created + self._deadline
            if bound < self._next_drop_frame:
                self._next_drop_frame = bound

    # ------------------------------------------------------------- plumbing
    def data_delays(self, index: int) -> List[int]:
        """Access delays (frames) of the terminal's delivered data packets."""
        return self._data_delays[index]

    def all_data_delays(self) -> List[int]:
        """Every recorded data access delay, in terminal-id order."""
        merged: List[int] = []
        for index in range(self.n_voice, self._n):
            merged.extend(self._data_delays[index])
        return merged

    def _duration_frames(self, duration_s: float) -> int:
        return max(1, int(round(duration_s / self._dt)))

