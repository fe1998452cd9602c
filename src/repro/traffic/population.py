"""Struct-of-arrays terminal population: the traffic state of a whole cell.

:class:`TerminalPopulation` keeps every terminal's traffic state in NumPy
arrays — buffer occupancy, head-of-line created frames, talkspurt and burst
countdowns, per-kind outcome counters — and advances it a block of frames at a
time: :meth:`plan_frames` pre-draws the block's source events and
:meth:`apply_planned_frame` replays each frame's.  The MAC protocols read the
arrays directly.

A frame's traffic costs its *events* (talkspurt toggles, burst arrivals,
voice packets, deadline expiries, grants), not a Python loop over the
talkers or an object per packet:

* talking voice terminals sit in ``frames_per_voice_period`` phase buckets
  (a talker generates exactly at the frames congruent to its talkspurt's
  first frame), so a frame's voice packets are one bucket, and an event
  frame touches only the sources that fire in it;
* a voice terminal's FIFO is one ``uint64`` bit window relative to its
  head-of-line frame (see :mod:`repro.accel.kernels`): a voice packet
  expires ``voice_deadline_frames`` frames after its creation, so every
  buffered one fits.  Generation sets one bit, a voice grant clears its
  oldest bits, and a deadline drop masks the expired bits and counts them
  with a popcount.  Data terminals keep their FIFO as a deque of
  ``[created_frame, count]`` burst segments;
* below :data:`ARRAY_EVENTS` events a frame (voice packets generated, or
  terminals whose voice packets expire) the window updates run on Python
  ints; from there on, as one array operation per array
  (:func:`~repro.accel.window_arrivals`, :func:`~repro.accel.window_drops`).

RNG draw order
--------------
Given no ``event_rngs`` (parity RNG mode) the population draws from the
run's ``traffic`` stream in a fixed scalar order:

* construction draws one exponential per voice terminal (initial silence)
  followed by one per data terminal (initial inter-arrival);
* frame by frame, :meth:`plan_frames` draws scalar exponentials only for
  the terminals whose state toggles in that frame, in ascending
  terminal-id order (voice ids always precede data ids).

So the realisation does not depend on how the frames are cut into blocks;
:meth:`advance_frame` is the one-frame block.  The golden baselines in
``tests/golden`` pin the resulting realisations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Set, Tuple

import numpy as np

from repro.accel import (
    WINDOW_BITS,
    deadline_scan,
    next_expiry_bound,
    voice_flush_resolve,
    window_arrivals,
    window_drops,
)
from repro.config import SimulationParameters
from repro.lint.contracts import kernel

__all__ = [
    "ARRAY_EVENTS",
    "TerminalMigrationState",
    "TerminalPopulation",
    "TrafficBlockPlan",
]

#: Sentinel for "no buffered voice packet can expire" (see ``drop_expired``).
_NO_DROP = 1 << 62

#: ``drop_expired_events``' columns when nothing expired.
_NO_DROPS = ((), (), ())

#: Events in one frame (voice packets generated, or terminals whose voice
#: packets expire) from which the window and counter updates run as array
#: operations over the event ids.  Below it, per-event updates on Python
#: ints are cheaper: on a 2-vCPU x86_64 box a frame that generates and
#: drops k packets costs 35-70 us either way at k = 12-16, and at k = 180
#: the arrays take about 75 us against 380-570 us.
ARRAY_EVENTS = 12


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

    ``segments`` lists the buffered packets oldest first as ``[created_frame,
    count]``.  A data terminal's are its burst segments.  A voice
    terminal's are derived from its buffer window, one ``[frame, 1]`` per
    packet, and import rebuilds the window from them, so they must hold at
    most one packet a frame, in creation order, within the window's
    :data:`~repro.accel.WINDOW_BITS` frames.
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
    """Pre-drawn traffic evolution for a block of frames.

    :meth:`TerminalPopulation.plan_frames` consumes the traffic stream for a
    whole block up front — in the frame-by-frame draw order, so the
    realisation does not depend on the block size — and records each
    frame's *events* here:

    * ``toggles[offset]`` — ``(index, now_talking)`` talkspurt transitions;
    * ``bursts[offset]`` — ``(index, size)`` data-burst arrivals;
    * ``voice_gen[offset]`` — the indices generating a voice packet, in no
      particular order; frames of one phase bucket between two toggles
      share one list, so consumers must not modify it.

    Entries are ``None`` when a frame has no event of that kind (the common
    case), so replaying a frame is a few list checks.
    Buffer state (occupancy, FIFOs, counters) is only touched when
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
    event_rngs:
        Fast RNG mode's ``(toggle, burst)`` child streams for the source
        events' draws, batched when more than two sources fire in a frame;
        ``None`` keeps the parity draw order on ``rng``.  Construction
        draws always come from ``rng``.
    """

    def __init__(
        self,
        params: SimulationParameters,
        n_voice: int,
        n_data: int,
        rng: np.random.Generator,
        event_rngs: Optional[Tuple[np.random.Generator, np.random.Generator]] = None,
        beam: Optional[int] = None,
    ) -> None:
        if n_voice < 0 or n_data < 0:
            raise ValueError("population sizes must be non-negative")
        self.params = params
        self._batch_events = event_rngs is not None
        self._toggle_rng, self._burst_rng = (
            event_rngs if event_rngs is not None else (rng, rng)
        )
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
        if self._deadline >= WINDOW_BITS:
            # Before a frame's drops, a buffer may hold packets from its
            # head, deadline frames back, through the frame itself.
            raise ValueError(
                f"voice_deadline_frames {self._deadline} does not fit the "
                f"{WINDOW_BITS}-frame voice buffer window: a voice packet "
                f"must expire within {WINDOW_BITS - 1} frames"
            )

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
        # terminal.  A voice terminal's FIFO is its bit window (bit k: a
        # packet created at head_created + k waits), a data terminal's a
        # deque of [created_frame, count] burst segments at row
        # ``index - n_voice``, so the per-frame cost is O(events), not
        # O(packets).
        self.occupancy = np.zeros(n, dtype=np.int64)
        self.head_created = np.full(n, -1, dtype=np.int64)
        self._window = np.zeros(self.n_voice, dtype=np.uint64)
        self._bursts: List[Deque[List[int]]] = [
            deque() for _ in range(self.n_data)
        ]

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
        # every data terminal draws its first burst inter-arrival.  One
        # batched draw per class yields the scalar draws' values in order,
        # and ``rint`` rounds half to even like :meth:`_duration_frames`.
        first_events = np.concatenate([
            rng.exponential(params.mean_silence_s, size=self.n_voice),
            rng.exponential(params.mean_data_interarrival_s, size=self.n_data),
        ])
        self.countdown[:] = np.maximum(1, np.rint(first_events / self._dt))

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
    def advance_frame(self, frame_index: int) -> None:
        """Generate one frame's traffic: a one-frame :meth:`plan_frames`
        block, replayed by :meth:`apply_planned_frame`."""
        self.apply_planned_frame(self.plan_frames(frame_index, 1), frame_index)

    def plan_frames(self, start_frame: int, n_frames: int) -> TrafficBlockPlan:
        """Pre-draw a whole block's traffic evolution.

        Consumes the traffic stream for ``n_frames`` frames in the order of
        the module docstring (event draws in ascending terminal-id order,
        frame by frame), so the realisation does not depend on the block
        size.  The talkspurt/burst counters
        (``countdown``, ``frames_since_packet``) are advanced to their
        end-of-block state here — nothing reads them mid-block — while
        everything the MAC layer observes per frame (``in_talkspurt``,
        buffers, outcome counters) is only mutated when
        :meth:`apply_planned_frame` replays each frame's recorded events.

        Talking voice terminals are kept in ``frames_per_voice_period``
        phase buckets: a talker generates at frame ``F`` exactly when ``F``
        is congruent to its talkspurt's first frame modulo the period, so
        frame ``F``'s generations are bucket ``F % period``.  A toggle moves
        one terminal into or out of a bucket, an event frame touches only
        the sources that fire in it, and an event-free stretch (the next
        source event is ``countdown.min()`` frames away) hands each of its
        frames its phase's bucket.  ``frames_since_packet`` (frames since
        the talkspurt began) is written when a talkspurt ends and, for the
        terminals still talking, at the block's end.
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
        toggle_rng = self._toggle_rng
        burst_rng = self._burst_rng
        countdown = self.countdown
        since = self.frames_since_packet
        # The plan's talkspurt state, each talker's first talkspurt frame,
        # and the talkers by phase.
        talking = self.in_talkspurt[:nv].copy()
        talk_start = start_frame - since[:nv]
        buckets: List[Set[int]] = [set() for _ in range(period)]
        for i, first in zip(
            np.nonzero(talking)[0].tolist(), talk_start[talking].tolist()
        ):
            buckets[first % period].add(i)
        voice_gen = plan.voice_gen
        toggles = plan.toggles
        bursts = plan.bursts

        f = 0
        while f < n_frames:
            gap = int(countdown.min())
            if gap > 0:
                take = gap if gap < n_frames - f else n_frames - f
                for o in range(min(take, period)):
                    bucket = buckets[(start_frame + f + o) % period]
                    if bucket:
                        ids = list(bucket)
                        for g in range(f + o, f + take, period):
                            voice_gen[g] = ids
                countdown -= take
                f += take
                continue

            # Event frame: fire the due sources (in the parity draw order),
            # move the toggled talkers between buckets, then generate.
            frame = start_frame + f
            fired = np.nonzero(countdown == 0)[0]
            countdown -= 1
            frame_toggles: List = []
            frame_bursts: List = []
            if self._batch_events and fired.shape[0] > 2:
                self._plan_events_batched(
                    fired, talking, frame_toggles, frame_bursts
                )
            else:
                for i in fired.tolist():
                    if i < nv:
                        now_talking = not talking[i]
                        frame_toggles.append((i, now_talking))
                        countdown[i] = self._duration_frames(
                            toggle_rng.exponential(
                                params.mean_talkspurt_s
                                if now_talking
                                else params.mean_silence_s
                            )
                        )
                    else:
                        size = max(
                            1,
                            int(round(
                                burst_rng.exponential(params.mean_data_burst_packets)
                            )),
                        )
                        countdown[i] = self._duration_frames(
                            burst_rng.exponential(params.mean_data_interarrival_s)
                        )
                        frame_bursts.append((i, size))
            if frame_toggles:
                toggles[f] = frame_toggles
                for i, now_talking in frame_toggles:
                    talking[i] = now_talking
                    if now_talking:
                        talk_start[i] = frame
                        buckets[frame % period].add(i)
                    else:
                        first = int(talk_start[i])
                        since[i] = frame - first
                        buckets[first % period].discard(i)
            if frame_bursts:
                bursts[f] = frame_bursts
            bucket = buckets[frame % period]
            if bucket:
                voice_gen[f] = list(bucket)
            f += 1

        since[:nv][talking] = start_frame + n_frames - talk_start[talking]
        return plan

    def _plan_events_batched(
        self, fired: np.ndarray, talking: np.ndarray, frame_toggles, frame_bursts
    ) -> None:
        """Fire more than two due sources in one frame on batched draws.

        Fast RNG mode only: the frame's draws collapse into one call per
        draw site — talkspurt and silence durations from the ``toggle``
        child stream, burst sizes and inter-arrivals from the ``burst``
        child stream — so the RNG cost does not scale with the number of
        firing terminals.  One or two firing terminals (the common case:
        toggles and bursts are second-scale events against 2.5 ms frames)
        take :meth:`plan_frames`'s scalar loop on the same child streams.
        ``talking`` is the plan's talkspurt state before the frame.
        """
        params = self.params
        dt = self._dt
        countdown = self.countdown
        nv = self.n_voice

        voice_idx = fired[fired < nv]
        data_idx = fired[fired >= nv]

        if voice_idx.shape[0]:
            was_talking = talking[voice_idx]
            means = np.where(
                was_talking, params.mean_silence_s, params.mean_talkspurt_s
            )
            durations = (
                self._toggle_rng.standard_exponential(voice_idx.shape[0]) * means
            )
            countdown[voice_idx] = np.maximum(
                1, np.round(durations / dt).astype(np.int64)
            )
            frame_toggles.extend(
                zip(voice_idx.tolist(), (~was_talking).tolist())
            )

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
        buffer FIFOs, outcome counters) in this frame's state.
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
            window = self._window
            if len(gen) < ARRAY_EVENTS:
                fresh = False
                for i in gen:
                    head = int(head_created[i])
                    if head < 0:
                        head_created[i] = frame_index
                        window[i] = 1
                        fresh = True
                    else:
                        shift = frame_index - head
                        if shift >= WINDOW_BITS:
                            raise ValueError(
                                f"{self.describe_index(i)}'s voice buffer "
                                f"head lies {shift} frames before frame "
                                f"{frame_index}, beyond its {WINDOW_BITS}-"
                                f"frame window: expired packets must be "
                                f"dropped every frame"
                            )
                        window[i] = int(window[i]) | 1 << shift
                    generated[i] += 1
                    occupancy[i] += 1
            else:
                fresh = window_arrivals(
                    np.array(gen, dtype=np.int64), frame_index,
                    window, occupancy, generated, head_created,
                )
            expiry = frame_index + self._deadline
            if fresh and expiry < self._next_drop_frame:
                self._next_drop_frame = expiry
        bursts = plan.bursts[offset]
        if bursts is not None:
            occupancy = self.occupancy
            generated = self.data_generated
            head_created = self.head_created
            fifos = self._bursts
            nv = self.n_voice
            for i, size in bursts:
                generated[i] += size
                occupancy[i] += size
                fifos[i - nv].append([frame_index, size])
                if head_created[i] < 0:
                    head_created[i] = frame_index

    @kernel(batch=False)
    def transmit_voice_pop(self, index: int, max_packets: int):
        """Pop a voice grant's packets now, deferring the outcome counters.

        The deterministic half of :meth:`transmit` for a voice terminal:
        removes ``min(max_packets, occupancy)`` packets, the oldest bits of
        its window, from the FIFO (a transmitted voice packet leaves the
        buffer whether or not it is received) and returns
        ``(n_transmitted, n_pre_window)`` so :meth:`resolve_voice_outcomes`
        can attribute delivered/errored counts once the batched PHY draw
        resolves — the macro engine's mechanism for fusing many frames'
        voice transmissions into one draw.
        """
        occupancy = int(self.occupancy[index])
        n_transmitted = max_packets if max_packets < occupancy else occupancy
        if n_transmitted <= 0:
            return 0, 0
        self.occupancy[index] = occupancy - n_transmitted
        head_created = self.head_created
        head = int(head_created[index])
        # Bits below ``before`` hold packets created before the window.
        before = self._measure_from - head
        if n_transmitted == occupancy and before <= 0:
            head_created[index] = -1
            return n_transmitted, 0
        window = self._window
        bits = int(window[index])
        rest = bits
        for _ in range(n_transmitted):
            rest &= rest - 1
        pre = 0
        if before > 0:
            sent = bits ^ rest
            pre = (sent & ((1 << min(before, WINDOW_BITS)) - 1)).bit_count()
        if rest:
            low = (rest & -rest).bit_length() - 1
            head_created[index] = head + low
            window[index] = rest >> low
        else:
            head_created[index] = -1
        return n_transmitted, pre

    @kernel
    def resolve_voice_outcomes(
        self,
        terminal_ids: np.ndarray,
        counts: np.ndarray,
        pre_window: np.ndarray,
        delivered: np.ndarray,
    ):
        """Resolve a flush's deferred voice rows into the outcome counters.

        One :func:`~repro.accel.voice_flush_resolve` pass resolves every
        deferred voice row's delivered/errored split and scatter-accumulates
        the per-terminal counters — count-identical to the voice branch of
        :meth:`transmit` on the same popped packets, row by row, in any
        order (every update is an independent add).  Returns
        ``(rows, errors)``: the positions within the batch that errored,
        and the per-row errored counts, so the caller can attribute losses
        to its per-frame records.
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
        return sum(self.drop_expired_events(current_frame)[1])

    @kernel
    def drop_expired_events(self, current_frame: int):
        """Deadline expiry with per-terminal outcomes (the frame loop's form).

        Returns parallel ``(ids, lost, counted)`` columns of ints, empty
        when nothing expired: the terminals whose head-of-line packets
        expired this frame in ascending order, how many packets each lost,
        and how many of those fell inside the current measurement window
        (the ones charged to ``voice_dropped``).  State mutations are
        identical to :meth:`drop_expired`.
        """
        nv = self.n_voice
        if not nv or current_frame < self._next_drop_frame:
            return _NO_DROPS
        limit = current_frame - self._deadline
        head_created = self.head_created
        # head_created is -1 exactly when the buffer is empty, so a single
        # range test finds the expired heads.
        expired_ids = deadline_scan(head_created[:nv], limit)
        drops = _NO_DROPS
        if expired_ids.shape[0]:
            window = self._window
            occupancy = self.occupancy
            voice_dropped = self.voice_dropped
            window_start = self._measure_from
            if expired_ids.shape[0] < ARRAY_EVENTS:
                ids = expired_ids.tolist()
                lost: List[int] = []
                counted: List[int] = []
                total = 0
                for i in ids:
                    # Bits 0 .. limit - head expire; the lowest bit left
                    # is the new head.
                    head = int(head_created[i])
                    bits = int(window[i])
                    span = limit + 1 - head
                    rest = bits >> span
                    expired = bits ^ (rest << span)
                    n_lost = expired.bit_count()
                    n_counted = (
                        (expired >> (window_start - head)).bit_count()
                        if head < window_start
                        else n_lost
                    )
                    if rest:
                        low = (rest & -rest).bit_length() - 1
                        head_created[i] = limit + 1 + low
                        window[i] = rest >> low
                    else:
                        head_created[i] = -1
                    occupancy[i] -= n_lost
                    if n_counted:
                        voice_dropped[i] += n_counted
                        total += n_counted
                    lost.append(n_lost)
                    counted.append(n_counted)
                drops = (ids, lost, counted)
            else:
                lost_column, counted_column = window_drops(
                    expired_ids, limit, window_start,
                    window, occupancy, head_created, voice_dropped,
                )
                total = int(counted_column.sum())
                drops = (
                    expired_ids.tolist(),
                    lost_column.tolist(),
                    counted_column.tolist(),
                )
            self._voice_loss_total += total
        # Re-derive the next-expiry lower bound.  Transmissions only move
        # heads later (FIFO), so a bound computed here can never skip a
        # real expiry; fresh heads tighten it at their append sites.
        self._next_drop_frame = next_expiry_bound(
            head_created[:nv], self._deadline, _NO_DROP
        )
        return drops

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
        if self.is_voice[index]:
            _, pre_window = self.transmit_voice_pop(index, n_transmitted)
            self.resolve_voice_outcomes(
                np.array([index]), np.array([n_transmitted]),
                np.array([pre_window]), np.array([n_delivered]),
            )
            return n_transmitted

        segments = self._bursts[index - self.n_voice]
        window = self._measure_from
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

    def apply_grants(
        self, indices, capacities, delivered_counts, current_frame: int
    ) -> int:
        """Apply executed grants through :meth:`transmit`, in order;
        return the delivered data packets."""
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
        head = int(self.head_created[index])
        if index >= self.n_voice:
            segments = [list(s) for s in self._bursts[index - self.n_voice]]
        elif head < 0:
            segments = []
        else:
            bits = int(self._window[index])
            segments = [
                [head + k, 1] for k in range(bits.bit_length()) if bits >> k & 1
            ]
        return TerminalMigrationState(
            is_voice=bool(self.is_voice[index]),
            in_talkspurt=bool(self.in_talkspurt[index]),
            countdown=int(self.countdown[index]),
            frames_since_packet=int(self.frames_since_packet[index]),
            occupancy=int(self.occupancy[index]),
            head_created=head,
            segments=segments,
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
        if state.is_voice:
            self._window[index] = self._voice_window(index, state)
        else:
            self._bursts[index - self.n_voice] = deque(
                list(s) for s in state.segments
            )
        outgoing_losses = int(self.voice_errored[index] + self.voice_dropped[index])
        self.in_talkspurt[index] = state.in_talkspurt
        self.countdown[index] = state.countdown
        self.frames_since_packet[index] = state.frames_since_packet
        self.occupancy[index] = state.occupancy
        self.head_created[index] = state.head_created
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

    def _voice_window(self, index: int, state: TerminalMigrationState) -> int:
        """The buffer window of an imported voice state's segments.

        Raises ``ValueError`` for segments the window cannot hold: more
        than one packet a frame, out of creation order, wider than
        :data:`~repro.accel.WINDOW_BITS` frames, or disagreeing with the
        state's occupancy and head.
        """
        segments = state.segments
        head = segments[0][0] if segments else -1
        where = f"cannot import the voice state into {self.describe_index(index)}"
        bits = 0
        previous = -1
        for created, count in segments:
            if count != 1 or created <= previous:
                raise ValueError(
                    f"{where}: a voice buffer holds one packet a frame, in "
                    f"creation order from frame 0 on, not the segments "
                    f"{segments}"
                )
            if created - head >= WINDOW_BITS:
                raise ValueError(
                    f"{where}: its packets span frames {head}..{created}, "
                    f"wider than the {WINDOW_BITS}-frame voice buffer window"
                )
            bits |= 1 << (created - head)
            previous = created
        if state.occupancy != len(segments) or state.head_created != head:
            raise ValueError(
                f"{where}: occupancy {state.occupancy} and head "
                f"{state.head_created} disagree with the segments {segments}"
            )
        return bits

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

