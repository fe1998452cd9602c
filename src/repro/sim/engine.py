"""Frame-synchronous uplink simulation engine.

:class:`UplinkSimulationEngine` is the common simulation platform all six
protocols are evaluated on (the paper implements its protocols "on a common
simulation platform" too).  Each call to :meth:`step` advances exactly one
2.5 ms TDMA frame:

1. every user's composite fading channel advances (vectorised);
2. every terminal generates traffic at the frame boundary and drops voice
   packets whose 20 ms deadline has expired;
3. the protocol under test runs its request and allocation phases and
   returns a :class:`~repro.mac.requests.FrameOutcome`;
4. the engine executes the granted transmissions through the packet error
   model — using the *current* channel state, so a transmission mode chosen
   from a stale CSI estimate pays the corresponding error penalty;
5. the metrics collector records the frame.

A warm-up period can be discarded so that measurements reflect steady state.

Simulation core
---------------
Traffic state lives in a struct-of-arrays
:class:`~repro.traffic.population.TerminalPopulation` advanced by vectorised
kernels; the protocol's array-native ``run_frame_batch`` kernel emits the
frame's grants as :class:`~repro.mac.requests.GrantColumns`; and the grants
are transmitted through one batched
:meth:`~repro.phy.error_model.PacketErrorModel.transmit_batch` call.  With
``Scenario.macro_frames > 1`` blocks of frames run through
:class:`~repro.sim.macro.MacroRunner` instead, bit-identical to per-frame
stepping in ``rng_mode="parity"``.  ``rng_mode="fast"`` batches whole-frame
draws from per-subsystem child streams instead — statistically equivalent,
not bit-identical (see :class:`~repro.sim.scenario.Scenario`).  The golden
baselines in ``tests/golden`` pin the exact results of both modes.

Terminal ids are dense (``terminal_id == population index``): the
:class:`~repro.channel.manager.ChannelSnapshot` rows and the population
arrays are both indexed by id.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.channel.doppler import DopplerModel
from repro.channel.manager import ChannelManager, ChannelSnapshot
from repro.config import SimulationParameters
from repro.mac.base import MACProtocol, snapshot_snr_compatible
from repro.mac.registry import create_protocol
from repro.mac.requests import FrameOutcome, GrantColumns
from repro.metrics.collector import MetricsCollector
from repro.obs import trace as _obs_trace
from repro.obs.trace import PHASES, PhaseRecorder
from repro.phy.error_model import PacketErrorModel
from repro.sim.results import SimulationResult
from repro.sim.rng import RandomStreams
from repro.sim.scenario import Scenario
from repro.traffic.population import TerminalPopulation

__all__ = ["UplinkSimulationEngine"]


class UplinkSimulationEngine:
    """Drives one scenario frame by frame.

    Parameters
    ----------
    scenario:
        The run description (protocol, traffic mix, queueing, seed, speed,
        RNG mode, macro-step block size).
    params:
        The shared simulation parameters (Table 1).
    protocol:
        Optionally, a pre-built protocol instance (used by tests and
        ablations); by default the registry builds it, including its modem.
    streams:
        Optionally, pre-built random streams.  The constellation layer
        passes per-beam streams derived with beam-specific spawn keys;
        the default derives the classic ``RandomStreams(scenario.seed)``.
    beam:
        Optional beam index when this engine runs one shard of a
        multi-beam constellation; propagated to the channel manager and
        population so id errors report ``(beam, local_id)``.
    """

    def __init__(
        self,
        scenario: Scenario,
        params: Optional[SimulationParameters] = None,
        protocol: Optional[MACProtocol] = None,
        streams: Optional[RandomStreams] = None,
        beam: Optional[int] = None,
    ) -> None:
        self.scenario = scenario
        self.params = params if params is not None else SimulationParameters()
        self.streams = streams if streams is not None else RandomStreams(scenario.seed)
        self.beam = None if beam is None else int(beam)
        self.rng_mode = scenario.rng_mode
        rng_fast = self.rng_mode == "fast"

        speed = (
            scenario.mobile_speed_kmh
            if scenario.mobile_speed_kmh is not None
            else self.params.mobile_speed_kmh
        )
        self.doppler = DopplerModel(speed_kmh=speed)
        self.channels = ChannelManager(
            n_users=scenario.n_terminals,
            doppler=self.doppler,
            frame_duration_s=self.params.frame_duration_s,
            rng=self.streams["channel"],
            shadow_std_db=self.params.shadow_std_db,
            shadow_mean_db=self.params.shadow_mean_db,
            shadow_decorrelation_s=self.params.shadow_decorrelation_s,
            mean_snr_db=self.params.mean_snr_db,
            beam=self.beam,
        )

        self.population = TerminalPopulation(
            self.params,
            scenario.n_voice,
            scenario.n_data,
            self.streams["traffic"],
            rng_mode=self.rng_mode,
            toggle_rng=(
                self.streams.child("traffic", "toggle") if rng_fast else None
            ),
            burst_rng=(
                self.streams.child("traffic", "burst") if rng_fast else None
            ),
            beam=self.beam,
        )

        if protocol is None:
            protocol = create_protocol(
                scenario.protocol,
                self.params,
                self.streams["mac"],
                use_request_queue=scenario.use_request_queue,
                rng_mode=self.rng_mode,
                contention_rng=(
                    self.streams.child("mac", "contention") if rng_fast else None
                ),
                csi_rng=(
                    self.streams.child("csi", "estimation") if rng_fast else None
                ),
            )
        self.protocol = protocol
        self.error_model = PacketErrorModel(self.protocol.modem, self.streams["error"])
        self._reuse_snapshot_snr = snapshot_snr_compatible(
            self.protocol.modem, self.params
        )
        self.collector = MetricsCollector(
            self.params, self.protocol.frame_structure.info_slots
        )
        self._frame_index = 0
        # Per-phase wall-time accumulators (traffic/channel/MAC/PHY/metrics);
        # populated only after enable_phase_timing() switches the engine to
        # the instrumented step, so the normal hot loop pays nothing.
        self.phase_times: Optional[Dict[str, float]] = None
        #: Per-phase batch-kernel dispatch counts; populated only after
        #: ``enable_phase_timing(count_dispatches=True)``.
        self.dispatch_counts: Optional[Dict[str, int]] = None
        # The phase clock doubles as the span emitter: it is a live
        # ``repro.obs.trace.PhaseRecorder`` whenever phase timing or a
        # process-global tracer is active, and ``None`` otherwise.
        self._clock: Optional[PhaseRecorder] = None
        self._dispatch_counter = None
        self._macro = None
        # Channel snapshots are produced in blocks (one batched draw + one
        # linear-filter evaluation per block, bit identical to per-frame
        # advancing); the buffer holds the frames the channel has produced
        # ahead of the simulation.
        self._snapshot_buffer: List[ChannelSnapshot] = []
        self._snapshot_cursor = 0

    #: Frames advanced per batched channel evaluation.
    CHANNEL_BLOCK_FRAMES = 64

    # ------------------------------------------------------------------ API
    @property
    def frame_index(self) -> int:
        """Number of frames simulated so far (including warm-up)."""
        return self._frame_index

    def step(self) -> FrameOutcome:
        """Advance the whole system by one TDMA frame."""
        if self.phase_times is not None or _obs_trace.TRACER is not None:
            self._ensure_instrumented()
            return self._step_timed()
        if self._clock is not None:  # tracer was uninstalled mid-run
            self._clock = None
        return self._step_untimed()

    def _ensure_instrumented(self) -> None:
        """Keep :attr:`_clock` live and pointed at the current tracer.

        The recorder exists whenever phase timing *or* a process-global
        tracer is active: with only a tracer installed it accumulates into
        a private throwaway dict and its real job is emitting the
        ``phase.*`` spans.
        """
        tracer = _obs_trace.TRACER
        clock = self._clock
        if clock is None:
            times = self.phase_times
            if times is None:
                times = {phase: 0.0 for phase in PHASES}
            self._clock = PhaseRecorder(times, tracer)
        elif clock.tracer is not tracer:
            clock.tracer = tracer

    def enable_phase_timing(
        self, count_dispatches: bool = False
    ) -> Dict[str, float]:
        """Switch to the instrumented step and return the accumulator.

        Subsequent frames add their wall time to the returned dictionary
        under ``traffic`` (source advance + deadline expiry), ``channel``
        (fading evolution), ``mac`` (the protocol's request/allocation
        phases), ``phy`` (grant execution through the error model) and
        ``metrics`` (collection).  The split is what the benchmark harness
        checks and ``python -m repro profile --json`` reports, so the next
        bottleneck is machine-readable.  The same brackets feed the
        ``phase.*`` spans when a :mod:`repro.obs.trace` tracer is installed
        — one timing substrate.

        With ``count_dispatches=True`` the engine additionally tallies, in
        :attr:`dispatch_counts`, how many batch-kernel dispatches (entries
        into ``@kernel(batch=True)`` functions, counted by
        :class:`repro.obs.dispatch.KernelDispatchCounter`) each phase
        makes — the frame loop's dispatch count, measured rather than
        inferred.  Counting wraps the live kernel bindings and adds a
        little per-entry overhead; call :meth:`disable_phase_timing` when
        done to restore the unwrapped kernels.
        """
        if self.phase_times is None:
            self.phase_times = {phase: 0.0 for phase in PHASES}
            if self._clock is not None:
                self._clock.times = self.phase_times
            self._ensure_instrumented()
        if count_dispatches and self.dispatch_counts is None:
            from repro.obs.dispatch import KernelDispatchCounter

            counts = {phase: 0 for phase in self.phase_times}
            self.dispatch_counts = counts
            clock = self._clock
            self._dispatch_counter = KernelDispatchCounter(
                counts, lambda: clock.phase
            )
            self._dispatch_counter.install()
        return self.phase_times

    def disable_phase_timing(self) -> None:
        """Remove the instrumented step (and unwrap counted kernels)."""
        if self._dispatch_counter is not None:
            self._dispatch_counter.uninstall()
            self._dispatch_counter = None
        self.phase_times = None
        self.dispatch_counts = None
        self._clock = None

    def _step_timed(self) -> FrameOutcome:
        """Instrumented twin of :meth:`_step_untimed` (kept in sync with it).

        The clock brackets the same five sections, labelling them for the
        optional dispatch counter.
        """
        clock = self._clock
        frame = self._frame_index
        population = self.population

        clock.start("channel")
        snapshot = self._next_snapshot()
        clock.stop()

        clock.start("traffic")
        voice_losses_before = population.voice_loss_total
        population.advance_frame(frame)
        population.drop_expired(frame)
        clock.stop()

        clock.start("mac")
        outcome = self.protocol.run_frame_batch(frame, population, snapshot)
        clock.stop()

        clock.start("phy")
        data_delivered = self._execute_grant_columns(outcome.grants, snapshot, frame)
        clock.stop()

        clock.start("metrics")
        voice_losses = population.voice_loss_total - voice_losses_before
        self.collector.record_frame(outcome, data_delivered, voice_losses)
        clock.stop()
        self._frame_index += 1
        return outcome

    def run_frames(self, n_frames: int) -> None:
        """Advance ``n_frames`` frames, macro-stepped when configured.

        With ``Scenario.macro_frames > 1`` frames execute in macro blocks
        through :class:`~repro.sim.macro.MacroRunner` — bit-identical to
        per-frame stepping in parity RNG mode.  Otherwise this is a plain
        :meth:`step` loop.
        """
        if n_frames <= 0:
            return
        # The macro runner reads ``self._clock`` directly (it brackets its
        # own block-level sections), so refresh instrumentation up front —
        # including dropping a recorder whose tracer has been uninstalled.
        if self.phase_times is not None or _obs_trace.TRACER is not None:
            self._ensure_instrumented()
        elif self._clock is not None:
            self._clock = None
        runner = self._macro_runner()
        if runner is None:
            for _ in range(n_frames):
                self.step()
            return
        block_size = self.scenario.macro_frames
        remaining = n_frames
        while remaining > 0:
            block = block_size if block_size < remaining else remaining
            runner.run_block(block)
            remaining -= block

    def _macro_runner(self):
        """The lazily built macro runner, or ``None`` when not applicable."""
        if self.scenario.macro_frames <= 1:
            return None
        if self._macro is None:
            from repro.sim.macro import MacroRunner

            self._macro = MacroRunner(self)
        return self._macro

    def run(self) -> SimulationResult:
        """Run warm-up plus the measured period and return the results.

        When a :mod:`repro.obs.trace` tracer is installed the whole run is
        wrapped in an ``engine.run`` root span carrying the scenario's
        identifying attributes, so every ``phase.*`` span in a trace file
        chains up to the run that produced it.
        """
        tracer = _obs_trace.TRACER
        if tracer is None:
            return self._run_measured()
        with tracer.span(
            "engine.run",
            protocol=self.scenario.protocol,
            n_voice=self.scenario.n_voice,
            n_data=self.scenario.n_data,
            seed=self.scenario.seed,
            macro_frames=self.scenario.macro_frames,
        ):
            return self._run_measured()

    def _run_measured(self) -> SimulationResult:
        warmup = self.scenario.warmup_frames(self.params)
        measured = self.scenario.measured_frames(self.params)
        self.run_frames(warmup)
        self._reset_statistics()
        self.run_frames(measured)
        return self.collect_results()

    def begin_measurement(self) -> None:
        """Start the measured window now (public warm-up boundary hook).

        Equivalent to the reset :meth:`run` performs between warm-up and
        the measured period; exposed so external drivers (the constellation
        runner steps many engines through their warm-up in lockstep) can
        reproduce :meth:`run`'s exact sequencing.
        """
        self._reset_statistics()

    def notify_external_mutation(self) -> None:
        """Block-boundary hook: population state changed outside the engine.

        A constellation handover swaps terminal state between shards at a
        macro-block boundary.  The macro runner keeps incremental mirrors of
        the MAC-visible state; this invalidates them so the next block
        resynchronises from the authoritative arrays.
        """
        if self._macro is not None:
            self._macro.invalidate_mirrors()

    def collect_results(self) -> SimulationResult:
        """Aggregate the metrics collected since the last statistics reset."""
        return SimulationResult(
            scenario=self.scenario,
            voice=self.collector.voice_metrics(self.population),
            data=self.collector.data_metrics(self.population),
            mac=self.collector.mac_stats(),
        )

    # ------------------------------------------------------------ frame loop
    def _next_snapshot(self) -> ChannelSnapshot:
        if self._snapshot_cursor >= len(self._snapshot_buffer):
            self._snapshot_buffer = self.channels.advance_block(
                self.CHANNEL_BLOCK_FRAMES
            )
            self._snapshot_cursor = 0
        snapshot = self._snapshot_buffer[self._snapshot_cursor]
        self._snapshot_cursor += 1
        return snapshot

    def _step_untimed(self) -> FrameOutcome:
        frame = self._frame_index
        population = self.population
        snapshot = self._next_snapshot()

        voice_losses_before = population.voice_loss_total
        population.advance_frame(frame)
        population.drop_expired(frame)

        outcome = self.protocol.run_frame_batch(frame, population, snapshot)
        data_delivered = self._execute_grant_columns(outcome.grants, snapshot, frame)

        voice_losses = population.voice_loss_total - voice_losses_before
        self.collector.record_frame(outcome, data_delivered, voice_losses)
        self._frame_index += 1
        return outcome

    def _execute_grant_columns(
        self, grants: Optional[GrantColumns], snapshot: ChannelSnapshot, frame: int
    ) -> int:
        """Transmit a frame's grant columns; return delivered data packets.

        The common case — every granted terminal distinct, as emitted by all
        protocols except DRMA's multi-win frames — is one fancy-indexed
        channel gather, one :meth:`transmit_batch` call and one
        :meth:`apply_grants` pass.  Duplicate-terminal frames flush the
        batch before each repeat instead (see
        :meth:`_execute_grant_columns_segmented`).  An outcome without grant
        columns granted nothing.
        """
        if grants is None or not grants.terminal_ids:
            return 0
        ids = grants.terminal_ids
        if len(set(ids)) != len(ids):
            return self._execute_grant_columns_segmented(grants, snapshot, frame)
        population = self.population
        ids_arr = np.asarray(ids, dtype=np.int64)
        occupancy = population.occupancy[ids_arr]
        caps = np.asarray(grants.packet_capacities, dtype=np.int64)
        live = occupancy > 0
        if not live.all():
            ids_arr = ids_arr[live]
            if not ids_arr.shape[0]:
                return 0
            occupancy = occupancy[live]
            caps = caps[live]
            throughputs = [
                t for t, keep in zip(grants.throughputs, live) if keep
            ]
        else:
            throughputs = grants.throughputs
        counts = np.minimum(caps, occupancy)
        reuse_snr = self._reuse_snapshot_snr
        channel = (snapshot.snr_db if reuse_snr else snapshot.amplitude)[ids_arr]
        if any(t is not None for t in throughputs):
            throughput_arr = np.asarray(
                [np.nan if t is None else t for t in throughputs], dtype=float
            )
        else:
            throughput_arr = None
        delivered = self.error_model.transmit_batch(
            None if reuse_snr else channel,
            counts,
            throughput_arr,
            snr_db=channel if reuse_snr else None,
        )
        return population.apply_grants(
            ids_arr.tolist(), caps.tolist(), delivered, frame
        )

    def _execute_grant_columns_segmented(
        self, grants, snapshot: ChannelSnapshot, frame: int
    ) -> int:
        """Duplicate-terminal grant columns: flush before each repeat.

        A terminal's later grant in the same frame must see the buffer state
        its earlier grants left, so the pending batch is transmitted and
        applied before a terminal appears in it a second time.  The error
        stream is consumed in grant order either way.
        """
        population = self.population
        occupancy = population.occupancy
        amplitude = snapshot.amplitude
        snr_db = snapshot.snr_db
        reuse_snr = self._reuse_snapshot_snr
        n = len(population)

        data_delivered = 0
        batch_ids: List[int] = []
        batch_caps: List[int] = []
        batch_n: List[int] = []
        batch_chan: List[float] = []
        batch_thr: List[float] = []
        any_throughput = False
        batched = set()

        def flush() -> None:
            nonlocal data_delivered, any_throughput
            if not batch_ids:
                return
            channel = np.asarray(batch_chan, dtype=float)
            delivered = self.error_model.transmit_batch(
                None if reuse_snr else channel,
                np.asarray(batch_n, dtype=np.int64),
                np.asarray(batch_thr, dtype=float) if any_throughput else None,
                snr_db=channel if reuse_snr else None,
            )
            data_delivered += population.apply_grants(
                batch_ids, batch_caps, delivered, frame
            )
            batch_ids.clear()
            batch_caps.clear()
            batch_n.clear()
            batch_chan.clear()
            batch_thr.clear()
            any_throughput = False
            batched.clear()

        for tid, capacity, throughput in zip(
            grants.terminal_ids, grants.packet_capacities, grants.throughputs
        ):
            if tid in batched:
                flush()
            if tid >= n or occupancy[tid] == 0:
                continue
            batched.add(tid)
            batch_ids.append(tid)
            batch_caps.append(capacity)
            batch_n.append(min(capacity, int(occupancy[tid])))
            batch_chan.append(snr_db[tid] if reuse_snr else amplitude[tid])
            if throughput is None:
                batch_thr.append(np.nan)
            else:
                batch_thr.append(throughput)
                any_throughput = True
        flush()
        return data_delivered

    # ------------------------------------------------------------ internals
    def _reset_statistics(self) -> None:
        # Outcomes must be attributed to the same measurement window as the
        # generation events, or conservation (delivered + errored + dropped
        # <= generated) breaks whenever the warm-up leaves a backlog: deep
        # data-terminal buffers carry dozens of packets across the reset,
        # and their later deliveries would be counted against a generated
        # total that never included them.  begin_measurement() therefore
        # excludes packets created before the window from every outcome
        # counter (generated stays the pure in-window traffic, which also
        # keeps common-random-number traffic realisations comparable across
        # protocols).
        self.population.begin_measurement(self._frame_index)
        self.collector.reset()
