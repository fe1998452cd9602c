"""Frame-synchronous uplink simulation engine.

:class:`UplinkSimulationEngine` is the common simulation platform all six
protocols are evaluated on (the paper implements its protocols "on a common
simulation platform" too).  Each frame advances one 2.5 ms TDMA frame:

1. every user's composite fading channel advances;
2. every terminal generates traffic at the frame boundary and drops voice
   packets whose 20 ms deadline has expired;
3. the protocol under test runs its request and allocation phases
   (:meth:`~repro.mac.base.MACProtocol.run_frame`) and returns the frame's
   grants as :class:`~repro.mac.requests.GrantColumns`;
4. the granted transmissions go through the packet error model — using the
   *current* channel state, so a transmission mode chosen from a stale CSI
   estimate pays the corresponding error penalty;
5. the metrics collector records the frame.

A warm-up period can be discarded so that measurements reflect steady state.

Simulation core
---------------
Traffic state lives in a struct-of-arrays
:class:`~repro.traffic.population.TerminalPopulation` advanced by vectorised
kernels.  The one frame loop is :class:`~repro.sim.macro.MacroRunner`: it
steps blocks of :attr:`UplinkSimulationEngine.BLOCK_FRAMES` (64) frames,
clamped at the warm-up boundary and at the end of the run, and :meth:`step`
is a one-frame block; the block size changes no result.  Only the engine
reads ``Scenario.rng_mode``: ``"fast"`` hands each layer child streams to
batch whole-frame draws on — statistically equivalent to parity, not
bit-identical — and a layer given none keeps the parity draw order.  The
golden baselines in ``tests/golden`` pin the exact results of both modes.

Terminal ids are dense (``terminal_id == population index``): channel
snapshot reads and the population arrays are both indexed by id.  In
parity mode the channel advances every terminal at the start of each
block, for exactly its frames; in fast mode it advances a terminal only
when a grant or a CSI poll reads it (see
:class:`~repro.channel.manager.ChannelManager`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.channel.doppler import DopplerModel
from repro.channel.manager import ChannelManager
from repro.config import SimulationParameters
from repro.mac.base import MACProtocol, snapshot_snr_compatible
from repro.mac.registry import create_protocol
from repro.metrics.collector import MetricsCollector
from repro.obs import trace as _obs_trace
from repro.obs.trace import PHASES, PhaseRecorder
from repro.phy.error_model import PacketErrorModel
from repro.sim.macro import MacroRunner
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
        RNG mode).
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
        fast = scenario.rng_mode == "fast"

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
            lazy=fast,
        )

        self.population = TerminalPopulation(
            self.params,
            scenario.n_voice,
            scenario.n_data,
            self.streams["traffic"],
            event_rngs=(
                self.streams.child("traffic", "toggle"),
                self.streams.child("traffic", "burst"),
            ) if fast else None,
            beam=self.beam,
        )

        if protocol is None:
            protocol = create_protocol(
                scenario.protocol,
                self.params,
                self.streams["mac"],
                use_request_queue=scenario.use_request_queue,
                contention_rng=(
                    self.streams.child("mac", "contention") if fast else None
                ),
                csi_rng=(
                    self.streams.child("csi", "estimation") if fast else None
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
        # populated only after enable_phase_timing() starts the phase clock,
        # so the normal hot loop pays only the ``if clock:`` checks.
        self.phase_times: Optional[Dict[str, float]] = None
        #: Per-phase batch-kernel dispatch counts; populated only after
        #: ``enable_phase_timing(count_dispatches=True)``.
        self.dispatch_counts: Optional[Dict[str, int]] = None
        # The phase clock doubles as the span emitter: it is a live
        # ``repro.obs.trace.PhaseRecorder`` whenever phase timing or a
        # process-global tracer is active, and ``None`` otherwise.
        self._clock: Optional[PhaseRecorder] = None
        self._dispatch_counter = None
        self._macro = MacroRunner(self)

    #: Frames per block of the frame loop; the block size changes no result.
    BLOCK_FRAMES = 64

    # ------------------------------------------------------------------ API
    @property
    def frame_index(self) -> int:
        """Number of frames simulated so far (including warm-up)."""
        return self._frame_index

    def step(self) -> None:
        """Advance the whole system by one TDMA frame (a one-frame block)."""
        self.run_frames(1)

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
        """Start the phase clock and return its accumulator.

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
        """Stop the phase clock (and unwrap counted kernels)."""
        if self._dispatch_counter is not None:
            self._dispatch_counter.uninstall()
            self._dispatch_counter = None
        self.phase_times = None
        self.dispatch_counts = None
        self._clock = None

    def run_frames(self, n_frames: int) -> None:
        """Advance ``n_frames`` frames in blocks of :attr:`BLOCK_FRAMES`.

        The last block is clamped to the frames that remain; every block
        runs through :class:`~repro.sim.macro.MacroRunner`.
        """
        if n_frames <= 0:
            return
        # The runner reads ``self._clock`` directly (it brackets its own
        # sections), so refresh instrumentation up front — including
        # dropping a recorder whose tracer has been uninstalled.
        if self.phase_times is not None or _obs_trace.TRACER is not None:
            self._ensure_instrumented()
        elif self._clock is not None:
            self._clock = None
        block_size = self.BLOCK_FRAMES
        remaining = n_frames
        while remaining > 0:
            block = block_size if block_size < remaining else remaining
            self._macro.run_block(block, self)
            remaining -= block

    def run(self) -> SimulationResult:
        """Run warm-up plus the measured period and return the results.

        When a :mod:`repro.obs.trace` tracer is installed the whole run is
        wrapped in an ``engine.run`` root span carrying the scenario's
        identifying attributes and the engine's ``block_frames``, so every
        ``phase.*`` span in a trace file chains up to the run that produced
        it.
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
            block_frames=self.BLOCK_FRAMES,
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
        block boundary.  The macro runner keeps an incremental mirror of the
        contention candidates; this invalidates it so the next block
        resynchronises from the authoritative arrays.
        """
        self._macro.invalidate_mirrors()

    def collect_results(self) -> SimulationResult:
        """Aggregate the metrics collected since the last statistics reset."""
        return SimulationResult(
            scenario=self.scenario,
            voice=self.collector.voice_metrics(self.population),
            data=self.collector.data_metrics(self.population),
            mac=self.collector.mac_stats(),
        )

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
