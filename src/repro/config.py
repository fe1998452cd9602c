"""Simulation parameters (the paper's Table 1) and protocol constants.

The paper evaluates all six protocols on a common platform whose parameters
are summarised in its Table 1.  The table itself is not legible in the
archived scan, but every load-bearing value is also stated in the prose and
is captured here:

* transmission bandwidth of 320 kHz, speech source of 8 kbit/s (Section 5);
* TDMA frame duration of 2.5 ms (Section 4.1);
* voice packet period of 20 ms and a 20 ms voice-packet deadline
  (Sections 3.4 and 5.1, footnote 4);
* exponential talkspurt / silence durations with means 1.0 s and 1.35 s
  (Section 2, after Gruber & Strawczynski);
* exponential data-burst inter-arrival with mean 1 s and exponential burst
  size with mean 100 packets (Section 2);
* permission probabilities ``p_v`` and ``p_d`` gating request transmission
  (Section 2; the numerical values are chosen here and documented as
  reproduction defaults);
* a 6-mode adaptive PHY with normalised throughput from 1/2 to 5
  (Section 4.2), operated in constant-BER mode;
* mean / maximum mobile speeds of 50 / 80 km/h, Doppler spread ~100 Hz,
  short-term coherence time ~10 ms, shadowing time scale ~1 s (Section 4.2);
* an acknowledgement time-out of five minislots (Section 4.1);
* RMAV's ``P_max = 10`` slots per data grant and DRMA's conversion of an idle
  information slot into ``N_x`` request minislots (Section 3).

Everything configurable in the reproduction funnels through
:class:`SimulationParameters` so that experiments, tests and benchmarks share
a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

__all__ = ["PriorityWeights", "SimulationParameters"]


@dataclass(frozen=True)
class PriorityWeights:
    """Weights of the CHARISMA priority metric (paper equation (2)).

    The metric of request *i* is::

        phi_i = alpha * f(CSI_i) + beta_v^{T_d}          - V    (voice)
        phi_i = alpha * f(CSI_i) + beta_d^{T_w} + delta        (data)

    where ``f(CSI)`` is the normalised throughput the adaptive PHY would
    deliver at the request's estimated CSI, ``T_d`` is the number of frames
    remaining before the voice deadline, ``T_w`` the number of frames a data
    request has waited, and the exponentially-shaped second term grows as the
    deadline approaches / the wait lengthens.  Higher values mean higher
    priority.

    Attributes
    ----------
    alpha_voice, alpha_data:
        Weight of the CSI (throughput) term for voice / data requests.
    beta_voice, beta_data:
        Forgetting factors in (0, 1); the urgency term is ``beta**frames``
        subtracted from 1 so that it increases as frames elapse.
    urgency_weight_voice, urgency_weight_data:
        Scale applied to the urgency term.
    voice_offset:
        Constant priority offset ``V`` added to voice requests so that voice
        outranks data at equal channel quality (the paper subtracts ``-V``
        from data; adding to voice is equivalent).
    """

    alpha_voice: float = 1.0
    alpha_data: float = 1.0
    beta_voice: float = 0.5
    beta_data: float = 0.85
    urgency_weight_voice: float = 12.0
    urgency_weight_data: float = 2.0
    voice_offset: float = 10.0

    def __post_init__(self) -> None:
        for name in ("alpha_voice", "alpha_data", "urgency_weight_voice",
                     "urgency_weight_data"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("beta_voice", "beta_data"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")


@dataclass(frozen=True)
class SimulationParameters:
    """All tunable parameters of the common simulation platform (Table 1)."""

    # --- air interface -----------------------------------------------------
    bandwidth_hz: float = 320_000.0
    """Total uplink transmission bandwidth (Hz)."""

    frame_duration_s: float = 0.0025
    """TDMA frame duration (seconds); the paper uses 2.5 ms."""

    n_request_slots: int = 10
    """Number of request minislots ``N_r`` per uplink frame.

    Kept slightly larger than the number of information slots, as the paper
    prescribes, to provide enough contention opportunities.
    """

    n_info_slots: int = 8
    """Number of information slots ``N_i`` per uplink frame.

    All six protocols are given the same information-slot budget so that the
    comparison isolates the access-control policies; the request-capacity
    mechanisms (static minislots, auction slots, converted idle slots, the
    single competitive slot) are what differ between them.
    """

    n_pilot_slots: int = 3
    """Number of pilot-symbol slots ``N_b`` (CSI polling capacity) per frame."""

    ack_timeout_minislots: int = 5
    """Time-out, in minislots, before an unacknowledged request is retried."""

    # --- voice traffic ------------------------------------------------------
    voice_bit_rate_bps: float = 8_000.0
    """Speech source rate (bit/s), as in GSM/CDMA systems."""

    voice_packet_period_s: float = 0.020
    """One voice packet is produced every 20 ms during a talkspurt."""

    voice_deadline_s: float = 0.020
    """A voice packet is dropped if not transmitted within 20 ms."""

    mean_talkspurt_s: float = 1.0
    """Mean of the exponentially distributed talkspurt duration."""

    mean_silence_s: float = 1.35
    """Mean of the exponentially distributed silence duration."""

    voice_permission_probability: float = 0.3
    """Permission probability ``p_v`` for transmitting a voice request."""

    voice_loss_threshold: float = 0.01
    """QoS limit on voice packet loss (1 %)."""

    # --- data traffic -------------------------------------------------------
    mean_data_interarrival_s: float = 1.0
    """Mean of the exponential inter-arrival time of data bursts."""

    mean_data_burst_packets: float = 100.0
    """Mean of the exponentially distributed burst size (packets)."""

    data_permission_probability: float = 0.03
    """Permission probability ``p_d`` for transmitting a data request.

    Deliberately small: a data terminal keeps contending for every burst
    instalment, so with tens of active data users a larger value would drive
    the slotted contention into collision collapse (the thrashing the paper
    describes).  The value trades a little extra access delay at light load
    for stability across the evaluated population range.
    """

    data_qos_delay_s: float = 1.0
    """Delay component of the data QoS operating point used in Section 5.2."""

    data_qos_throughput: float = 0.25
    """Per-user throughput component of the data QoS operating point."""

    # --- physical layer -----------------------------------------------------
    target_ber: float = 1e-6
    """Target bit-error rate of the constant-BER adaptive PHY.

    Chosen so that a 160-bit packet transmitted inside the adaptation range is
    received error-free with probability better than 99.98 %, matching the
    paper's observation that CHARISMA's residual loss at low load is
    negligible.
    """

    mode_throughputs: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
    """Normalised throughput (information bits per symbol) of the 6 ABICM modes."""

    reference_throughput: float = 1.0
    """Normalised throughput corresponding to one packet per information slot.

    The fixed-rate PHY of D-TDMA/FR, RAMA, RMAV and DRMA always operates at
    this reference rate; an adaptive-PHY slot in mode ``q`` carries
    ``mode_throughputs[q] / reference_throughput`` packets.
    """

    packet_size_bits: int = 160
    """Payload of one packet (8 kbit/s x 20 ms = 160 bits)."""

    mean_snr_db: float = 28.5
    """Average received SNR at unit composite channel amplitude.

    Calibrated so the fixed-rate baseline's transmission-error loss floor lies
    below the 1 % voice QoS threshold (the paper's baselines do cross the 1 %
    line on load, so their error floor must sit beneath it) while deep fades
    remain frequent enough for channel-adaptive scheduling to pay off.
    """

    pilot_symbols_per_request: int = 16
    """Known pilot symbols embedded in a request packet for CSI estimation."""

    csi_validity_frames: int = 2
    """Frames for which an estimated CSI value remains trustworthy."""

    # --- channel ------------------------------------------------------------
    mobile_speed_kmh: float = 50.0
    """Mean mobile speed (km/h); the paper also sweeps 10-80 km/h."""

    max_mobile_speed_kmh: float = 80.0
    """Maximum mobile speed (km/h)."""

    shadow_std_db: float = 4.0
    """Standard deviation of the log-normal shadowing (dB)."""

    shadow_mean_db: float = 0.0
    """Mean of the log-normal shadowing (dB)."""

    shadow_decorrelation_s: float = 1.0
    """Decorrelation time of the shadowing process (seconds)."""

    # --- baseline-protocol constants ----------------------------------------
    rmav_pmax: int = 10
    """RMAV: maximum information slots granted to one data request."""

    drma_minislots_per_info_slot: int = 3
    """DRMA: number of request minislots an idle information slot converts to."""

    rama_id_digits: int = 4
    """RAMA: number of digits of the randomly generated auction ID."""

    rama_digit_base: int = 8
    """RAMA: radix of each auction ID digit (one orthogonal frequency each)."""

    rama_auction_slots: int = 3
    """RAMA: number of auction slots ``N_a`` per frame."""

    # --- CHARISMA -----------------------------------------------------------
    priority: PriorityWeights = field(default_factory=PriorityWeights)
    """Weights of the CHARISMA priority metric."""

    request_queue_capacity: int = 64
    """Maximum number of backlog requests the base-station queue stores."""

    # ------------------------------------------------------------------ api
    def __post_init__(self) -> None:
        positive = (
            "bandwidth_hz", "frame_duration_s", "voice_bit_rate_bps",
            "voice_packet_period_s", "voice_deadline_s", "mean_talkspurt_s",
            "mean_silence_s", "mean_data_interarrival_s",
            "mean_data_burst_packets", "target_ber", "reference_throughput",
            "mobile_speed_kmh", "shadow_decorrelation_s", "packet_size_bits",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        non_negative_ints = (
            "n_request_slots", "n_info_slots", "n_pilot_slots",
            "ack_timeout_minislots", "pilot_symbols_per_request",
            "csi_validity_frames", "rmav_pmax",
            "drma_minislots_per_info_slot", "rama_id_digits",
            "rama_digit_base", "rama_auction_slots", "request_queue_capacity",
        )
        for name in non_negative_ints:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("voice_permission_probability", "data_permission_probability"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0.0 < self.voice_loss_threshold < 1.0:
            raise ValueError("voice_loss_threshold must lie in (0, 1)")
        if not 0.0 < self.target_ber < 0.5:
            raise ValueError("target_ber must lie in (0, 0.5)")
        if len(self.mode_throughputs) < 2:
            raise ValueError("mode_throughputs needs at least two modes")
        if list(self.mode_throughputs) != sorted(self.mode_throughputs):
            raise ValueError("mode_throughputs must be sorted ascending")
        if self.shadow_std_db < 0:
            raise ValueError("shadow_std_db must be non-negative")

    @property
    def frames_per_voice_period(self) -> int:
        """Number of TDMA frames per 20 ms voice packet period (8 by default)."""
        return max(1, int(round(self.voice_packet_period_s / self.frame_duration_s)))

    @property
    def voice_deadline_frames(self) -> int:
        """Voice deadline expressed in frames."""
        return max(1, int(round(self.voice_deadline_s / self.frame_duration_s)))

    @property
    def frames_per_second(self) -> float:
        """Number of TDMA frames per second."""
        return 1.0 / self.frame_duration_s

    @property
    def n_modes(self) -> int:
        """Number of adaptive-PHY transmission modes."""
        return len(self.mode_throughputs)

    def with_overrides(self, **overrides) -> "SimulationParameters":
        """Return a copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, object]:
        """Dictionary view used by the Table 1 benchmark and EXPERIMENTS.md."""
        return {
            "bandwidth_hz": self.bandwidth_hz,
            "frame_duration_ms": self.frame_duration_s * 1e3,
            "request_slots_per_frame": self.n_request_slots,
            "info_slots_per_frame": self.n_info_slots,
            "pilot_slots_per_frame": self.n_pilot_slots,
            "voice_bit_rate_kbps": self.voice_bit_rate_bps / 1e3,
            "voice_packet_period_ms": self.voice_packet_period_s * 1e3,
            "voice_deadline_ms": self.voice_deadline_s * 1e3,
            "mean_talkspurt_s": self.mean_talkspurt_s,
            "mean_silence_s": self.mean_silence_s,
            "voice_permission_probability": self.voice_permission_probability,
            "data_permission_probability": self.data_permission_probability,
            "mean_data_interarrival_s": self.mean_data_interarrival_s,
            "mean_data_burst_packets": self.mean_data_burst_packets,
            "adaptive_modes": list(self.mode_throughputs),
            "target_ber": self.target_ber,
            "mean_snr_db": self.mean_snr_db,
            "mobile_speed_kmh": self.mobile_speed_kmh,
            "shadow_std_db": self.shadow_std_db,
            "packet_size_bits": self.packet_size_bits,
        }
