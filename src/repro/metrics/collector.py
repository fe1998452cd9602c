"""Per-run metrics collection.

:class:`MetricsCollector` is owned by the simulation engine.  It accumulates
per-frame observations (delivered data packets, slot usage, contention
outcomes) during the measured portion of a run and, at the end, aggregates
the population's counters into the :class:`~repro.metrics.voice.VoiceMetrics`
and :class:`~repro.metrics.data.DataMetrics` the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import SimulationParameters
from repro.metrics.data import DataMetrics
from repro.metrics.voice import VoiceMetrics
from repro.traffic.population import TerminalPopulation

__all__ = ["MacStats", "MetricsCollector"]


@dataclass(frozen=True)
class MacStats:
    """Aggregate MAC-layer statistics of one run.

    Attributes
    ----------
    n_frames:
        Number of measured frames.
    contention_attempts:
        Total request transmissions (each costs the sender energy).
    contention_collisions:
        Request minislots wasted by collisions.
    idle_request_slots:
        Request minislots in which nobody transmitted.
    allocated_slots:
        Information slots granted over the run.
    info_slots_per_frame:
        Information slots available per frame (for utilisation figures).
    mean_queue_length:
        Average base-station request-queue occupancy (0 without a queue).
    """

    n_frames: int
    contention_attempts: int
    contention_collisions: int
    idle_request_slots: int
    allocated_slots: int
    info_slots_per_frame: int
    mean_queue_length: float

    @property
    def slot_utilisation(self) -> float:
        """Fraction of available information slots actually granted."""
        total = self.n_frames * self.info_slots_per_frame
        if total == 0:
            return 0.0
        return self.allocated_slots / total

    @property
    def collision_rate(self) -> float:
        """Collisions per measured frame."""
        if self.n_frames == 0:
            return 0.0
        return self.contention_collisions / self.n_frames

    @classmethod
    def combine(cls, parts) -> "MacStats":
        """Merge per-beam stats measured over the *same* frame window.

        Slot counters sum — ``info_slots_per_frame`` included, because N
        beams really do offer N times the information slots per frame —
        while ``n_frames`` stays the shared window length, so
        ``slot_utilisation`` remains a true constellation-wide fraction.
        ``mean_queue_length`` sums too: it is the expected number of queued
        requests across all base stations at any instant.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("combine requires at least one MacStats")
        first = parts[0]
        for part in parts:
            if part.n_frames != first.n_frames:
                raise ValueError(
                    "cannot combine MacStats over different frame windows: "
                    f"{part.n_frames} != {first.n_frames}"
                )
        return cls(
            n_frames=first.n_frames,
            contention_attempts=sum(p.contention_attempts for p in parts),
            contention_collisions=sum(p.contention_collisions for p in parts),
            idle_request_slots=sum(p.idle_request_slots for p in parts),
            allocated_slots=sum(p.allocated_slots for p in parts),
            info_slots_per_frame=sum(p.info_slots_per_frame for p in parts),
            mean_queue_length=float(sum(p.mean_queue_length for p in parts)),
        )


class MetricsCollector:
    """Accumulates per-frame observations and produces the run's metrics."""

    def __init__(self, params: SimulationParameters, info_slots_per_frame: int) -> None:
        self._params = params
        self._info_slots_per_frame = int(info_slots_per_frame)
        self.reset()

    def reset(self) -> None:
        """Forget everything collected so far (used at the end of warm-up)."""
        self._n_frames = 0
        self._attempts = 0
        self._collisions = 0
        self._idle_slots = 0
        self._allocated_slots = 0
        self._queue_length_total = 0
        self._data_delivered_per_frame: List[int] = []
        self._voice_loss_events_per_frame: List[int] = []

    # ------------------------------------------------------------------ API
    @property
    def n_frames(self) -> int:
        """Number of frames recorded since the last reset."""
        return self._n_frames

    @property
    def data_delivered_per_frame(self) -> List[int]:
        """Per-frame delivered data packets (for batch-means statistics)."""
        return list(self._data_delivered_per_frame)

    @property
    def voice_loss_events_per_frame(self) -> List[int]:
        """Per-frame voice losses, dropping plus errors (for statistics)."""
        return list(self._voice_loss_events_per_frame)

    def record_frame(self, record) -> None:
        """Record one measured frame (see :meth:`record_block`)."""
        self.record_block((record,))

    def record_block(self, frame_records) -> None:
        """Record many frames in one call.

        ``frame_records`` is a sequence of 7-item records, one per frame in
        order: ``[contention_attempts, contention_collisions,
        idle_request_slots, allocated_slots, queued_requests,
        data_delivered, voice_losses]``.  The frame loop commits a block's
        records in one call.
        """
        data_per_frame = self._data_delivered_per_frame
        loss_per_frame = self._voice_loss_events_per_frame
        for record in frame_records:
            if record[5] < 0 or record[6] < 0:
                raise ValueError("per-frame counters must be non-negative")
            self._n_frames += 1
            self._attempts += record[0]
            self._collisions += record[1]
            self._idle_slots += record[2]
            self._allocated_slots += record[3]
            self._queue_length_total += record[4]
            data_per_frame.append(int(record[5]))
            loss_per_frame.append(int(record[6]))

    def voice_metrics(self, population: TerminalPopulation) -> VoiceMetrics:
        """Aggregate the population's voice counters."""
        return VoiceMetrics.from_population(population)

    def data_metrics(self, population: TerminalPopulation) -> DataMetrics:
        """Aggregate the population's data counters over the recorded frames."""
        return DataMetrics.from_population(
            population, self._n_frames, self._params.frame_duration_s
        )

    def mac_stats(self) -> MacStats:
        """Aggregate MAC-layer statistics."""
        mean_queue = (
            self._queue_length_total / self._n_frames if self._n_frames else 0.0
        )
        return MacStats(
            n_frames=self._n_frames,
            contention_attempts=self._attempts,
            contention_collisions=self._collisions,
            idle_request_slots=self._idle_slots,
            allocated_slots=self._allocated_slots,
            info_slots_per_frame=self._info_slots_per_frame,
            mean_queue_length=mean_queue,
        )
