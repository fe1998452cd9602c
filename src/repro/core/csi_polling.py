"""CSI refresh mechanism for backlogged requests (paper Section 4.4, Fig. 10).

A request that waits at the base station for more than a couple of frames
carries a stale CSI estimate.  At the beginning of each frame the base
station short-lists up to ``N_b`` backlog requests whose estimates have
expired — chosen by priority — and broadcasts a CSI polling packet listing
their IDs; the listed devices transmit pilot symbols in the pilot-symbol
subframe, and the base station refreshes their estimates, which then remain
valid for another couple of frames.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.phy.csi import CSIEstimator

__all__ = ["CSIPoller"]


class CSIPoller:
    """Refreshes stale CSI estimates of backlogged requests via polling.

    Parameters
    ----------
    estimator:
        The pilot-symbol CSI estimator shared with the request phase.
    n_pilot_slots:
        Number of pilot-symbol minislots per frame (``N_b``), i.e. how many
        backlog requests can be refreshed per frame.
    """

    def __init__(self, estimator: CSIEstimator, n_pilot_slots: int) -> None:
        if n_pilot_slots < 1:
            raise ValueError("n_pilot_slots must be at least 1")
        self._estimator = estimator
        self._n_pilot_slots = int(n_pilot_slots)
        self._polls_sent = 0

    @property
    def n_pilot_slots(self) -> int:
        """Polling capacity per frame."""
        return self._n_pilot_slots

    @property
    def polls_sent(self) -> int:
        """Total number of poll responses processed so far."""
        return self._polls_sent

    def stale_rows(self, columns, frame_index: int) -> np.ndarray:
        """Row indices of a request-column pool whose estimates expired.

        A row without an estimate counts as stale.  Exposed separately so
        callers can skip building the polling priorities entirely when no
        row is stale (the common case for short backlogs).
        """
        return np.nonzero(
            (columns.csi_frames < 0)
            | (frame_index - columns.csi_frames >= columns.csi_validity)
        )[0]

    def refresh_columns(
        self,
        columns,
        snapshot: ChannelSnapshot,
        frame_index: int,
        priorities: Optional[np.ndarray] = None,
        stale: Optional[np.ndarray] = None,
    ) -> int:
        """Refresh up to ``N_b`` stale rows' CSI estimates in place.

        Staleness comes from the CSI frame-stamp column (or a precomputed
        ``stale`` row array from :meth:`stale_rows`), the polling short
        list from a stable descending sort on ``priorities`` (FIFO when
        omitted), and the refreshed estimates — observed from the polled
        devices' pilot transmissions on the current channel ``snapshot`` —
        from one batched estimator call, in short-list order.  Returns the
        number of rows refreshed.
        """
        if stale is None:
            stale = self.stale_rows(columns, frame_index)
        if priorities is not None and stale.shape[0] > 1:
            stale = stale[np.argsort(-priorities[stale], kind="stable")]
        polled = stale[: self._n_pilot_slots]
        if not polled.shape[0]:
            return 0
        estimates = self._estimator.estimate_amplitudes(
            snapshot.amplitude[columns.terminal_ids[polled]], frame_index
        )
        columns.csi_amplitudes[polled] = estimates
        columns.csi_frames[polled] = frame_index
        self._polls_sent += int(polled.shape[0])
        return int(polled.shape[0])
