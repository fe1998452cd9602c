"""The NumPy kernels of the macro-stepped traffic loop.

Each kernel replaces a per-terminal Python loop of
:class:`~repro.traffic.population.TerminalPopulation` with a few whole-array
operations, and returns exactly what the loop would: the macro engine's
golden digests pin their outputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lint.contracts import kernel

__all__ = [
    "deadline_scan",
    "next_expiry_bound",
    "voice_flush_resolve",
    "voice_generation_offsets",
]


@kernel
def voice_generation_offsets(
    since: np.ndarray, period: int, gap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Frame offsets at which talking terminals generate during a quiet gap.

    A terminal whose talkspurt counter reads ``since`` frames generates a
    voice packet at every offset ``o`` in ``[0, gap)`` with
    ``(since + o) % period == 0``.  Returns ``(offsets, rows)`` — parallel
    arrays naming, in offset-major order per row, each generation event of
    the gap (``rows`` indexes into ``since``).
    """
    firsts = (-since) % period
    counts = np.maximum(0, (gap - firsts + period - 1) // period)
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(np.arange(since.shape[0], dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    intra = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    offsets = np.repeat(firsts, counts) + period * intra
    return offsets, rows


@kernel
def voice_flush_resolve(
    terminal_ids: np.ndarray,
    counts: np.ndarray,
    pre_window: np.ndarray,
    delivered: np.ndarray,
    size: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve a whole flush batch of deferred voice outcomes in one step.

    Every deferred voice row of a macro flush is resolved as the voice
    branch of ``TerminalPopulation.transmit`` would resolve it: the first
    ``delivered`` of the row's popped packets were received and the rest
    errored, and packets that predate the measurement window count towards
    neither.  The per-row split is fused with the per-terminal
    scatter-accumulation (a terminal appearing in several frames of the
    block contributes every row).

    Parameters
    ----------
    terminal_ids, counts, pre_window, delivered:
        Parallel rows: the transmitting terminal, how many packets it
        popped, how many of those predate the measurement window (always a
        FIFO prefix) and how many the PHY draw delivered.
    size:
        Length of the per-terminal accumulator arrays to produce (the
        population size; ``terminal_ids`` must all lie below it).

    Returns
    -------
    (delivered_totals, errored_totals, errored_rows, errored)
        Per-terminal in-window delivered and errored packet totals
        (length ``size``), the row positions with a non-zero error count,
        and the per-row errored counts (for per-frame record attribution).
    """
    floor = np.maximum(delivered, pre_window)
    errored = counts - floor
    net = np.maximum(delivered - pre_window, 0)
    # Weighted bincount is the scatter-accumulate: float64 weights are
    # exact for packet counts, so the cast back to int64 is lossless.
    delivered_totals = np.bincount(
        terminal_ids, weights=net, minlength=size
    ).astype(np.int64)
    errored_totals = np.bincount(
        terminal_ids, weights=errored, minlength=size
    ).astype(np.int64)
    return delivered_totals, errored_totals, np.nonzero(errored)[0], errored


@kernel
def deadline_scan(heads: np.ndarray, limit: int) -> np.ndarray:
    """Rows whose head-of-line frame stamp is alive and at most ``limit``.

    The deadline fast-skip of the expiry sweep: ``heads`` holds each voice
    terminal's oldest buffered packet's creation frame (``-1`` when empty),
    and a head at or before ``limit`` has outlived its deadline.  Returns
    the expired row indices (ascending).
    """
    return np.nonzero((heads >= 0) & (heads <= limit))[0]


@kernel
def next_expiry_bound(heads: np.ndarray, deadline: int, sentinel: int) -> int:
    """Earliest frame at which any buffered head-of-line packet can expire.

    ``min(alive heads) + deadline``, or ``sentinel`` when every buffer is
    empty — the conservative lower bound the expiry sweep consults to skip
    frames without touching any per-terminal state.
    """
    alive = heads >= 0
    if not alive.any():
        return sentinel
    return int(heads[alive].min()) + deadline
