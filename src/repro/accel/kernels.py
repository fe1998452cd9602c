"""The NumPy kernels of the macro-stepped traffic loop.

Each kernel replaces a per-terminal Python loop of
:class:`~repro.traffic.population.TerminalPopulation` with a few whole-array
operations, and returns exactly what the loop would: the macro engine's
golden digests pin their outputs.  The per-event kernels
(:func:`voice_arrivals`, :func:`voice_drops`) take the frame's event ids,
which are distinct, so each fancy-indexed update touches a row once.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.lint.contracts import kernel

#: Largest ``int64``: an unsigned view's values above it are ``-1`` stamps.
_INT64_MAX = np.iinfo(np.int64).max

__all__ = [
    "deadline_scan",
    "next_expiry_bound",
    "voice_arrivals",
    "voice_drops",
    "voice_flush_resolve",
]


@kernel
def voice_arrivals(
    ids: np.ndarray,
    frame: int,
    occupancy: np.ndarray,
    generated: np.ndarray,
    head_created: np.ndarray,
) -> bool:
    """Count one frame's voice packet arrivals into the buffer arrays.

    Each terminal in ``ids`` (distinct) gains one buffered and one
    generated packet, and an empty buffer's head-of-line stamp becomes
    ``frame``.  Returns whether any buffer was empty, that is whether a
    fresh head can tighten the next-expiry bound.
    """
    occupancy[ids] += 1
    generated[ids] += 1
    fresh = ids[head_created[ids] < 0]
    head_created[fresh] = frame
    return fresh.shape[0] > 0


@kernel
def voice_drops(
    ids: np.ndarray,
    dropped: Sequence[int],
    counted: Sequence[int],
    heads: Sequence[int],
    occupancy: np.ndarray,
    head_created: np.ndarray,
    voice_dropped: np.ndarray,
) -> int:
    """Commit one frame's deadline drops to the buffer and outcome arrays.

    Parallel rows: the terminals (distinct), the packets each lost, how
    many of those fell inside the measurement window, and each buffer's
    head-of-line stamp after the drop (``-1`` when it emptied).  Returns
    the frame's in-window drops.
    """
    occupancy[ids] -= dropped
    head_created[ids] = heads
    in_window = np.asarray(counted, dtype=np.int64)
    voice_dropped[ids] += in_window
    return int(in_window.sum())


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

    The deadline fast-skip of the expiry sweep: ``heads`` (``int64``) holds
    each voice terminal's oldest buffered packet's creation frame (``-1``
    when empty), and a head at or before ``limit`` has outlived its
    deadline.  Returns the expired row indices (ascending).
    """
    if limit < 0:
        return np.zeros(0, dtype=np.intp)
    # Read as unsigned, an empty buffer's -1 is the largest value, so one
    # compare both skips it and tests the deadline.
    return np.nonzero(heads.view(np.uint64) <= limit)[0]


@kernel
def next_expiry_bound(heads: np.ndarray, deadline: int, sentinel: int) -> int:
    """Earliest frame at which any buffered head-of-line packet can expire.

    ``min(alive heads) + deadline``, or ``sentinel`` when every buffer is
    empty — the conservative lower bound the expiry sweep consults to skip
    frames without touching any per-terminal state.  ``heads`` is
    ``int64``; read as unsigned, its ``-1`` entries sort above every alive
    head.
    """
    if not heads.shape[0]:
        return sentinel
    earliest = int(heads.view(np.uint64).min())
    if earliest > _INT64_MAX:
        return sentinel
    return earliest + deadline
