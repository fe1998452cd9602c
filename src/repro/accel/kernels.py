"""The NumPy kernels of the macro-stepped traffic loop.

Each kernel replaces a per-terminal Python loop of
:class:`~repro.traffic.population.TerminalPopulation` with a few whole-array
operations, and returns exactly what the loop would: the macro engine's
golden digests pin their outputs.  The buffer-window kernels
(:func:`window_arrivals`, :func:`window_drops`) take the frame's event ids,
which are distinct, so each fancy-indexed update touches a row once.

A voice terminal's buffer is one ``uint64`` *window* relative to its
head-of-line frame: bit ``k`` of ``window[i]`` is set while a packet created
at frame ``head_created[i] + k`` waits, so bit 0 is the head itself, and
the bits mean nothing while ``head_created[i]`` is ``-1`` (empty).  A voice
packet lives at most ``voice_deadline_frames`` frames, so
:data:`WINDOW_BITS` bits hold every buffered packet.  NumPy shifts a
``uint64`` by :data:`WINDOW_BITS` or more to 0, which the kernels rely on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lint.contracts import kernel

#: Largest ``int64``: an unsigned view's values above it are ``-1`` stamps.
_INT64_MAX = np.iinfo(np.int64).max

#: Width of a voice terminal's buffer window (one ``uint64``).
WINDOW_BITS = 64

_ONE = np.uint64(1)

__all__ = [
    "WINDOW_BITS",
    "deadline_scan",
    "next_expiry_bound",
    "voice_flush_resolve",
    "window_arrivals",
    "window_drops",
]


@kernel
def window_arrivals(
    ids: np.ndarray,
    frame: int,
    window: np.ndarray,
    occupancy: np.ndarray,
    generated: np.ndarray,
    head_created: np.ndarray,
) -> bool:
    """Add one frame's voice packets to the buffer windows and counters.

    Each terminal in ``ids`` (distinct) gains one buffered and one
    generated packet at bit ``frame - head_created`` of its window, and an
    empty buffer restarts at ``frame`` with bit 0.  Raises ``ValueError``,
    before writing anything, when a head lies :data:`WINDOW_BITS` or more
    frames back, which happens only if the deadline drops stopped.
    Returns whether any buffer was empty, that is whether a fresh head can
    tighten the next-expiry bound.
    """
    heads = head_created[ids]
    fresh = heads < 0
    offsets = np.where(fresh, 0, frame - heads)
    widest = int(offsets.max())
    if widest >= WINDOW_BITS:
        raise ValueError(
            f"a voice buffer's head lies {widest} frames before frame "
            f"{frame}, beyond its {WINDOW_BITS}-frame window: expired "
            f"packets must be dropped every frame"
        )
    bits = _ONE << offsets.astype(np.uint64)
    window[ids] = np.where(fresh, bits, window[ids] | bits)
    occupancy[ids] += 1
    generated[ids] += 1
    head_created[ids] = np.where(fresh, frame, heads)
    return bool(fresh.any())


@kernel
def window_drops(
    ids: np.ndarray,
    limit: int,
    measure_from: int,
    window: np.ndarray,
    occupancy: np.ndarray,
    head_created: np.ndarray,
    voice_dropped: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop the packets created at or before ``limit`` from the windows.

    ``ids`` (distinct) are buffers whose head is at or before ``limit``.
    Each loses its bits ``0 .. limit - head``; its new head is its lowest
    remaining bit, and the window shifts down to it.  Returns the
    ``(lost, counted)`` columns: the packets each terminal lost, and how
    many of those were created at or after ``measure_from`` (the ones
    charged to ``voice_dropped``).
    """
    heads = head_created[ids]
    bits = window[ids]
    span = (limit + 1 - heads).astype(np.uint64)
    rest = bits >> span
    expired = bits ^ (rest << span)
    lost = np.bitwise_count(expired).astype(np.int64)
    # Bits below measure_from - head hold packets created before it.
    skip = np.maximum(measure_from - heads, 0).astype(np.uint64)
    counted = np.bitwise_count(expired >> skip).astype(np.int64)
    # rest ^ (rest - 1) sets the bits up to rest's lowest set bit (all 64
    # when rest is 0, whose head becomes -1).
    low = np.bitwise_count(rest ^ (rest - _ONE)).astype(np.int64) - 1
    window[ids] = rest >> low.astype(np.uint64)
    head_created[ids] = np.where(rest != 0, limit + 1 + low, -1)
    occupancy[ids] -= lost
    voice_dropped[ids] += counted
    return lost, counted


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
