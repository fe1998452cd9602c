"""Compiled scalar kernels with bit-identical pure-NumPy fallbacks.

Every kernel here is written twice: a NumPy implementation that is always
available, and (when :mod:`numba` imports) a JIT-compiled twin registered
under the same name.  Both produce identical outputs for identical inputs —
the macro engine's parity guarantees must not depend on whether numba is
installed.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.lint.contracts import kernel

__all__ = [
    "HAS_NUMBA",
    "deadline_scan",
    "kernel_provenance",
    "next_expiry_bound",
    "voice_flush_resolve",
    "voice_generation_offsets",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - the container default
    numba = None
    HAS_NUMBA = False


def kernel_provenance() -> Dict[str, str]:
    """Which implementation each accel kernel resolved to at import time.

    ``{"deadline_scan": "numba" | "numpy", ...}`` — the CLI stamps
    this into trace headers so a trace file records which twin produced
    its timings (the selection happens once, at import).
    """
    source = "numba" if HAS_NUMBA else "numpy"
    return {
        name: source
        for name in (
            "deadline_scan",
            "next_expiry_bound",
            "voice_flush_resolve",
            "voice_generation_offsets",
        )
    }


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

    The batched form of ``record_voice_outcome``'s arithmetic over every
    deferred voice row of a macro flush — per-row delivered/errored
    resolution fused with the per-terminal scatter-accumulation (a terminal
    appearing in several frames of the block contributes every row).

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


if HAS_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(cache=True)
    def _voice_generation_offsets_jit(
        since: np.ndarray, period: int, gap: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = since.shape[0]
        total = 0
        for i in range(n):
            first = (-since[i]) % period
            if first < gap:
                total += (gap - first + period - 1) // period
        offsets = np.empty(total, dtype=np.int64)
        rows = np.empty(total, dtype=np.int64)
        pos = 0
        for i in range(n):
            o = (-since[i]) % period
            while o < gap:
                offsets[pos] = o
                rows[pos] = i
                pos += 1
                o += period
        return offsets, rows

    @numba.njit(cache=True)
    def _voice_flush_resolve_jit(
        terminal_ids: np.ndarray,
        counts: np.ndarray,
        pre_window: np.ndarray,
        delivered: np.ndarray,
        size: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = terminal_ids.shape[0]
        delivered_totals = np.zeros(size, dtype=np.int64)
        errored_totals = np.zeros(size, dtype=np.int64)
        errored = np.empty(n, dtype=np.int64)
        n_errored = 0
        for j in range(n):
            pre = pre_window[j]
            got = delivered[j]
            floor = got if got > pre else pre
            err = counts[j] - floor
            errored[j] = err
            tid = terminal_ids[j]
            if got > pre:
                delivered_totals[tid] += got - pre
            if err:
                errored_totals[tid] += err
                n_errored += 1
        errored_rows = np.empty(n_errored, dtype=np.int64)
        pos = 0
        for j in range(n):
            if errored[j]:
                errored_rows[pos] = j
                pos += 1
        return delivered_totals, errored_totals, errored_rows, errored

    @numba.njit(cache=True)
    def _deadline_scan_jit(heads: np.ndarray, limit: int) -> np.ndarray:
        n = heads.shape[0]
        total = 0
        for i in range(n):
            if heads[i] >= 0 and heads[i] <= limit:
                total += 1
        rows = np.empty(total, dtype=np.int64)
        pos = 0
        for i in range(n):
            if heads[i] >= 0 and heads[i] <= limit:
                rows[pos] = i
                pos += 1
        return rows

    @numba.njit(cache=True)
    def _next_expiry_bound_jit(
        heads: np.ndarray, deadline: int, sentinel: int
    ) -> int:
        best = sentinel
        for i in range(heads.shape[0]):
            head = heads[i]
            if head >= 0 and head + deadline < best:
                best = head + deadline
        return best

    @kernel
    def voice_generation_offsets(  # noqa: F811
        since: np.ndarray, period: int, gap: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _voice_generation_offsets_jit(
            np.ascontiguousarray(since), period, gap
        )

    @kernel
    def voice_flush_resolve(  # noqa: F811
        terminal_ids: np.ndarray,
        counts: np.ndarray,
        pre_window: np.ndarray,
        delivered: np.ndarray,
        size: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return _voice_flush_resolve_jit(
            np.ascontiguousarray(terminal_ids),
            np.ascontiguousarray(counts),
            np.ascontiguousarray(pre_window),
            np.ascontiguousarray(delivered),
            size,
        )

    @kernel
    def deadline_scan(  # noqa: F811
        heads: np.ndarray, limit: int
    ) -> np.ndarray:
        return _deadline_scan_jit(np.ascontiguousarray(heads), limit)

    @kernel
    def next_expiry_bound(  # noqa: F811
        heads: np.ndarray, deadline: int, sentinel: int
    ) -> int:
        return int(
            _next_expiry_bound_jit(np.ascontiguousarray(heads), deadline, sentinel)
        )
