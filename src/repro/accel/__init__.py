"""Whole-array kernels of the macro-stepped traffic loop.

The macro-stepped frame loop reduces the engine to a handful of large array
kernels per block plus a few scalar loops — the voice buffer windows'
updates for a frame's many voice arrivals and deadline drops, the deadline
scans of the expiry sweep, the per-terminal accumulation of a block's voice
outcomes.  ``repro.accel`` holds the NumPy kernels that replace those
loops in :class:`~repro.traffic.population.TerminalPopulation`; each is
marked ``@kernel`` and so bound by the purity contract that ``python -m
repro lint`` checks.
"""

from __future__ import annotations

from repro.accel.kernels import (
    WINDOW_BITS,
    deadline_scan,
    next_expiry_bound,
    voice_flush_resolve,
    window_arrivals,
    window_drops,
)

__all__ = [
    "WINDOW_BITS",
    "deadline_scan",
    "next_expiry_bound",
    "voice_flush_resolve",
    "window_arrivals",
    "window_drops",
]
