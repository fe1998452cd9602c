"""Whole-array kernels of the macro-stepped traffic loop.

The macro-stepped frame loop reduces the engine to a handful of large array
kernels per block plus a few scalar loops — the buffer and counter updates
of a frame's many voice arrivals and deadline drops, the deadline scans of
the expiry sweep, the per-terminal accumulation of a block's voice
outcomes.  ``repro.accel`` holds the NumPy kernels that replace those
loops in :class:`~repro.traffic.population.TerminalPopulation`; each is
marked ``@kernel`` and so bound by the purity contract that ``python -m
repro lint`` checks.
"""

from __future__ import annotations

from repro.accel.kernels import (
    deadline_scan,
    next_expiry_bound,
    voice_arrivals,
    voice_drops,
    voice_flush_resolve,
)

__all__ = [
    "deadline_scan",
    "next_expiry_bound",
    "voice_arrivals",
    "voice_drops",
    "voice_flush_resolve",
]
