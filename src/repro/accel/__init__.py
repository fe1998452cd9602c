"""Optional compiled-kernel seam (feature-detected numba, numpy fallback).

The macro-stepped frame loop reduces the engine to a handful of large array
kernels per block plus a few scalar loops — voice-generation schedules over
a quiet gap, the deadline scans of the expiry sweep, the per-terminal
accumulation of a block's voice outcomes.  ``repro.accel`` is the seam
those loops compile through:

* when :mod:`numba` is importable, hot scalar kernels are JIT-compiled once
  per process (:data:`HAS_NUMBA` is ``True``);
* otherwise every kernel falls back to a pure-NumPy implementation with
  **identical results** — numba is an accelerator, never a dependency.

Nothing outside this package may import numba directly; gate new compiled
kernels behind the same pattern (define the fallback first, overwrite with
the jitted twin inside the ``if HAS_NUMBA`` block).  The CI matrix includes
a job without numba installed, proving the fallback path imports and passes
the parity suite.
"""

from __future__ import annotations

from repro.accel.kernels import (
    HAS_NUMBA,
    deadline_scan,
    kernel_provenance,
    next_expiry_bound,
    voice_flush_resolve,
    voice_generation_offsets,
)

__all__ = [
    "HAS_NUMBA",
    "deadline_scan",
    "kernel_provenance",
    "next_expiry_bound",
    "voice_flush_resolve",
    "voice_generation_offsets",
]
