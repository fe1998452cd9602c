"""Cross-beam coupling: frequency-reuse interference and handover planning.

Both couplings act only at macro-block boundaries — the synchronisation
point the wavefront-batching literature uses for irregular cross-tile
interaction — so the per-beam hot loops stay untouched:

* **Interference**: each beam reports its busy load; co-channel beams
  (same ``beam % reuse_factor`` group) fold the mean load of their peers,
  scaled by ``coupling_db``, into their channel as an SNR penalty.
* **Handover**: idle voice terminals migrate between beams by swapping
  state with an idle peer slot.  Decisions are drawn serially from one
  dedicated RNG between blocks, so results are independent of how many
  worker processes step the shards.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.lint.contracts import kernel

__all__ = [
    "beam_busy_load",
    "interference_offsets",
    "plan_handovers",
    "HandoverSwap",
]

#: One planned migration: ``((beam_a, local_a), (beam_b, local_b))`` —
#: the two slots swap their full terminal state at the block boundary.
HandoverSwap = Tuple[Tuple[int, int], Tuple[int, int]]


@kernel
def beam_busy_load(in_talkspurt: np.ndarray, occupancy: np.ndarray) -> float:
    """Fraction of a beam's terminals currently loading the channel.

    A terminal counts as busy while inside a talkspurt or holding queued
    packets — the state that translates into uplink transmissions and
    hence co-channel interference seen by reuse partners.
    """
    n = in_talkspurt.shape[0]
    if n == 0:
        return 0.0
    busy = np.count_nonzero(in_talkspurt | (occupancy > 0))
    return float(busy) / float(n)


@kernel
def interference_offsets(
    loads: np.ndarray, reuse_factor: int, coupling_db: float
) -> np.ndarray:
    """Per-beam SNR penalty (dB) from co-channel busy loads.

    Beams ``b`` and ``b'`` interfere iff ``b % reuse_factor == b' %
    reuse_factor``.  Each beam's penalty is ``coupling_db`` scaled by the
    mean busy load of its *other* co-channel beams, so a fully loaded
    reuse group costs exactly ``coupling_db`` and an idle one costs
    nothing.  All-zero when coupling is disabled or no beam shares a
    channel, preserving the degenerate case bit-exactly.
    """
    loads = np.asarray(loads, dtype=np.float64)
    n = loads.shape[0]
    offsets = np.zeros(n, dtype=np.float64)
    if coupling_db <= 0.0 or n <= 1:
        return offsets
    groups = np.arange(n, dtype=np.int64) % int(reuse_factor)
    for g in range(int(reuse_factor)):
        mask = groups == g
        members = int(np.count_nonzero(mask))
        if members <= 1:
            continue
        total = float(loads[mask].sum())
        offsets[mask] = coupling_db * (total - loads[mask]) / (members - 1)
    return offsets


def plan_handovers(
    eligible: Sequence[Iterable[int]],
    handover_rate: float,
    rng: np.random.Generator,
) -> List[HandoverSwap]:
    """Plan this block's idle-terminal migrations as swap pairs.

    ``eligible[b]`` holds beam ``b``'s eligible local ids; their order and
    repeats do not matter.  Walks beams and their eligible terminals in
    ascending order, drawing one uniform per candidate; a candidate
    migrating with probability ``handover_rate`` is paired with the lowest
    free eligible slot of a uniformly drawn other beam that still has one.
    Each slot participates in at most one swap per block.  The draw
    sequence depends only on the eligibility sets, never on which process
    steps which beam, so every worker count plans identical handovers.
    """
    n_beams = len(eligible)
    if n_beams < 2 or handover_rate <= 0.0:
        return []
    pools: List[List[int]] = [sorted({int(i) for i in ids}) for ids in eligible]
    taken: List[Set[int]] = [set() for _ in range(n_beams)]
    free = [len(pool) for pool in pools]
    # Beams with a free slot, ascending, and each beam's lowest free slot
    # (an index into its pool, which only ever moves up).
    open_beams = [beam for beam in range(n_beams) if free[beam]]
    lowest = [0] * n_beams
    swaps: List[HandoverSwap] = []

    def take(beam: int, local: int) -> None:
        taken[beam].add(local)
        free[beam] -= 1
        if not free[beam]:
            del open_beams[bisect_left(open_beams, beam)]

    for beam in range(n_beams):
        for local in pools[beam]:
            if local in taken[beam] or rng.random() >= handover_rate:
                continue
            # ``local`` is free, so ``beam`` is open: the targets are the
            # other open beams.
            n_targets = len(open_beams) - 1
            if n_targets == 0:
                continue
            pick = int(rng.integers(n_targets))
            if pick >= bisect_left(open_beams, beam):
                pick += 1
            target = open_beams[pick]
            pool, cursor = pools[target], lowest[target]
            while pool[cursor] in taken[target]:
                cursor += 1
            lowest[target] = cursor
            peer = pool[cursor]
            take(beam, local)
            take(target, peer)
            swaps.append(((beam, local), (target, peer)))
    return swaps
