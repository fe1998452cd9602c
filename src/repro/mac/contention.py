"""Slotted request-contention resolution.

All protocols except RAMA gather requests through slotted ALOHA-style
contention: in each request minislot every still-unserved contender
transmits with its class's permission probability; a minislot with exactly
one transmission yields a successful request (acknowledged immediately on the
downlink), a minislot with two or more transmissions is a collision and all
of them fail, an empty minislot is idle.  Capture is not modelled, matching
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.lint.contracts import kernel
from repro.obs import metrics as _metrics

__all__ = [
    "IndexContentionResult",
    "run_contention_ids",
]


@dataclass
class IndexContentionResult:
    """Outcome of the request phase of one frame.

    ``winner_ids`` lists the successful terminals in minislot-resolution
    order (the FCFS order used by the baseline protocols); ``attempts``
    counts request transmissions (each costs the sender energy, successful
    or not); ``collisions`` and ``idle_slots`` count the minislots wasted by
    collisions and those in which nobody transmitted.
    ``remaining_ids`` / ``remaining_probabilities`` are the still
    unserved contenders (aligned plain lists) for callers that continue a
    request phase over multiple calls.  (DRMA manages its own candidate
    lists instead — it must selectively *re-admit* data winners with deep
    buffers, which a pure remainder cannot express.)
    """

    winner_ids: List[int] = field(default_factory=list)
    attempts: int = 0
    collisions: int = 0
    idle_slots: int = 0
    remaining_ids: List[int] = field(default_factory=list)
    remaining_probabilities: List[float] = field(default_factory=list)


#: Candidate count below which per-minislot resolution runs on plain Python
#: scalars (the draw itself stays one batched ``rng.random(n)`` either way).
_SCALAR_RESOLUTION_LIMIT = 24


@kernel
def run_contention_ids(
    ids,
    probabilities,
    n_minislots: int,
    rng: np.random.Generator,
    fast: bool = False,
) -> IndexContentionResult:
    """Run slotted contention over ``n_minislots`` request minislots.

    Candidates are a dense id sequence (array or list) plus an aligned
    per-candidate permission-probability sequence; winners come back as
    plain ids.  A terminal stops contending for the rest of the frame as
    soon as its request succeeds (it then waits for the allocation
    announcement).  With ``fast=False`` the draws are one
    ``rng.random(n_remaining)`` per non-empty minislot in minislot order —
    the parity draw order.  Small pools resolve the comparison on Python
    scalars (cheaper than three array kernels per minislot), large ones
    vectorise; the decisions are identical either way.

    With ``fast=True`` the whole request phase costs a single
    ``rng.random((n_minislots, n_candidates))`` draw up front; already
    successful candidates are masked out of later minislots instead of
    shrinking the draw.  Each candidate's per-minislot transmission events
    are still independent Bernoulli(p) trials, so the resolution process is
    distributed identically to the scalar path — just not bit-identical,
    which is why fast mode feeds this from a dedicated child stream.
    """
    if n_minislots < 0:
        raise ValueError("n_minislots must be non-negative")
    result = IndexContentionResult()
    n = len(ids)
    m = _metrics.METRICS
    if m.enabled:
        # Pure accumulation (no clock, no draw) — legal inside kernels.
        m.inc("contention.rounds", n_minislots)
    if n == 0:
        result.idle_slots = n_minislots
        return result

    # The matrix draw only pays for itself when the request phase is large
    # enough to amortise its fixed array cost; below that, fast mode keeps
    # the scalar per-minislot resolution (drawing from its child stream —
    # the processes are identically distributed either way).
    if fast and n_minislots >= 6:
        ids = np.asarray(ids, dtype=np.int64)
        probabilities = np.asarray(probabilities, dtype=float)
        # One draw and one comparison for the whole request phase; the
        # per-minislot work is plain-int bookkeeping, with array fix-ups
        # only on the rare minislots that produce a winner (whose later
        # transmissions must stop counting).
        # The fast gate only switches draw *shape*, never count: this
        # path owns its child stream, so no parity draw order is promised
        # here.
        # lint: allow[KRN001]
        transmitting = rng.random((n_minislots, n)) < probabilities
        counts = transmitting.sum(axis=1, dtype=np.int64)
        counts_list = counts.tolist()
        active: Optional[np.ndarray] = None
        n_active = n
        for slot in range(n_minislots):
            if n_active == 0:
                result.idle_slots += n_minislots - slot
                break
            n_transmitters = counts_list[slot]
            result.attempts += n_transmitters
            if n_transmitters == 1:
                row = transmitting[slot]
                if active is None:
                    index = int(np.argmax(row))
                    active = np.ones(n, dtype=bool)
                else:
                    index = int(np.argmax(row & active))
                result.winner_ids.append(int(ids[index]))
                active[index] = False
                n_active -= 1
                if slot + 1 < n_minislots:
                    later = transmitting[slot + 1 :, index]
                    if later.any():
                        corrected = counts[slot + 1 :] - later
                        counts[slot + 1 :] = corrected
                        counts_list[slot + 1 :] = corrected.tolist()
            elif n_transmitters == 0:
                result.idle_slots += 1
            else:
                result.collisions += 1
        if active is None:
            result.remaining_ids = ids.tolist()
            result.remaining_probabilities = probabilities.tolist()
        else:
            result.remaining_ids = ids[active].tolist()
            result.remaining_probabilities = probabilities[active].tolist()
        return result

    id_list = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
    prob_list = (
        probabilities.tolist()
        if isinstance(probabilities, np.ndarray)
        else list(probabilities)
    )
    prob_array: Optional[np.ndarray] = None
    for _ in range(n_minislots):
        k = len(id_list)
        if k == 0:
            result.idle_slots += 1
            continue
        draws = rng.random(size=k)
        if k <= _SCALAR_RESOLUTION_LIMIT:
            n_transmitters = 0
            index = -1
            for position, draw in enumerate(draws.tolist()):
                if draw < prob_list[position]:
                    n_transmitters += 1
                    index = position
        else:
            if prob_array is None:
                prob_array = np.asarray(prob_list, dtype=float)
            permitted = draws < prob_array
            n_transmitters = int(np.count_nonzero(permitted))
            index = int(np.argmax(permitted)) if n_transmitters == 1 else -1
        result.attempts += n_transmitters
        if n_transmitters == 1:
            result.winner_ids.append(id_list.pop(index))
            prob_list.pop(index)
            prob_array = None
        elif n_transmitters == 0:
            result.idle_slots += 1
        else:
            result.collisions += 1
    result.remaining_ids = id_list
    result.remaining_probabilities = prob_list
    return result
