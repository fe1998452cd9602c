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

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.lint.contracts import kernel
from repro.obs import metrics as _metrics
from repro.traffic.permission import PermissionPolicy

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
    """

    winner_ids: List[int] = field(default_factory=list)
    attempts: int = 0
    collisions: int = 0
    idle_slots: int = 0


#: Pool size up to which per-minislot resolution runs on plain Python
#: scalars; larger pools stay arrays for the whole request phase (the draw
#: itself is one batched ``rng.random(n)`` per minislot either way).
_SCALAR_RESOLUTION_LIMIT = 24


def _threshold_row(
    n: int, n_voice_prefix: int, p_voice: float, p_data: float
) -> np.ndarray:
    """Permission probabilities of ``n`` candidates, voice prefix first."""
    row = np.full(n, p_data)
    row[:n_voice_prefix] = p_voice
    return row


@kernel
def run_contention_ids(
    ids,
    n_voice: int,
    permission: PermissionPolicy,
    n_minislots: int,
    rng,
    fast: bool = False,
) -> IndexContentionResult:
    """Run slotted contention over ``n_minislots`` request minislots.

    ``ids`` are the candidate terminal ids, an array or a list, in
    ascending order: that order is the input contract, relied on and not
    checked.  Terminals below ``n_voice`` are voice (the population's
    voice-then-data layout), so the voice candidates are a prefix; they
    transmit with ``permission``'s ``p_v`` and the rest with its ``p_d``.
    Winners come back as plain ids; the caller's ``ids`` are not modified.
    A terminal stops contending for the rest of the frame as soon as its
    request succeeds (it then waits for the allocation announcement).
    With ``fast=False`` the draws are one ``rng.random(size=n_remaining)``
    per non-empty minislot in minislot order — the parity draw order —
    and ``rng`` may be anything that answers ``random(size)``, such as the
    frame loop's :class:`~repro.sim.macro.RandomPool`.  Small pools
    resolve the comparison on Python scalars (cheaper than three array
    kernels per minislot), large ones vectorise; the decisions are
    identical either way.

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
    n = len(ids)
    m = _metrics.METRICS
    if m.enabled:
        # Pure accumulation (no clock, no draw) — legal inside kernels.
        m.inc("contention.rounds", n_minislots)
    if n == 0:
        return IndexContentionResult(idle_slots=n_minislots)
    n_voice_prefix = (
        int(np.searchsorted(ids, n_voice))
        if isinstance(ids, np.ndarray)
        else bisect_left(ids, n_voice)
    )
    p_voice = permission.voice_probability
    p_data = permission.data_probability
    winner_ids: List[int] = []
    attempts = collisions = idle = 0

    # The matrix draw only pays for itself when the request phase is large
    # enough to amortise its fixed array cost; below that, fast mode keeps
    # the scalar per-minislot resolution (drawing from its child stream —
    # the processes are identically distributed either way).
    if fast and n_minislots >= 6:
        # One draw and one comparison for the whole request phase; the
        # per-minislot work is plain-int bookkeeping, with array fix-ups
        # only on the rare minislots that produce a winner (whose later
        # transmissions must stop counting).
        # The fast gate only switches draw *shape*, never count: this
        # path owns its child stream, so no parity draw order is promised
        # here.
        # lint: allow[KRN001]
        transmitting = rng.random((n_minislots, n)) < _threshold_row(
            n, n_voice_prefix, p_voice, p_data
        )
        counts = transmitting.sum(axis=1, dtype=np.int64)
        counts_list = counts.tolist()
        active: Optional[np.ndarray] = None
        n_active = n
        for slot in range(n_minislots):
            if n_active == 0:
                idle += n_minislots - slot
                break
            n_transmitters = counts_list[slot]
            attempts += n_transmitters
            if n_transmitters == 1:
                row = transmitting[slot]
                if active is None:
                    index = int(np.argmax(row))
                    active = np.ones(n, dtype=bool)
                else:
                    index = int(np.argmax(row & active))
                winner_ids.append(int(ids[index]))
                active[index] = False
                n_active -= 1
                if slot + 1 < n_minislots:
                    later = transmitting[slot + 1 :, index]
                    if later.any():
                        corrected = counts[slot + 1 :] - later
                        counts[slot + 1 :] = corrected
                        counts_list[slot + 1 :] = corrected.tolist()
            elif n_transmitters == 0:
                idle += 1
            else:
                collisions += 1
        return IndexContentionResult(winner_ids, attempts, collisions, idle)

    # Small pools resolve on Python scalars; large ones stay arrays for the
    # whole request phase.  Either way the ids are copied only when a
    # winner pops.
    threshold_row: Optional[np.ndarray] = None
    thresholds: List[float] = []
    if n > _SCALAR_RESOLUTION_LIMIT:
        threshold_row = _threshold_row(n, n_voice_prefix, p_voice, p_data)
    else:
        thresholds = [p_voice] * n_voice_prefix
        thresholds += [p_data] * (n - n_voice_prefix)
    id_seq = ids
    k = n
    for slot in range(n_minislots):
        if k == 0:
            idle += n_minislots - slot
            break
        draws = rng.random(size=k)
        if threshold_row is not None:
            permitted = draws < threshold_row
            n_transmitters = int(np.count_nonzero(permitted))
            index = int(np.argmax(permitted)) if n_transmitters == 1 else -1
        else:
            n_transmitters = 0
            index = -1
            for position, draw in enumerate(draws.tolist()):
                if draw < thresholds[position]:
                    n_transmitters += 1
                    index = position
        attempts += n_transmitters
        if n_transmitters == 1:
            if id_seq is ids:
                id_seq = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
            winner_ids.append(id_seq.pop(index))
            if threshold_row is None:
                thresholds.pop(index)
            elif index < n_voice_prefix:
                # A class's thresholds are all equal: dropping the winner's
                # is dropping the first voice or the last data threshold.
                n_voice_prefix -= 1
                threshold_row = threshold_row[1:]
            else:
                threshold_row = threshold_row[:-1]
            k -= 1
        elif n_transmitters == 0:
            idle += 1
        else:
            collisions += 1
    return IndexContentionResult(winner_ids, attempts, collisions, idle)
