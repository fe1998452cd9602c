"""Traffic substrate: the terminal population and contention gating.

The paper's system model (Section 2) has exactly two request types:

* **voice** — an on/off source alternating between exponentially distributed
  talkspurts (mean 1.0 s) and silences (mean 1.35 s); during a talkspurt one
  delay-sensitive packet is produced every 20 ms and must be transmitted
  within 20 ms or be dropped;
* **data** — file transfers arriving as bursts with exponentially distributed
  inter-arrival times (mean 1 s) and exponentially distributed sizes (mean
  100 packets); data packets are delay-insensitive and are never dropped at
  the sender, only delayed (and retransmitted on channel error).

Requests are submitted in contention minislots gated by permission
probabilities ``p_v`` / ``p_d``.

Public classes
--------------
:class:`~repro.traffic.population.TerminalPopulation`
    The whole cell's terminals as struct-of-arrays state — sources, transmit
    buffers and per-terminal statistics — advanced by vectorised kernels.
:class:`~repro.traffic.population.TerminalMigrationState`
    One terminal's complete state, detached for handover between cells.
:class:`~repro.traffic.permission.PermissionPolicy`
    The ``p_v`` / ``p_d`` gating of request transmissions.
"""

from repro.traffic.permission import PermissionPolicy
from repro.traffic.population import TerminalMigrationState, TerminalPopulation

__all__ = [
    "PermissionPolicy",
    "TerminalMigrationState",
    "TerminalPopulation",
]
