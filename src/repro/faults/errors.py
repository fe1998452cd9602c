"""Exception taxonomy of the fault-tolerance layer.

The retry machinery classifies every failure as *transient* (worth
retrying: the same point may succeed on the next attempt) or *fatal*
(deterministic: a simulation that raised ``ValueError`` on attempt one
will raise it on attempt two, so retrying only wastes time).  The split
is encoded in the class hierarchy so user code can participate: raise a
:class:`TransientPointError` subclass from custom executor plumbing and
the :class:`~repro.faults.retry.RetryPolicy` retries it.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "TransientPointError",
    "FatalPointError",
    "PointTimeout",
    "InjectedFault",
]


class TransientPointError(RuntimeError):
    """A point failure that may succeed if the attempt is repeated.

    The retry policy's classifier treats this hierarchy — plus the
    environmental exceptions (:class:`TimeoutError`, :class:`OSError`,
    :class:`ConnectionError`) — as retryable; everything else is fatal.
    """


class FatalPointError(RuntimeError):
    """A point failure that is deterministic and must not be retried."""


class PointTimeout(TransientPointError):
    """A point exceeded the retry policy's per-point time budget.

    Timeouts are *cooperative*: the executors measure each attempt's wall
    time and classify an over-budget attempt as failed after the fact (a
    Python process cannot safely pre-empt a compute-bound simulation).
    A worker that hangs forever is instead handled one layer up, by the
    fleet's lease expiry.
    """


class InjectedFault(TransientPointError):
    """A failure raised on purpose by the fault-injection subsystem.

    Attributes
    ----------
    site:
        Injection site that fired (``"point"``, ``"sink"``, ...).
    count:
        1-based occurrence count at that site when the fault fired.
    """

    def __init__(self, site: str, count: int) -> None:
        super().__init__(f"injected fault at site {site!r} (occurrence {count})")
        self.site = site
        self.count = count

    def __reduce__(self) -> "tuple[type, tuple[str, int], dict[str, Any]]":
        # BaseException pickles by replaying ``args`` (the formatted
        # message), which does not match this two-parameter signature;
        # rebuild from (site, count) so the fault survives the trip back
        # from a process-pool worker, attributes (a pool worker's metrics
        # snapshot) included.
        return (type(self), (self.site, self.count), self.__dict__)
