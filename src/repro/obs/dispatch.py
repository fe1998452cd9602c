"""Kernel-entry dispatch counting via the ``@kernel`` registry.

Replaces the engine's old ``sys.setprofile`` hook, which taxed *every*
Python call in the interpreter while counting and guessed at "dispatches"
by sniffing NumPy frames.  The new counter has a precise definition — one
dispatch = one entry into a ``batch=True`` ``@kernel`` function (see
:mod:`repro.lint.contracts`) — and costs nothing when off: kernels are
plain unwrapped functions until :meth:`KernelDispatchCounter.install`
swaps counting wrappers into every live binding, and
:meth:`~KernelDispatchCounter.uninstall` restores the originals.

Bindings are discovered by identity: the defining class (for methods) and
every ``repro*`` module whose globals alias the function — which covers
``from repro.accel import contention_round_scan``-style imports the macro
runner relies on.  Scalar per-terminal kernels (``batch=False``) are never
patched, preserving the macro-vs-per-frame dispatch invariant that
``benchmarks/test_bench_hotpath.py`` asserts.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.lint.contracts import KernelInfo, registered_kernels
from repro.obs import metrics as _metrics

__all__ = ["KernelDispatchCounter"]


def _binding_sites(info: KernelInfo) -> Iterator[Tuple[Any, str]]:
    """Yield ``(owner, attribute)`` pairs whose value *is* ``info.func``."""
    func = info.func
    attr = info.qualname.rsplit(".", 1)[-1]
    # Methods: walk the qualname on the defining module to reach the class.
    if "." in info.qualname and "<locals>" not in info.qualname:
        owner: Any = sys.modules.get(info.module)
        for part in info.qualname.split(".")[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if owner is not None and owner.__dict__.get(attr) is func:
            yield owner, attr
    # Module-global bindings, including import aliases anywhere under repro.
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for alias, value in list(vars(module).items()):
            if value is func:
                yield module, alias


class KernelDispatchCounter:
    """Count entries into batch kernels, attributed to engine phases.

    Parameters
    ----------
    counts:
        Mutable ``{phase: entries}`` dict, incremented in place (the
        engine exposes it as ``dispatch_counts``).
    phase_of:
        Zero-argument callable naming the phase currently open (typically
        ``lambda: recorder.phase``); entries outside any phase bracket
        (falsy name) are attributed to nothing and only feed the
        ``kernel.dispatches`` metric.
    """

    def __init__(
        self, counts: Dict[str, int], phase_of: Callable[[], str]
    ) -> None:
        self.counts = counts
        self._phase_of = phase_of
        #: Total batch-kernel entries since install (all phases).
        self.total = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        """Swap counting wrappers into every live batch-kernel binding."""
        if self._patched:
            return
        for info in registered_kernels():
            if not info.batch:
                continue
            wrapper = self._wrap(info.func)
            for owner, attr in _binding_sites(info):
                self._patched.append((owner, attr, info.func))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding to the original function."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, func: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts
        phase_of = self._phase_of

        def counting(*args: Any, **kwargs: Any) -> Any:
            phase = phase_of()
            if phase:
                counts[phase] = counts.get(phase, 0) + 1
            self.total += 1
            m = _metrics.METRICS
            if m.enabled:
                m.inc("kernel.dispatches")
            return func(*args, **kwargs)

        counting.__wrapped__ = func  # type: ignore[attr-defined]
        counting.__name__ = getattr(func, "__name__", "kernel")
        counting.__qualname__ = getattr(func, "__qualname__", "kernel")
        return counting

    def __repr__(self) -> str:
        return (
            f"KernelDispatchCounter(installed={self.installed}, "
            f"total={self.total})"
        )
