"""Source-contract markers checked by :mod:`repro.lint`.

The :func:`kernel` decorator is a pure *marker*: it returns the function
unchanged (zero runtime cost in the frame loop) and exists so the static
analyzer knows which bodies carry the kernel-purity contract.  A marked
function is one of the engine's hot-path kernels, and the KRN rules hold it
to three promises the parity suites otherwise only discover by diverging:

* **No conditional draws** (``KRN001``): a random draw must not sit under a
  data-dependent branch, because the *number and order* of draws taken from
  a stream is part of the parity contract.  Where a kernel deliberately
  gates a draw to keep the parity mode's per-terminal draw order, the site
  must carry an explicit ``# lint: allow[KRN001]`` with the reason.
* **No unordered iteration** (``KRN001``): iterating a ``set`` (or the
  views of a freshly-built ``dict``) makes the emission order depend on
  hashing/insertion history; kernels must iterate arrays, lists or
  ``sorted(...)`` views.
* **No clocks** (``KRN002``): wall-clock or monotonic time must never leak
  into kernel state — simulated time is the only clock.  Timing lives one
  layer out, in :mod:`repro.obs` spans around the kernel call sites.

Besides the marker attribute, every decoration is recorded in
:data:`KERNEL_REGISTRY` with its ``batch`` classification:

* ``batch=True`` (the default) — the kernel advances *many* terminals per
  call (one entry ≈ one vectorised step).  These are what
  :class:`repro.obs.dispatch.KernelDispatchCounter` counts, preserving the
  "macro mode needs fewer dispatches per frame" invariant that
  ``benchmarks/test_bench_hotpath.py`` asserts.
* ``batch=False`` — a scalar per-terminal helper (e.g. the population's
  single-terminal ``transmit``).  Still bound by the purity
  contract, but excluded from dispatch counting: macro mode calls scalar
  helpers per *grant*, so counting them would invert the invariant.

This module must stay import-light (stdlib only): it is imported by every
kernel-bearing module in ``mac``/``traffic``/``sim``/``phy``/``accel``.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, TypeVar, Union, overload

__all__ = [
    "KERNEL_ATTR",
    "KERNEL_BATCH_ATTR",
    "KernelInfo",
    "KERNEL_REGISTRY",
    "is_kernel",
    "is_batch_kernel",
    "kernel",
    "registered_kernels",
]

_F = TypeVar("_F", bound=Callable[..., Any])

#: Attribute set on functions marked with :func:`kernel`.
KERNEL_ATTR = "__repro_kernel__"

#: Attribute carrying the batch/scalar classification.
KERNEL_BATCH_ATTR = "__repro_kernel_batch__"


class KernelInfo(NamedTuple):
    """One :func:`kernel` decoration, as recorded in the registry."""

    module: str
    qualname: str
    func: Callable[..., Any]
    batch: bool


#: Every decoration in import order.  Numba twin registrations (the accel
#: seam redefines a kernel under the same name when numba is present)
#: appear as separate entries; consumers that patch by identity naturally
#: skip the shadowed twin because no live binding points at it.
KERNEL_REGISTRY: List[KernelInfo] = []


@overload
def kernel(func: _F) -> _F: ...


@overload
def kernel(*, batch: bool = ...) -> Callable[[_F], _F]: ...


def kernel(
    func: Optional[_F] = None, *, batch: bool = True
) -> Union[_F, Callable[[_F], _F]]:
    """Mark ``func`` as a hot-path kernel bound by the purity contract.

    Usable bare (``@kernel``) or parameterised (``@kernel(batch=False)``)
    — see the module docstring for what ``batch`` classifies.  Either form
    is a no-op at runtime: no wrapper frame is inserted, so marking a
    kernel can never perturb performance or the call stack.  The contract
    itself is enforced statically by the KRN rules of
    ``python -m repro lint``.
    """
    if func is None:
        def decorate(inner: _F) -> _F:
            return _register(inner, batch)
        return decorate
    return _register(func, batch)


def _register(func: _F, batch: bool) -> _F:
    setattr(func, KERNEL_ATTR, True)
    setattr(func, KERNEL_BATCH_ATTR, batch)
    KERNEL_REGISTRY.append(
        KernelInfo(
            module=getattr(func, "__module__", "") or "",
            qualname=getattr(func, "__qualname__", "") or "",
            func=func,
            batch=batch,
        )
    )
    return func


def registered_kernels() -> List[KernelInfo]:
    """Snapshot of :data:`KERNEL_REGISTRY` (import order preserved)."""
    return list(KERNEL_REGISTRY)


def is_kernel(obj: object) -> bool:
    """Whether ``obj`` was marked with :func:`kernel`."""
    return getattr(obj, KERNEL_ATTR, False) is True


def is_batch_kernel(obj: object) -> bool:
    """Whether ``obj`` is a kernel counted by the dispatch counter."""
    return is_kernel(obj) and getattr(obj, KERNEL_BATCH_ATTR, True) is True
