"""The @kernel marker is a pure annotation: no wrapping, no behaviour."""

from repro.lint.contracts import KERNEL_ATTR, is_kernel, kernel


def test_kernel_marks_without_wrapping():
    def step(x):
        """doc"""
        return x + 1

    marked = kernel(step)
    assert marked is step  # identity: no wrapper object
    assert getattr(step, KERNEL_ATTR) is True
    assert is_kernel(step)
    assert step(2) == 3
    assert step.__doc__ == "doc"


def test_is_kernel_false_for_plain_objects():
    assert not is_kernel(lambda: None)
    assert not is_kernel(object())
    assert not is_kernel(None)


def test_shipped_kernels_carry_the_marker_at_runtime():
    # The AST scan (lint) and the runtime attribute must agree.
    from repro.accel.kernels import deadline_scan
    from repro.phy.error_model import PacketErrorModel

    assert is_kernel(deadline_scan)
    assert is_kernel(PacketErrorModel.success_probabilities)
    assert is_kernel(PacketErrorModel.transmit_batch)


def test_kernel_batch_form_registers_and_classifies():
    from repro.lint.contracts import (
        is_batch_kernel, registered_kernels, kernel as kernel_decorator,
    )

    @kernel_decorator
    def batched(x):
        return x

    @kernel_decorator(batch=False)
    def scalar(x):
        return x

    assert is_kernel(batched) and is_batch_kernel(batched)
    assert is_kernel(scalar) and not is_batch_kernel(scalar)
    infos = {info.func: info for info in registered_kernels()}
    assert infos[batched].batch is True
    assert infos[scalar].batch is False
    assert infos[batched].qualname.endswith("batched")


def test_registry_covers_the_shipped_accel_kernels():
    from repro.accel.kernels import deadline_scan
    from repro.lint.contracts import registered_kernels

    funcs = [info.func for info in registered_kernels()]
    assert deadline_scan in funcs


def test_shared_frame_bodies_are_per_frame_kernels():
    # Every frame path calls these bodies once per frame (or per slot), so
    # they are marked scalar: the dispatch counter must not count them.
    from repro.core.allocator import CSIRankedAllocator
    from repro.lint.contracts import is_batch_kernel
    from repro.mac.base import MACProtocol
    from repro.mac.drma import DRMAProtocol
    from repro.mac.rama import RAMAProtocol
    from repro.mac.request_queue import RequestQueue
    from repro.mac.reservation import ReservationTable
    from repro.sim.macro import MacroRunner

    for body in (
        MACProtocol.run_frame,
        MACProtocol.serve_fcfs,
        DRMAProtocol.serve_slots,
        CSIRankedAllocator.allocate,
        RAMAProtocol.run_auction,
        RequestQueue.prune,
        ReservationTable.live_holders,
        MacroRunner._emit_frame,
    ):
        assert is_kernel(body), body.__qualname__
        assert not is_batch_kernel(body), body.__qualname__
