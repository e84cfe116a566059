"""Unit tests for IPC endpoints (padded delivery) and IRQ partitioning."""

import pytest

from repro.hardware.interrupts import InterruptController, PREEMPTION_TIMER_IRQ
from repro.kernel.ipc import EndpointTable
from repro.kernel.irq_policy import IrqPartitionPolicy
from repro.kernel.objects import Domain


def make_domain(name):
    return Domain(name=name, domain_id=1, colours={1}, slice_cycles=1000,
                  pad_cycles=100)


class TestEndpointTable:
    def test_unpadded_delivery_is_immediate(self):
        table = EndpointTable(padded_ipc=False)
        endpoint = table.create("e", min_exec_cycles=5000)
        message = table.enqueue(endpoint, 42, "Hi", now=1234, sender_slice_start=1000)
        assert message.visible_at == 1234

    def test_padded_delivery_waits_for_min_exec(self):
        table = EndpointTable(padded_ipc=True)
        endpoint = table.create("e", min_exec_cycles=5000)
        message = table.enqueue(endpoint, 42, "Hi", now=1234, sender_slice_start=1000)
        assert message.visible_at == 6000

    def test_padded_delivery_never_travels_back(self):
        table = EndpointTable(padded_ipc=True)
        endpoint = table.create("e", min_exec_cycles=100)
        message = table.enqueue(endpoint, 42, "Hi", now=9999, sender_slice_start=0)
        assert message.visible_at == 9999

    def test_receive_respects_visibility(self):
        table = EndpointTable(padded_ipc=True)
        endpoint = table.create("e", min_exec_cycles=5000)
        table.enqueue(endpoint, 42, "Hi", now=100, sender_slice_start=0)
        assert table.try_receive(endpoint.endpoint_id, now=100) is None
        assert table.try_receive(endpoint.endpoint_id, now=5000) == 42

    def test_fifo_order(self):
        table = EndpointTable(padded_ipc=False)
        endpoint = table.create("e")
        table.enqueue(endpoint, 1, "Hi", 10, 0)
        table.enqueue(endpoint, 2, "Hi", 20, 0)
        assert table.try_receive(endpoint.endpoint_id, 30) == 1
        assert table.try_receive(endpoint.endpoint_id, 30) == 2

    def test_earliest_visibility(self):
        table = EndpointTable(padded_ipc=True)
        e1 = table.create("a", min_exec_cycles=5000)
        e2 = table.create("b", min_exec_cycles=9000)
        table.enqueue(e1, 1, "Hi", now=0, sender_slice_start=0)
        table.enqueue(e2, 2, "Hi", now=0, sender_slice_start=0)
        assert table.earliest_visibility(now=0) == 5000

    def test_unknown_endpoint_raises(self):
        table = EndpointTable(padded_ipc=False)
        with pytest.raises(KeyError):
            table.get(999)


class TestIrqPartitionPolicy:
    def test_assignment_exclusive(self):
        policy = IrqPartitionPolicy(enabled=True, n_lines=8)
        hi, lo = make_domain("Hi"), make_domain("Lo")
        policy.assign(3, hi)
        with pytest.raises(ValueError):
            policy.assign(3, lo)

    def test_timer_line_not_assignable(self):
        policy = IrqPartitionPolicy(enabled=True, n_lines=8)
        with pytest.raises(ValueError):
            policy.assign(PREEMPTION_TIMER_IRQ, make_domain("Hi"))

    def test_may_submit_owner_only_when_enabled(self):
        policy = IrqPartitionPolicy(enabled=True, n_lines=8)
        hi, lo = make_domain("Hi"), make_domain("Lo")
        policy.assign(3, hi)
        assert policy.may_submit(hi, 3) is True
        assert policy.may_submit(lo, 3) is False

    def test_may_submit_anything_when_disabled(self):
        policy = IrqPartitionPolicy(enabled=False, n_lines=8)
        assert policy.may_submit(make_domain("Lo"), 3) is True

    def test_apply_masks_partitioned(self):
        policy = IrqPartitionPolicy(enabled=True, n_lines=8)
        hi = make_domain("Hi")
        policy.assign(3, hi)
        irq = InterruptController(n_lines=8)
        policy.apply_masks(irq, hi)
        assert not irq.is_masked(3)
        assert not irq.is_masked(PREEMPTION_TIMER_IRQ)
        assert irq.is_masked(5)
        lo = make_domain("Lo")
        policy.apply_masks(irq, lo)
        assert irq.is_masked(3)

    def test_apply_masks_disabled_unmasks_all(self):
        policy = IrqPartitionPolicy(enabled=False, n_lines=8)
        irq = InterruptController(n_lines=8)
        irq.mask(4)
        policy.apply_masks(irq, make_domain("Lo"))
        assert all(not irq.is_masked(line) for line in range(8))
