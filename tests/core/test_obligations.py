"""Tests for the proof-obligation engine: each obligation must pass on a
fully protected system and detect its own specific violation."""

import pytest

from repro.core import check_all
from repro.core.absmodel import AbstractHardwareModel
from repro.core.obligations import (
    po1_complete_management,
    po2_partitioning,
    po3_flush_on_switch,
    po4_constant_time_switch,
    po5_padding_sufficient,
    po6_interrupt_partitioning,
    po7_kernel_shared_determinism,
)
from repro.hardware import Evidence, presets
from repro.kernel import TimeProtectionConfig

from tests.conftest import build_two_domain_system


def audited_system(secret, tp, **kwargs):
    """The standard system, run recording everything the obligations read."""
    return build_two_domain_system(
        secret, tp, evidence=Evidence.everything(), **kwargs
    )


@pytest.fixture(scope="module")
def protected_kernel():
    return audited_system(secret=3, tp=TimeProtectionConfig.full())


class TestAllPassOnProtectedSystem:
    def test_every_obligation_passes(self, protected_kernel):
        results = check_all(protected_kernel)
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(str(r) for r in failed)

    def test_obligation_ids_complete(self, protected_kernel):
        results = check_all(protected_kernel)
        assert [r.obligation_id for r in results] == [
            f"PO-{i}" for i in range(1, 8)
        ]


class TestPo1:
    def test_fails_on_smt(self):
        model = AbstractHardwareModel.from_machine(presets.tiny_smt_machine())
        result = po1_complete_management(model)
        assert not result.passed
        assert any("l1d" in v for v in result.violations)

    def test_fails_on_unflushable(self):
        model = AbstractHardwareModel.from_machine(
            presets.tiny_unflushable_machine()
        )
        result = po1_complete_management(model)
        assert not result.passed
        assert any("prefetcher" in v for v in result.violations)


class TestPo2:
    def test_fails_without_colouring(self):
        kernel = audited_system(
            secret=3, tp=TimeProtectionConfig.full().without(cache_colouring=False)
        )
        result = po2_partitioning(kernel)
        assert not result.passed

    def test_fails_without_clone(self):
        kernel = audited_system(
            secret=3, tp=TimeProtectionConfig.full().without(kernel_clone=False)
        )
        result = po2_partitioning(kernel)
        assert not result.passed
        assert any("kernel-image" in v for v in result.violations)


class TestPo3:
    def test_fails_without_flush(self):
        kernel = audited_system(
            secret=3, tp=TimeProtectionConfig.full().without(flush_on_switch=False)
        )
        result = po3_flush_on_switch(kernel)
        assert not result.passed

    def test_fails_with_broken_flush_hardware(self):
        kernel = audited_system(
            secret=3,
            tp=TimeProtectionConfig.full(),
            machine_factory=presets.tiny_broken_flush_machine,
        )
        result = po3_flush_on_switch(kernel)
        assert not result.passed
        assert any("did not reach reset state" in v for v in result.violations)


class TestPo4Po5:
    def test_po4_fails_without_padding(self):
        kernel = audited_system(
            secret=3, tp=TimeProtectionConfig.full().without(pad_switch=False)
        )
        result = po4_constant_time_switch(kernel)
        assert not result.passed

    def test_po5_fails_with_tiny_pad(self):
        kernel = audited_system(
            secret=3, tp=TimeProtectionConfig.full(), pad_cycles=5
        )
        result = po5_padding_sufficient(kernel)
        assert not result.passed
        assert any("overrun" in v.lower() or ">" in v for v in result.violations)

    def test_po4_reports_deviating_latency_with_tiny_pad(self):
        kernel = audited_system(
            secret=3, tp=TimeProtectionConfig.full(), pad_cycles=5
        )
        result = po4_constant_time_switch(kernel)
        assert not result.passed


class TestPo6:
    def test_fails_when_partitioning_disabled_and_irqs_fire(self):
        from repro.hardware import Compute, Halt, ReadTime, Syscall

        def trojan(ctx):
            yield Syscall("io_submit", (3, 4000, 0))
            while True:
                yield Compute(50)

        def observer(ctx):
            for _ in range(200):
                yield ReadTime()
            yield Halt()

        from repro.kernel import Kernel

        machine = presets.tiny_machine()
        kernel = Kernel(machine, TimeProtectionConfig.none())
        hi = kernel.create_domain("Hi", slice_cycles=3000, irq_lines=())
        lo = kernel.create_domain("Lo", slice_cycles=3000)
        kernel.irq_policy.enabled = True  # assign ownership for the audit
        kernel.irq_policy.assign(3, hi)
        kernel.irq_policy.enabled = False
        kernel.create_thread(hi, trojan)
        kernel.create_thread(lo, observer)
        kernel.set_schedule(0, [(hi, None), (lo, None)])
        kernel.run(max_cycles=300_000)
        result = po6_interrupt_partitioning(kernel)
        assert not result.passed


class TestPo7:
    def test_fails_without_clone_under_colouring(self):
        # Without cloning, domain syscall activity leaves master-image
        # lines in the kernel's shared colour: the post-switch state of
        # that colour then depends on history.
        kernel = audited_system(
            secret=3, tp=TimeProtectionConfig.full().without(kernel_clone=False)
        )
        result = po7_kernel_shared_determinism(kernel)
        assert not result.passed
