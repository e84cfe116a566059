"""Failure injection: the obligations catch buggy kernels, not just
disabled mechanisms.

A proof checker is only worth its name if it cannot be satisfied
vacuously.  Each test here plants one specific *implementation bug* in an
otherwise fully-configured kernel -- a forgotten flush, an early release,
a mis-coloured frame, a leaked IRQ unmask -- and requires the matching
obligation to fail and name it.
"""

import pytest

from repro.core import check_all
from repro.core.obligations import (
    po2_partitioning,
    po3_flush_on_switch,
    po4_constant_time_switch,
    po6_interrupt_partitioning,
)
from repro.hardware import Evidence, presets
from repro.kernel import Kernel, TimeProtectionConfig

from tests.conftest import (
    build_two_domain_system,
    secret_striding_trojan,
    timing_observer,
)


def build_with(patch, machine_factory=presets.tiny_machine, run_cycles=300_000):
    """Standard system with a bug-planting hook applied before the run."""
    machine = machine_factory()
    kernel = Kernel(machine, TimeProtectionConfig.full())
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=3000)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=3000)
    kernel.create_thread(hi, secret_striding_trojan, params={"secret": 5})
    kernel.create_thread(lo, timing_observer)
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    kernel.declare(Evidence.everything())
    patch(kernel)
    kernel.run(max_cycles=run_cycles)
    return kernel


class TestForgottenFlush:
    def test_po3_catches_a_skipped_element(self):
        def plant(kernel):
            original = kernel.machine.flushable_elements_of_core

            def buggy(core_id):
                # "Forgets" the TLB on every switch.
                return [
                    element
                    for element in original(core_id)
                    if not element.name.endswith(".tlb")
                ]

            kernel.switch_path.machine.flushable_elements_of_core = buggy

        kernel = build_with(plant)
        # Restore the truthful view for the audit itself.
        kernel.switch_path.machine.flushable_elements_of_core = type(
            kernel.machine
        ).flushable_elements_of_core.__get__(kernel.machine)
        result = po3_flush_on_switch(kernel)
        assert not result.passed
        assert any("tlb" in violation for violation in result.violations)


class TestEarlyRelease:
    def test_po4_catches_a_shortened_pad(self):
        def plant(kernel):
            original = kernel.switch_path.execute

            def buggy(core, from_domain, to_domain, scheduled_at):
                record = original(core, from_domain, to_domain, scheduled_at)
                # A "clever optimisation": report release at the pad
                # target but cut the actual pad short next time by
                # shrinking the domain's pad attribute mid-flight.
                from_domain.pad_cycles = max(100, from_domain.pad_cycles - 4000)
                return record

            kernel.switch_path.execute = buggy

        kernel = build_with(plant)
        result = po4_constant_time_switch(kernel)
        assert not result.passed
        assert any("!= pad" in violation for violation in result.violations)


class TestMiscolouredFrame:
    def test_po2_catches_cross_partition_allocation(self):
        def plant(kernel):
            # The allocator "helpfully" hands Lo one of Hi's frames for
            # its next mapping: map a Hi-coloured frame into Lo's space.
            hi = kernel.domains["Hi"]
            lo = kernel.domains["Lo"]
            frame = kernel.allocator.alloc_for_domain(hi.name, 1)[0]
            lo_tcb = lo.threads[0]
            # Replace the first data page with the foreign-coloured frame.
            lo_tcb.space.map(0x0100_0000, frame, writable=True)

        kernel = build_with(plant)
        result = po2_partitioning(kernel)
        assert not result.passed
        assert any(
            "Lo" in violation and "outside allowed" in violation
            for violation in result.violations
        )


class TestLeakedUnmask:
    def test_po6_catches_a_mask_bypass(self):
        def plant(kernel):
            # IRQ partitioning "enabled", but a driver bug leaves every
            # line unmasked whenever masks are (re)programmed.
            def buggy_apply(irq, running):
                irq.set_mask_all_except(set(range(irq.n_lines)))

            kernel.irq_policy.apply_masks = buggy_apply
            # A stream of device completions; with the mask bypass, some
            # inevitably land while the non-owner (Lo) is running.
            kernel.irq_policy.assign(3, kernel.domains["Hi"])
            for index in range(40):
                kernel.machine.cores[0].irq.schedule(
                    line=3, fire_time=5_000 + index * 2_777
                )
            kernel.irq_policy.apply_masks(
                kernel.machine.cores[0].irq, kernel.domains["Hi"]
            )

        kernel = build_with(plant)
        result = po6_interrupt_partitioning(kernel)
        assert not result.passed
        assert any("owner" in violation for violation in result.violations)


class TestBugFreeBaseline:
    def test_unpatched_system_passes_everything(self):
        kernel = build_with(lambda kernel: None)
        results = check_all(kernel)
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(str(r) for r in failed)
