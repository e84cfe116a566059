"""Unit tests for the padded domain-switch path."""

import pytest

from repro.hardware import Evidence, presets
from repro.kernel import Kernel, TimeProtectionConfig
from repro.kernel.switch import estimate_pad_cycles


def boot_kernel(tp, machine=None, evidence=Evidence(switches=True)):
    machine = machine or presets.tiny_machine()
    kernel = Kernel(machine, tp)
    kernel.declare(evidence)
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=2000)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=2000)
    return machine, kernel, hi, lo


def execute_switch(kernel, machine, hi, lo, dirty_lines=0):
    core = machine.cores[0]
    for line in range(dirty_lines):
        core.l1d.access(line * 32, write=True)
    scheduled_at = core.clock.now
    return kernel.switch_path.execute(core, hi, lo, scheduled_at)


class TestFlushOnSwitch:
    def test_all_flushables_flushed(self):
        machine, kernel, hi, lo = boot_kernel(TimeProtectionConfig.full())
        record = execute_switch(kernel, machine, hi, lo, dirty_lines=4)
        expected = {e.name for e in machine.flushable_elements_of_core(0)}
        assert set(record.flushed_elements) == expected
        for name in record.flushed_elements:
            assert (
                record.post_flush_fingerprints[name]
                == record.reset_fingerprints[name]
            )

    def test_no_flush_when_disabled(self):
        machine, kernel, hi, lo = boot_kernel(
            TimeProtectionConfig.full().without(flush_on_switch=False)
        )
        record = execute_switch(kernel, machine, hi, lo)
        assert record.flushed_elements == ()
        assert record.flush_cycles == 0

    def test_flush_cycles_grow_with_dirty_lines(self):
        machine_a, kernel_a, hi_a, lo_a = boot_kernel(TimeProtectionConfig.full())
        clean = execute_switch(kernel_a, machine_a, hi_a, lo_a, dirty_lines=0)
        machine_b, kernel_b, hi_b, lo_b = boot_kernel(TimeProtectionConfig.full())
        dirty = execute_switch(kernel_b, machine_b, hi_b, lo_b, dirty_lines=12)
        assert dirty.flush_cycles > clean.flush_cycles
        assert dirty.lines_written_back == 12


class TestPadding:
    def test_padded_release_is_constant(self):
        machine, kernel, hi, lo = boot_kernel(TimeProtectionConfig.full())
        record = execute_switch(kernel, machine, hi, lo, dirty_lines=8)
        assert record.pad_target == record.scheduled_at + hi.pad_cycles
        assert record.released_at == record.pad_target
        assert record.overrun is False

    def test_unpadded_release_varies_with_history(self):
        tp = TimeProtectionConfig.full().without(pad_switch=False)
        machine_a, kernel_a, hi_a, lo_a = boot_kernel(tp)
        clean = execute_switch(kernel_a, machine_a, hi_a, lo_a, dirty_lines=0)
        machine_b, kernel_b, hi_b, lo_b = boot_kernel(tp)
        dirty = execute_switch(kernel_b, machine_b, hi_b, lo_b, dirty_lines=12)
        assert clean.pad_target is None
        assert dirty.switch_latency != clean.switch_latency

    def test_insufficient_pad_flagged_as_overrun(self):
        machine = presets.tiny_machine()
        kernel = Kernel(machine, TimeProtectionConfig.full())
        hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=2000,
                                  pad_cycles=10)
        lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=2000,
                                  pad_cycles=10)
        record = execute_switch(kernel, machine, hi, lo, dirty_lines=8)
        assert record.overrun is True
        assert record.released_at > record.pad_target

    def test_pad_is_attribute_of_switched_from_domain(self):
        machine = presets.tiny_machine()
        kernel = Kernel(machine, TimeProtectionConfig.full())
        hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=2000,
                                  pad_cycles=50_000)
        lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=2000)
        record = execute_switch(kernel, machine, hi, lo)
        assert record.pad_target == record.scheduled_at + 50_000


class TestEvidence:
    def test_colour_fingerprints_recorded(self):
        machine, kernel, hi, lo = boot_kernel(TimeProtectionConfig.full())
        record = execute_switch(kernel, machine, hi, lo)
        assert set(record.llc_colour_fingerprints) == set(range(machine.n_colours))

    def test_fingerprints_skippable_for_speed(self):
        machine, kernel, hi, lo = boot_kernel(
            TimeProtectionConfig.full(), evidence=Evidence()
        )
        record = execute_switch(kernel, machine, hi, lo, dirty_lines=4)
        assert record.llc_colour_fingerprints == {}
        assert record.llc_owner_fingerprints == {}
        assert record.post_flush_fingerprints == {}
        assert record.reset_fingerprints == {}
        # The flush itself still happens: only the snapshots are skipped.
        assert set(record.flushed_elements) == {
            e.name for e in machine.flushable_elements_of_core(0)
        }

    def test_kernel_data_sweep_normalises_shared_colour(self):
        machine, kernel, hi, lo = boot_kernel(TimeProtectionConfig.full())
        first = execute_switch(kernel, machine, hi, lo)
        # Pollute nothing kernel-coloured (user frames are non-zero
        # colours); run a second switch and compare the kernel colour.
        second = kernel.switch_path.execute(
            machine.cores[0], lo, hi, machine.cores[0].clock.now
        )
        kernel_colour = next(iter(kernel.allocator.kernel_colours))
        assert (
            first.llc_colour_fingerprints[kernel_colour]
            == second.llc_colour_fingerprints[kernel_colour]
        )


class TestPadEstimate:
    def test_estimate_covers_observed_switches(self):
        machine, kernel, hi, lo = boot_kernel(TimeProtectionConfig.full())
        record = execute_switch(kernel, machine, hi, lo, dirty_lines=16)
        worst_observed = record.finished_at - record.entered_at
        assert kernel.pad_wcet_estimate > worst_observed

    def test_estimate_scales_with_machine(self):
        tiny = estimate_pad_cycles(presets.tiny_machine(), kernel_data_lines=16)
        desktop = estimate_pad_cycles(presets.desktop_machine(), kernel_data_lines=128)
        assert desktop > tiny
