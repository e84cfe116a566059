"""E9 integration: on contract-violating hardware the proof fails for the
right reason AND a channel demonstrably remains despite full TP.

This is the paper's central conditional made testable: "for hardware
that honours this contract, we will be able to achieve our aim of proving
time protection" -- and, contrapositively, hardware that does not honour
it defeats both the proof and the protection.
"""

import pytest

from repro.core import check_all, prove_time_protection
from repro.core.absmodel import AbstractHardwareModel
from repro.hardware import Access, Compute, Evidence, Halt, ReadTime, presets
from repro.kernel import Kernel, TimeProtectionConfig

from tests.conftest import (
    MAX_CYCLES,
    boot_two_domain_system,
    build_two_domain_system,
)


class TestUnflushablePrefetcher:
    def test_proof_fails_naming_the_prefetcher(self):
        report = prove_time_protection(
            lambda s: boot_two_domain_system(
                s,
                TimeProtectionConfig.full(),
                machine_factory=presets.tiny_unflushable_machine,
            ),
            secrets=[1, 9],
            observer="Lo",
            max_cycles=MAX_CYCLES,
        )
        assert not report.holds
        po1 = report.obligations[0]
        assert not po1.passed
        assert any("prefetcher" in v for v in po1.violations)

    def test_prefetcher_state_survives_switches(self):
        kernel = build_two_domain_system(
            5,
            TimeProtectionConfig.full(),
            machine_factory=presets.tiny_unflushable_machine,
        )
        prefetcher = kernel.machine.cores[0].prefetcher
        assert prefetcher.fingerprint() != prefetcher.reset_fingerprint()


class TestBrokenFlush:
    def test_po3_catches_broken_hardware(self):
        kernel = build_two_domain_system(
            5,
            TimeProtectionConfig.full(),
            machine_factory=presets.tiny_broken_flush_machine,
            evidence=Evidence.everything(),
        )
        results = {r.obligation_id: r for r in check_all(kernel)}
        assert not results["PO-3"].passed

    def test_noninterference_violated_despite_full_tp(self):
        # Residue in the "flushed" L1D carries the secret across the
        # switch: the spy's traversal time differs between secrets.
        report = prove_time_protection(
            lambda s: boot_two_domain_system(
                s,
                TimeProtectionConfig.full(),
                machine_factory=presets.tiny_broken_flush_machine,
            ),
            secrets=[1, 9],
            observer="Lo",
            max_cycles=MAX_CYCLES,
        )
        assert not report.holds


class TestSmtMachine:
    def test_model_refuses_smt(self):
        model = AbstractHardwareModel.from_machine(presets.tiny_smt_machine())
        assert not model.conforms_to_aisa()

    def test_concurrent_l1_channel_despite_flushing(self):
        """Hyperthread trojan perturbs its sibling's L1 while both run --
        flushing at domain switches cannot help concurrent sharing."""

        def run(secret):
            machine = presets.tiny_smt_machine()
            kernel = Kernel(machine, TimeProtectionConfig.full())
            hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=50_000)
            lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=50_000)

            def trojan(ctx):
                while True:
                    for i in range(secret):
                        yield Access(
                            ctx.data_base + (i * ctx.line_size) % ctx.data_size,
                            write=True,
                            value=i,
                        )
                    yield Compute(40)

            def spy(ctx):
                latencies = ctx.params["latencies"]
                for round_index in range(60):
                    t0 = yield ReadTime()
                    for i in range(8):
                        yield Access(ctx.data_base + i * ctx.line_size)
                    t1 = yield ReadTime()
                    latencies.append(t1.value - t0.value)
                yield Halt()

            latencies = []
            kernel.create_thread(hi, trojan, core_id=1)
            kernel.create_thread(lo, spy, core_id=0, params={"latencies": latencies})
            kernel.set_schedule(0, [(lo, None)])
            kernel.set_schedule(1, [(hi, None)])
            kernel.run(max_cycles=400_000)
            return latencies

        quiet = run(secret=1)
        noisy = run(secret=12)
        assert sum(noisy) > sum(quiet)


class TestNoColourLlc:
    def test_proof_fails_and_names_llc(self):
        report = prove_time_protection(
            lambda s: boot_two_domain_system(
                s,
                TimeProtectionConfig.full(),
                machine_factory=lambda: presets.tiny_nocolour_machine(n_cores=1),
            ),
            secrets=[1, 9],
            observer="Lo",
            max_cycles=MAX_CYCLES,
        )
        assert not report.holds
        po1 = report.obligations[0]
        assert any("llc" in v for v in po1.violations)
