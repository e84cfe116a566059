"""Tests for unwinding, case split, the time-function footprints and the
assembled proof."""

import pytest

from repro.core import (
    TimeProtectionProof,
    audit,
    check_confinement,
    check_unwinding,
    dependency_profile,
    format_report,
    prove_time_protection,
)
from repro.hardware import Evidence, presets
from repro.kernel import TimeProtectionConfig

from tests.conftest import (
    MAX_CYCLES,
    boot_two_domain_system,
    build_two_domain_system,
)


def build(secret, tp=None, **kwargs):
    return build_two_domain_system(
        secret, tp or TimeProtectionConfig.full(),
        evidence=Evidence.everything(), **kwargs
    )


def boot(secret, tp=None, **kwargs):
    return boot_two_domain_system(
        secret, tp or TimeProtectionConfig.full(), **kwargs
    )


def prove(builder, secrets):
    return prove_time_protection(
        builder, secrets=secrets, observer="Lo", max_cycles=MAX_CYCLES
    )


class TestUnwinding:
    def test_passes_with_full_protection(self):
        kernel = build(3)
        check = check_unwinding(kernel, "Lo")
        assert check.passed, str(check)
        assert check.switches_into_observer > 0

    def test_fails_without_padding(self):
        kernel = build(3, TimeProtectionConfig.full().without(pad_switch=False))
        check = check_unwinding(kernel, "Lo")
        assert not check.passed
        assert any("unpadded" in f for f in check.failures)

    def test_fails_without_flush(self):
        kernel = build(3, TimeProtectionConfig.full().without(flush_on_switch=False))
        check = check_unwinding(kernel, "Lo")
        assert not check.passed

    def test_unknown_observer_raises(self):
        kernel = build(3)
        with pytest.raises(KeyError):
            check_unwinding(kernel, "Nobody")


class TestTimeFunctionWitnesses:
    def test_witnesses_captured(self):
        kernel = build(3)
        assert kernel.case_log
        cases = {case for case, _context, _footprint in kernel.case_log}
        assert {"1", "2a", "2b"} <= cases
        assert all(footprint for case, _c, footprint in kernel.case_log
                   if case == "1")

    def test_confinement_holds_with_protection(self):
        kernel = build(3)
        report = check_confinement(kernel)
        assert report.confined, report.violations[:3]
        assert report.confined_steps == report.total_steps

    def test_confinement_fails_without_clone(self):
        kernel = build(3, TimeProtectionConfig.full().without(kernel_clone=False))
        report = check_confinement(kernel)
        # Syscall handlers fetch the shared master image, whose frames sit
        # in the kernel colour -- still entitled for case 2a.  But user
        # flush+reload style touches would violate; at minimum the report
        # runs and counts all steps.
        assert report.total_steps > 0

    def test_dependency_profile_shapes(self):
        kernel = build(3)
        profile = dependency_profile(kernel)
        assert "1" in profile
        # User steps read the I-cache (fetch) and TLB at least.
        assert any("l1i" in element for element in profile["1"])
        # Each step counts once per element it read, whatever the index.
        expected = {}
        for case, _context, footprint in kernel.case_log:
            for element in {name for name, _index, _kind in footprint}:
                bucket = expected.setdefault(case, {})
                bucket[element] = bucket.get(element, 0) + 1
        assert profile == expected

    def test_dependency_profile_requires_footprints(self):
        kernel = build_two_domain_system(3, TimeProtectionConfig.full())
        with pytest.raises(ValueError, match="dependency profile"):
            dependency_profile(kernel)


class TestCaseSplit:
    def test_audit_passes_with_protection(self):
        kernel = build(3)
        result = audit(kernel)
        assert result.passed, str(result)
        assert result.result_for("1").steps > 0
        assert result.result_for("2a").steps > 0
        assert result.result_for("2b").steps > 0

    def test_audit_requires_footprints(self):
        kernel = build_two_domain_system(3, TimeProtectionConfig.full())
        with pytest.raises(ValueError):
            audit(kernel)

    def test_case_2b_fails_without_padding(self):
        kernel = build(3, TimeProtectionConfig.full().without(pad_switch=False))
        result = audit(kernel)
        assert not result.result_for("2b").passed

    def test_observer_restriction(self):
        kernel = build(3)
        result = audit(kernel, observer="Lo")
        full = audit(kernel)
        assert result.result_for("1").steps <= full.result_for("1").steps


class TestAssembledProof:
    def test_theorem_holds_on_protected_system(self):
        report = prove(boot, [1, 7, 13])
        assert report.holds
        assert not report.failed_obligations()
        text = format_report(report)
        assert "THEOREM HOLDS" in text

    def test_theorem_fails_without_protection(self):
        report = prove(lambda s: boot(s, TimeProtectionConfig.none()), [1, 7])
        assert not report.holds
        assert report.failed_obligations()
        assert report.counterexamples()
        assert "THEOREM FAILS" in format_report(report, verbose=True)

    def test_single_mechanism_ablation_breaks_proof(self):
        for flag in (
            "cache_colouring",
            "kernel_clone",
            "flush_on_switch",
            "pad_switch",
        ):
            tp = TimeProtectionConfig.full().without(**{flag: False})
            report = prove(lambda s, tp=tp: boot(s, tp), [1, 7])
            assert not report.holds, f"ablating {flag} should break the proof"

    def test_proof_requires_two_secrets(self):
        with pytest.raises(ValueError):
            TimeProtectionProof(
                boot, secrets=[1], observer="Lo", max_cycles=MAX_CYCLES
            )

    def test_report_names_assumptions(self):
        report = prove(boot, [1, 7])
        assert any("interconnect" in a for a in report.assumptions)
        assert any("padding" in a.lower() for a in report.assumptions)

    def test_nonconforming_hardware_noted(self):
        report = prove(
            lambda s: boot(s, machine_factory=presets.tiny_unflushable_machine),
            [1, 7],
        )
        assert not report.holds
        assert any("aISA" in note or "contract" in note for note in report.notes)
