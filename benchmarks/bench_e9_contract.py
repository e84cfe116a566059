"""E9 (Sects. 4.1/6): contract-violating hardware defeats the proof.

Paper claim: the proof is conditional on the hardware honouring the
security-oriented contract ("we are clearly at the mercy of processor
manufacturers here!").  On each violating machine the proof must fail,
the failure must name the violating element/mechanism, and -- where the
violation is exploitable inside this harness -- two-run interference must
actually be witnessed despite full TP.
"""

from repro.core import prove_time_protection
from repro.hardware import presets
from repro.kernel import TimeProtectionConfig

from _common import run_once

from tests.conftest import MAX_CYCLES, boot_two_domain_system

VIOLATIONS = [
    ("unflushable prefetcher", presets.tiny_unflushable_machine, "PO-1"),
    ("broken L1D flush", presets.tiny_broken_flush_machine, "PO-3"),
    ("single-colour LLC", lambda: presets.tiny_nocolour_machine(n_cores=1), "PO-1"),
]


def _prove_all():
    reports = {}
    for name, factory, _expected in VIOLATIONS:
        reports[name] = prove_time_protection(
            lambda s, factory=factory: boot_two_domain_system(
                s, TimeProtectionConfig.full(), machine_factory=factory
            ),
            secrets=[1, 9],
            observer="Lo",
            max_cycles=MAX_CYCLES,
        )
    return reports


def test_e9_contract_violations(benchmark):
    reports = run_once(benchmark, _prove_all)
    print("\n=== E9: proof outcomes on contract-violating hardware ===")
    print(f"{'machine':28s} {'verdict':10s} failed obligations")
    for (name, _factory, expected) in VIOLATIONS:
        report = reports[name]
        failed = [o.obligation_id for o in report.failed_obligations()]
        print(f"{name:28s} {'FAILS' if not report.holds else 'holds':10s} {failed}")
        assert not report.holds
        assert expected in failed, f"{name}: expected {expected} among {failed}"
    # The exploitable violations also produce live interference witnesses.
    assert any(
        not r.holds
        for r in reports["broken L1D flush"].noninterference
    )
    assert any(
        not r.holds
        for r in reports["unflushable prefetcher"].noninterference
    )
