"""Whole-system determinism: identical builds produce identical worlds.

Determinism is load-bearing for everything in this reproduction -- the
noninterference results are only meaningful if the *sole* source of
difference between two runs is the secret.
"""

from repro.hardware import Evidence
from repro.kernel import TimeProtectionConfig

from tests.conftest import build_two_domain_system


def full_world(kernel):
    return (
        kernel.observation_trace("Hi"),
        kernel.observation_trace("Lo"),
        [
            (r.from_domain, r.to_domain, r.scheduled_at, r.released_at)
            for r in kernel.switch_records
        ],
        kernel.machine.fingerprint_all(),
        [c.clock.now for c in kernel.machine.cores],
    )


class TestDeterminism:
    def test_identical_builds_identical_worlds_tp_on(self):
        a = build_two_domain_system(5, TimeProtectionConfig.full())
        b = build_two_domain_system(5, TimeProtectionConfig.full())
        assert full_world(a) == full_world(b)

    def test_identical_builds_identical_worlds_tp_off(self):
        a = build_two_domain_system(5, TimeProtectionConfig.none())
        b = build_two_domain_system(5, TimeProtectionConfig.none())
        assert full_world(a) == full_world(b)

    def test_different_secrets_change_hi_world(self):
        a = build_two_domain_system(5, TimeProtectionConfig.full())
        b = build_two_domain_system(6, TimeProtectionConfig.full())
        assert a.observation_trace("Hi") != b.observation_trace("Hi")

    def test_switch_releases_are_schedule_aligned_under_padding(self):
        kernel = build_two_domain_system(5, TimeProtectionConfig.full())
        for record in kernel.switch_records:
            assert record.released_at == record.scheduled_at + (
                kernel.domains[record.from_domain].pad_cycles
            )

    def test_footprint_capture_does_not_change_timing(self):
        plain = build_two_domain_system(
            5, TimeProtectionConfig.full(), evidence=Evidence()
        )
        audited = build_two_domain_system(
            5, TimeProtectionConfig.full(), evidence=Evidence.everything()
        )
        assert plain.observation_trace("Lo") == audited.observation_trace("Lo")
        assert [c.clock.now for c in plain.machine.cores] == [
            c.clock.now for c in audited.machine.cores
        ]
