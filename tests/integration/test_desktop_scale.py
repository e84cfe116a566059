"""The desktop-scale machine: everything still holds at realistic geometry.

The `desktop` preset is sized like a small x86 part (4 KiB pages, 64-set
8-way L1s, a 4 MiB 16-way LLC with 64 colours, 64-entry TLB).  These
tests re-establish the core results there, confirming nothing about the
tiny machine's geometry was load-bearing.
"""

import pytest

from repro.core import (
    AbstractHardwareModel,
    check_all,
    secret_swap_experiment,
)
from repro.hardware import Evidence, presets
from repro.kernel import TimeProtectionConfig

from tests.conftest import build_two_domain_system

pytestmark = pytest.mark.slow


def build(secret, tp=TimeProtectionConfig.full(), **kwargs):
    return build_two_domain_system(
        secret,
        tp,
        machine_factory=presets.desktop_machine,
        max_cycles=1_500_000,
        **kwargs,
    )


class TestDesktopScale:
    def test_model_extraction(self):
        machine = presets.desktop_machine()
        model = AbstractHardwareModel.from_machine(machine)
        assert model.conforms_to_aisa()
        assert model.element("llc").n_partitions == 64

    def test_pad_estimate_scales_with_geometry(self):
        from repro.kernel import Kernel

        tiny = Kernel(presets.tiny_machine())
        desktop = Kernel(presets.desktop_machine())
        assert desktop.pad_wcet_estimate > tiny.pad_wcet_estimate

    def test_obligations_pass(self):
        kernel = build(5, evidence=Evidence.everything())
        failed = [r for r in check_all(kernel) if not r.passed]
        assert not failed, "\n".join(str(r) for r in failed)

    def test_noninterference_holds(self):
        result = secret_swap_experiment(build, 3, 11, observer_domain="Lo")
        assert result.holds, str(result)

    def test_noninterference_fails_without_protection(self):
        result = secret_swap_experiment(
            lambda s: build(s, TimeProtectionConfig.none()),
            3,
            11,
            observer_domain="Lo",
        )
        assert not result.holds

    def test_l1_primeprobe_shape(self):
        from repro.attacks import primeprobe

        open_result = primeprobe.l1_experiment(
            TimeProtectionConfig.none(),
            presets.desktop_machine,
            symbols=[16, 48],
            rounds_per_run=5,
        )
        closed_result = primeprobe.l1_experiment(
            TimeProtectionConfig.full(),
            presets.desktop_machine,
            symbols=[16, 48],
            rounds_per_run=5,
        )
        assert open_result.capacity_bits() > 0.3
        assert closed_result.capacity_bits() < 1e-3
