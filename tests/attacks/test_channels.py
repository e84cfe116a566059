"""End-to-end channel tests: every attack must work when its defence is
off and carry (numerically) nothing when the defence is on.

These are the paper's defence claims, each exercised at reduced scale to
stay fast; the full-scale sweeps live in benchmarks/.
"""

import pytest

from repro.attacks import (
    event_timing,
    flushreload,
    interconnect_channel,
    irq_channel,
    occupancy,
    primeprobe,
    switch_latency,
)
from repro.hardware import presets
from repro.kernel import TimeProtectionConfig

FULL = TimeProtectionConfig.full()
NONE = TimeProtectionConfig.none()

CLOSED_BITS = 1e-3


def two_core():
    return presets.tiny_machine(n_cores=2)


@pytest.mark.slow
class TestPrimeProbeL1:
    # Low-numbered sets overlap the spy's own deterministic kernel-data
    # pollution, so the fast tests use upper-half sets; the full-range
    # sweep (with its honestly lower capacity) lives in the benchmarks.
    def test_open_without_protection(self):
        result = primeprobe.l1_experiment(
            NONE, presets.tiny_machine, symbols=[4, 7], rounds_per_run=6
        )
        assert result.capacity_bits() > 0.5

    def test_closed_with_protection(self):
        result = primeprobe.l1_experiment(
            FULL, presets.tiny_machine, symbols=[4, 7], rounds_per_run=6
        )
        assert result.capacity_bits() < CLOSED_BITS

    def test_flush_alone_closes_l1_channel(self):
        # L1 caches have one colour; flushing is the operative mechanism.
        tp = TimeProtectionConfig.none().without(
            flush_on_switch=True, pad_switch=True
        )
        result = primeprobe.l1_experiment(
            tp, presets.tiny_machine, symbols=[4, 7], rounds_per_run=6
        )
        assert result.capacity_bits() < CLOSED_BITS


@pytest.mark.slow
class TestPrimeProbeLlc:
    def test_open_without_colouring(self):
        result = primeprobe.llc_experiment(
            NONE, two_core, symbols=[1, 6], rounds_per_run=5
        )
        assert result.capacity_bits() > 0.9
        assert result.decode_accuracy() == 1.0

    def test_closed_with_colouring(self):
        result = primeprobe.llc_experiment(
            FULL, two_core, symbols=[1, 6], rounds_per_run=5
        )
        assert result.capacity_bits() < CLOSED_BITS

    def test_colouring_alone_suffices_cross_core(self):
        tp = TimeProtectionConfig.none().without(cache_colouring=True)
        result = primeprobe.llc_experiment(
            tp, two_core, symbols=[1, 6], rounds_per_run=5
        )
        assert result.capacity_bits() < CLOSED_BITS


class TestFlushReload:
    def test_open_without_clone(self):
        result = flushreload.experiment(NONE, presets.tiny_machine)
        assert result.capacity_bits() > 0.9

    def test_closed_with_clone(self):
        result = flushreload.experiment(FULL, presets.tiny_machine)
        assert result.capacity_bits() < CLOSED_BITS

    def test_open_with_everything_but_clone(self):
        # "Even read-only sharing of code is sufficient": all other
        # mechanisms on, cloning off, the channel remains.
        tp = TimeProtectionConfig.full().without(kernel_clone=False)
        result = flushreload.experiment(tp, presets.tiny_machine)
        assert result.capacity_bits() > 0.5


class TestOccupancy:
    def test_open_without_protection(self):
        result = occupancy.experiment(
            NONE, presets.tiny_machine, symbols=[1, 10], rounds_per_run=5
        )
        assert result.capacity_bits() > 0.5

    def test_closed_with_protection(self):
        result = occupancy.experiment(
            FULL, presets.tiny_machine, symbols=[1, 10], rounds_per_run=5
        )
        assert result.capacity_bits() < CLOSED_BITS


class TestEventTiming:
    def test_open_without_padded_ipc(self):
        result = event_timing.experiment(
            NONE, presets.tiny_machine, symbols=[0, 8], messages_per_run=4
        )
        assert result.capacity_bits() > 0.9

    def test_closed_with_padded_ipc(self):
        tp = TimeProtectionConfig.full(padded_ipc=True)
        result = event_timing.experiment(
            tp, presets.tiny_machine, symbols=[0, 8], messages_per_run=4
        )
        assert result.capacity_bits() < CLOSED_BITS

    def test_label_names_each_mechanism_once(self):
        tp = TimeProtectionConfig.full(padded_ipc=True)
        result = event_timing.experiment(
            tp, presets.tiny_machine, symbols=[0, 8], messages_per_run=2
        )
        mechanisms = result.tp_label.removeprefix("TP:").split(",")
        assert mechanisms == list(tp.enabled_mechanisms())
        assert "padded_ipc" in mechanisms

    def test_switch_padding_alone_does_not_close_it(self):
        # The E1 channel is in the *delivery time*, not the switch cost:
        # full TP without padded IPC still leaks.
        result = event_timing.experiment(
            FULL, presets.tiny_machine, symbols=[0, 8], messages_per_run=4
        )
        assert result.capacity_bits() > 0.5


class TestIrqChannel:
    def test_open_without_partitioning(self):
        result = irq_channel.experiment(NONE, presets.tiny_machine)
        assert result.capacity_bits() > 0.5

    def test_closed_with_partitioning(self):
        result = irq_channel.experiment(FULL, presets.tiny_machine)
        assert result.capacity_bits() < CLOSED_BITS


class TestSwitchLatency:
    def test_open_with_flush_but_no_padding(self):
        tp = TimeProtectionConfig.none().without(flush_on_switch=True)
        result = switch_latency.experiment(
            tp, presets.tiny_machine, symbols=[1, 14], rounds_per_run=6
        )
        assert result.capacity_bits() > 0.5

    def test_closed_with_padding(self):
        result = switch_latency.experiment(
            FULL, presets.tiny_machine, symbols=[1, 14], rounds_per_run=6
        )
        assert result.capacity_bits() < CLOSED_BITS


class TestInterconnect:
    def test_survives_full_protection(self):
        # The declared limitation (Sect. 2): the stateless interconnect
        # channel is NOT closed by time protection.
        result = interconnect_channel.experiment(FULL, presets.contended_machine)
        assert result.capacity_bits() > 0.3

    def test_mba_does_not_close_it(self):
        result = interconnect_channel.experiment(
            FULL, lambda: presets.contended_machine(mba=True)
        )
        assert result.capacity_bits() > 0.3
