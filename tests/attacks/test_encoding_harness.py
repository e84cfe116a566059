"""Tests for codecs and the channel-experiment harness."""

import pytest

from repro.attacks.encoding import (
    bits_to_int,
    hamming_error_rate,
    int_to_bits,
    majority,
)
from repro.attacks.harness import ChannelResult, run_symbol_sweep
from repro.hardware import presets
from repro.kernel.timeprotect import TimeProtectionConfig


def _fake_build(observe):
    """A builder whose spy 'observes' ``observe(symbol)`` at boot.

    It schedules one empty domain and a zero horizon, so the harness's
    run of it takes no step and the observations are exactly the fake
    channel's.
    """

    def build(kernel, symbol, results):
        kernel.set_schedule(0, [(kernel.create_domain("Lo"), None)])
        results.extend(observe(symbol))
        return 0

    return build


def _sweep(observe, symbols, **kwargs):
    return run_symbol_sweep(
        name="fake",
        tp=TimeProtectionConfig.none(),
        machine_factory=presets.micro_machine,
        build=_fake_build(observe),
        symbols=symbols,
        **kwargs,
    )


class TestEncoding:
    def test_roundtrip(self):
        for value in (0, 1, 5, 255):
            assert bits_to_int(int_to_bits(value, 8)) == value

    def test_big_endian(self):
        assert int_to_bits(0b100, 3) == [1, 0, 0]

    def test_majority(self):
        assert majority([1, 1, 0]) == 1
        assert majority([0, 1]) == 0  # tie breaks low

    def test_majority_empty_rejected(self):
        with pytest.raises(ValueError):
            majority([])

    def test_hamming_error_rate(self):
        assert hamming_error_rate([1, 0, 1], [1, 0, 1]) == 0.0
        assert hamming_error_rate([1, 0], [0, 1]) == 1.0
        assert hamming_error_rate([1, 0, 1, 1], [1, 0]) == 0.5


class TestHarness:
    def test_sweep_collects_per_symbol(self):
        result = _sweep(
            lambda symbol: [symbol * 10, symbol * 10], [0, 1, 2], rounds=2
        )
        assert len(result.samples) == 12
        assert result.n_symbols() == 3

    def test_perfect_fake_channel_stats(self):
        result = _sweep(lambda symbol: [f"obs{symbol}"] * 4, [0, 1])
        assert result.capacity_bits() == pytest.approx(1.0, abs=1e-5)
        assert result.decode_accuracy() == 1.0
        assert result.chance_accuracy() == 0.5

    def test_empty_experiment_rejected(self):
        with pytest.raises(RuntimeError):
            _sweep(lambda symbol: [], [0, 1])

    def test_summary_mentions_name_and_label(self):
        result = ChannelResult(
            name="the channel", tp_label="TP:full", samples=[(0, "a"), (1, "b")]
        )
        summary = result.summary()
        assert "the channel" in summary
        assert "TP:full" in summary
