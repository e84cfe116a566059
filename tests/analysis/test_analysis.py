"""Tests for channel matrices, capacity and bandwidth."""

import math

import numpy as np
import pytest

from repro.analysis import (
    min_leakage,
    blahut_arimoto,
    bsc_capacity,
    capacity_bits,
    decode_accuracy,
    effective_bit_rate,
    estimator_bias_bits,
    from_samples,
    mutual_information,
    zero_leakage,
)
from repro.analysis.bandwidth import BandwidthEstimate


class TestChannelMatrix:
    def test_rows_are_stochastic(self):
        samples = [(0, "a"), (0, "b"), (1, "a"), (1, "a")]
        matrix = from_samples(samples)
        assert np.allclose(matrix.matrix.sum(axis=1), 1.0)

    def test_counts_preserved(self):
        samples = [(0, "a")] * 3 + [(1, "b")] * 2
        matrix = from_samples(samples)
        assert matrix.total_samples() == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_samples([])

    def test_degenerate_detection(self):
        identical = [(0, "x"), (1, "x"), (2, "x")]
        assert from_samples(identical).is_degenerate()
        distinct = [(0, "x"), (1, "y")]
        assert not from_samples(distinct).is_degenerate()


class TestCapacity:
    def test_perfect_binary_channel(self):
        samples = [(0, "lo")] * 10 + [(1, "hi")] * 10
        matrix = from_samples(samples)
        assert capacity_bits(matrix) == pytest.approx(1.0, abs=1e-5)
        assert mutual_information(matrix) == pytest.approx(1.0, abs=1e-6)

    def test_useless_channel(self):
        samples = [(0, "x")] * 10 + [(1, "x")] * 10
        matrix = from_samples(samples)
        assert capacity_bits(matrix) == pytest.approx(0.0, abs=1e-6)
        assert zero_leakage(matrix)

    def test_perfect_quaternary_channel(self):
        samples = [(s, f"o{s}") for s in range(4) for _ in range(5)]
        matrix = from_samples(samples)
        assert capacity_bits(matrix) == pytest.approx(2.0, abs=1e-4)

    def test_noisy_channel_below_perfect(self):
        samples = (
            [(0, "lo")] * 8 + [(0, "hi")] * 2 + [(1, "hi")] * 8 + [(1, "lo")] * 2
        )
        matrix = from_samples(samples)
        capacity = capacity_bits(matrix)
        assert 0.0 < capacity < 1.0
        # For a symmetric channel the optimum is the uniform input.
        _cap, dist = blahut_arimoto(matrix)
        assert dist == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_mutual_information_custom_prior(self):
        samples = [(0, "lo")] * 10 + [(1, "hi")] * 10
        matrix = from_samples(samples)
        skewed = mutual_information(matrix, input_dist=[0.9, 0.1])
        assert skewed == pytest.approx(
            -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1)), abs=1e-6
        )

    def test_mutual_information_validates_prior(self):
        matrix = from_samples([(0, "a"), (1, "b")])
        with pytest.raises(ValueError):
            mutual_information(matrix, input_dist=[0.5, 0.4])

    def test_estimator_bias_decreases_with_samples(self):
        assert estimator_bias_bits(10, 8) > estimator_bias_bits(1000, 8)


class TestMinLeakage:
    def test_perfect_channel_leaks_everything(self):
        matrix = from_samples([(s, f"o{s}") for s in range(4) for _ in range(3)])
        assert min_leakage(matrix) == pytest.approx(2.0, abs=1e-9)

    def test_dead_channel_leaks_nothing(self):
        matrix = from_samples([(s, "same") for s in range(4)])
        assert min_leakage(matrix) == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_input_entropy(self):
        samples = (
            [(0, "lo")] * 8 + [(0, "hi")] * 2 + [(1, "hi")] * 8 + [(1, "lo")] * 2
        )
        matrix = from_samples(samples)
        assert 0.0 < min_leakage(matrix) <= 1.0

    def test_can_exceed_shannon_capacity_view(self):
        # A channel that mostly says nothing but occasionally identifies
        # the secret exactly: min-leakage highlights the one-guess risk.
        samples = (
            [(0, "quiet")] * 9 + [(0, "zero!")] * 1
            + [(1, "quiet")] * 9 + [(1, "one!")] * 1
        )
        matrix = from_samples(samples)
        assert min_leakage(matrix) > 0.0


class TestDecodeAccuracy:
    def test_perfect_channel_decodes(self):
        samples = [(s, f"o{s}") for s in range(4) for _ in range(6)]
        assert decode_accuracy(samples) == 1.0

    def test_useless_channel_at_chance(self):
        samples = [(s, "same") for s in range(4) for _ in range(6)]
        assert decode_accuracy(samples) == pytest.approx(0.25, abs=0.01)

    def test_unseen_observation_falls_back(self):
        samples = [(0, "a"), (0, "a"), (1, "b"), (1, "c")]
        accuracy = decode_accuracy(samples, train_fraction=0.5)
        assert 0.0 <= accuracy <= 1.0


class TestBandwidth:
    def test_bits_per_second(self):
        estimate = BandwidthEstimate(
            bits_per_symbol=2.0, symbol_period_cycles=1000, clock_hz=1e9
        )
        assert estimate.symbols_per_second == pytest.approx(1e6)
        assert estimate.bits_per_second == pytest.approx(2e6)

    def test_zero_period(self):
        estimate = BandwidthEstimate(1.0, 0, 1e9)
        assert estimate.bits_per_second == 0.0

    def test_bsc_capacity_extremes(self):
        assert bsc_capacity(0.0) == 1.0
        assert bsc_capacity(0.5) == pytest.approx(0.0, abs=1e-9)
        assert bsc_capacity(1.0) == 1.0  # inverted but perfect

    def test_effective_rate(self):
        assert effective_bit_rate(100.0, 0.0) == 100.0
        assert effective_bit_rate(100.0, 0.5) == pytest.approx(0.0, abs=1e-6)
