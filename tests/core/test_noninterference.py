"""Tests for the two-run noninterference harness."""

import pytest

from repro.core.noninterference import (
    Divergence,
    secret_swap_experiment,
    sweep_secrets,
    trace_divergence,
)
from repro.kernel import TimeProtectionConfig

from tests.conftest import (
    MAX_CYCLES,
    boot_two_domain_system,
    build_two_domain_system,
)


class TestTraceDivergence:
    def test_equal_traces(self):
        trace = [("t", 1, 2), ("t", 3, 4)]
        assert trace_divergence(trace, list(trace)) is None

    def test_first_difference_located(self):
        a = [("t", 1, 2), ("t", 3, 4)]
        b = [("t", 1, 2), ("t", 3, 5)]
        divergence = trace_divergence(a, b)
        assert divergence.index == 1
        assert divergence.observation_a == ("t", 3, 4)

    def test_length_mismatch_is_divergence(self):
        a = [("t", 1, 2)]
        b = [("t", 1, 2), ("t", 3, 4)]
        divergence = trace_divergence(a, b)
        assert divergence is not None
        assert divergence.index == 1


class TestSecretSwap:
    def test_holds_with_full_protection(self):
        result = secret_swap_experiment(
            lambda secret: build_two_domain_system(secret, TimeProtectionConfig.full()),
            secret_a=1,
            secret_b=9,
            observer_domain="Lo",
        )
        assert result.holds, str(result)
        assert result.trace_length_a == result.trace_length_b > 0

    def test_violated_without_protection(self):
        result = secret_swap_experiment(
            lambda secret: build_two_domain_system(secret, TimeProtectionConfig.none()),
            secret_a=1,
            secret_b=9,
            observer_domain="Lo",
        )
        assert not result.holds
        assert result.divergence is not None

    def test_violated_without_flush_alone(self):
        tp = TimeProtectionConfig.full().without(flush_on_switch=False)
        result = secret_swap_experiment(
            lambda secret: build_two_domain_system(secret, tp),
            secret_a=1,
            secret_b=9,
            observer_domain="Lo",
        )
        assert not result.holds

    def test_hi_observations_do_differ(self):
        # Sanity: the secrets actually change Hi's own behaviour; the
        # point is that Lo cannot tell.
        kernel_a = build_two_domain_system(1, TimeProtectionConfig.full())
        kernel_b = build_two_domain_system(9, TimeProtectionConfig.full())
        assert kernel_a.observation_trace("Hi") != kernel_b.observation_trace("Hi")

    def test_sweep_requires_two_secrets(self):
        with pytest.raises(ValueError):
            sweep_secrets(lambda s: None, [1], "Lo", MAX_CYCLES)

    def test_sweep_over_many_secrets(self):
        results = sweep_secrets(
            lambda secret: boot_two_domain_system(secret, TimeProtectionConfig.full()),
            secrets=[0, 3, 11],
            observer_domain="Lo",
            max_cycles=MAX_CYCLES,
        )
        assert len(results) == 2
        assert all(r.holds for r in results)

    def test_result_string_is_informative(self):
        result = secret_swap_experiment(
            lambda secret: build_two_domain_system(secret, TimeProtectionConfig.none()),
            secret_a=1,
            secret_b=9,
            observer_domain="Lo",
        )
        text = str(result)
        assert "VIOLATED" in text
        assert "divergence" in text
