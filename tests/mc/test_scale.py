"""Differential tests for the scaled explorer: its built-in reductions
(POR, incremental fingerprints, the hand-rolled clone) must preserve
the exact explorer's verdicts bit-for-bit on the configurations they
are sound for.

The exact oracle (``oracle.exact_explorer``) runs the same BFS loop with
full-prefix checks, repr-based fingerprints, deepcopy clones and no
reductions installed over the product path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc import McSpec, ModelChecker, ProductState

from .oracle import (
    check_pair_full,
    deepcopy_clone,
    exact_explorer,
    exact_fingerprint,
    keep_every_choice,
    without_por,
)

#: Every TP config the differential matrix pins, passing and failing.
TP_MATRIX = ("full", "no-pad", "no-colour", "no-flush", "none")


def run(machine, tp, profile=False, **overrides):
    spec = McSpec.for_machine(machine, tp, secrets=(0, 1), **overrides)
    return ModelChecker(spec, profile=profile).run()


def run_exact(machine, tp, **overrides):
    with exact_explorer():
        return run(machine, tp, **overrides)


def run_without_por(machine, tp, **overrides):
    with without_por():
        return run(machine, tp, **overrides)


def verdict_signature(report):
    """Everything two equivalent explorations must agree on."""
    cex = report.minimal_counterexample()
    return (
        report.passed,
        report.exhaustive,
        report.stop_reason,
        report.stats.states_visited,
        report.stats.transitions,
        report.stats.max_depth,
        cex.depth if cex is not None else None,
        tuple(str(v) for v in cex.violations) if cex is not None else None,
    )


class TestOracle:
    def test_exact_explorer_replaces_every_reduction(self):
        from repro.mc import explorer, product

        spec = McSpec.for_machine("micro", "full", secrets=(0, 1))
        state = ProductState.initial(spec, 0, 1)
        product_digest = state.fingerprint()
        with exact_explorer():
            assert explorer.reduce_choices is keep_every_choice
            assert product._check_pair is check_pair_full
            assert ProductState.clone is deepcopy_clone
            assert state.fingerprint() == exact_fingerprint(state)
            assert state.fingerprint() != product_digest
        assert state.fingerprint() == product_digest


class TestDifferentialMicro:
    @pytest.mark.parametrize("tp", TP_MATRIX)
    def test_matches_exact(self, tp):
        assert verdict_signature(run("micro", tp)) == verdict_signature(
            run_exact("micro", tp)
        ), f"explorer diverges from exact on micro/{tp}"


class TestDifferentialTiny:
    @pytest.mark.parametrize("tp", ("full", "no-pad"))
    def test_all_levers_match_exact(self, tp):
        # Every reduction built into the explorer at once.
        assert verdict_signature(run("tiny", tp)) == verdict_signature(
            run_exact("tiny", tp)
        )


class TestPartialOrderReduction:
    def test_identity_on_single_irq_line(self):
        # With one IRQ line there is nothing symmetric to collapse.
        report = run("micro", "full")
        assert report.stats.por_pruned == 0

    def test_prunes_symmetric_lines(self):
        spec_kwargs = dict(irq_lines=(1, 2, 3))
        on = run("tiny", "full", **spec_kwargs)
        off = run_without_por("tiny", "full", **spec_kwargs)
        assert on.stats.por_pruned > 0
        assert on.stats.states_visited < off.stats.states_visited
        assert (on.passed, on.exhaustive) == (off.passed, off.exhaustive)

    def test_preserves_violations_on_multi_line(self):
        spec_kwargs = dict(irq_lines=(1, 2))
        on = run("micro", "no-pad", **spec_kwargs)
        off = run_without_por("micro", "no-pad", **spec_kwargs)
        assert not on.passed and not off.passed
        assert (
            on.minimal_counterexample().depth
            == off.minimal_counterexample().depth
        )

    def test_multi_line_with_pending_irqs(self):
        # A budget of two leaves IRQs pending in some states, so the line
        # signature must read the controller's pending heap correctly.
        spec_kwargs = dict(irq_lines=(1, 2, 3), irq_budget=2)
        on = run("micro", "full", **spec_kwargs)
        off = run_without_por("micro", "full", **spec_kwargs)
        assert on.stats.por_pruned > 0

        def cex_depth(report):
            cex = report.minimal_counterexample()
            return cex.depth if cex is not None else None

        assert (on.passed, on.exhaustive, cex_depth(on)) == (
            off.passed, off.exhaustive, cex_depth(off)
        )


class TestProfileAndPresets:
    def test_profile_reports_all_phases(self):
        report = run("micro", "full", profile=True)
        assert report.profile is not None
        assert set(report.profile) == {
            "clone", "step", "check", "fingerprint", "dedup"
        }
        assert sum(report.profile.values()) > 0

    def test_pocket_exhaustive_pass(self):
        # The first preset larger than tiny with a complete drain (E19).
        report = run("pocket", "full")
        assert report.passed and report.exhaustive
        assert report.stop_reason == "exhausted"


class TestHypothesisDifferential:
    @given(secret_b=st.integers(min_value=1, max_value=7))
    @settings(max_examples=6, deadline=None)
    def test_random_secrets_match_exact(self, secret_b):
        spec = McSpec.for_machine("micro", "full", secrets=(0, secret_b))
        with exact_explorer():
            exact = ModelChecker(spec).run()
        fast = ModelChecker(spec).run()
        assert verdict_signature(fast) == verdict_signature(exact)

    @given(irq_budget=st.integers(min_value=0, max_value=2))
    @settings(max_examples=3, deadline=None)
    def test_irq_budget_sweep_matches_exact(self, irq_budget):
        spec = McSpec.for_machine(
            "micro", "full", secrets=(0, 1), irq_budget=irq_budget
        )
        with exact_explorer():
            exact = ModelChecker(spec).run()
        fast = ModelChecker(spec).run()
        assert verdict_signature(fast) == verdict_signature(exact)
