"""Differential tests for the scaled explorer: every exploration lever
(POR, incremental fingerprints, fast clone, bitstate, disk spill) must
preserve the exact explorer's verdicts bit-for-bit on the
configurations it is sound for.

The exact mode (``McOptions.exact()``) is the seed explorer's behaviour
and the oracle throughout: full-prefix checks, repr-based fingerprints,
deepcopy snapshots, no reductions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc import McOptions, McSpec, ModelChecker

#: Every TP config the differential matrix pins, passing and failing.
TP_MATRIX = ("full", "no-pad", "no-colour", "no-flush", "none")


def run(machine, tp, options=None, **overrides):
    spec = McSpec.for_machine(machine, tp, secrets=(0, 1), **overrides)
    return ModelChecker(spec, options=options).run()


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


@pytest.fixture(scope="module")
def exact_micro():
    """Exact-mode oracle reports for every TP config on micro."""
    return {
        tp: run("micro", tp, options=McOptions.exact()) for tp in TP_MATRIX
    }


LEVERS = {
    "por-only": McOptions(por=True, incremental=False, fast_clone=False),
    "incremental-only": McOptions(por=False, incremental=True,
                                  fast_clone=False),
    "fast-clone-only": McOptions(por=False, incremental=False,
                                 fast_clone=True),
    "all-on": McOptions(),
}


class TestDifferentialMicro:
    @pytest.mark.parametrize("tp", TP_MATRIX)
    @pytest.mark.parametrize("lever", sorted(LEVERS))
    def test_lever_matches_exact(self, exact_micro, tp, lever):
        report = run("micro", tp, options=LEVERS[lever])
        assert verdict_signature(report) == verdict_signature(
            exact_micro[tp]
        ), f"{lever} diverges from exact on micro/{tp}"


class TestDifferentialTiny:
    @pytest.mark.parametrize("tp", ("full", "no-pad"))
    def test_all_levers_match_exact(self, tp):
        exact = run("tiny", tp, options=McOptions.exact())
        fast = run("tiny", tp)
        assert verdict_signature(fast) == verdict_signature(exact)


class TestPartialOrderReduction:
    def test_identity_on_single_irq_line(self):
        # With one IRQ line there is nothing symmetric to collapse.
        report = run("micro", "full")
        assert report.stats.por_pruned == 0

    def test_prunes_symmetric_lines(self):
        spec_kwargs = dict(irq_lines=(1, 2, 3))
        on = run("tiny", "full", **spec_kwargs)
        off = run("tiny", "full", options=McOptions(por=False),
                  **spec_kwargs)
        assert on.stats.por_pruned > 0
        assert on.stats.states_visited < off.stats.states_visited
        assert (on.passed, on.exhaustive) == (off.passed, off.exhaustive)

    def test_preserves_violations_on_multi_line(self):
        spec_kwargs = dict(irq_lines=(1, 2))
        on = run("micro", "no-pad", **spec_kwargs)
        off = run("micro", "no-pad", options=McOptions(por=False),
                  **spec_kwargs)
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
        off = run("micro", "full", options=McOptions(por=False),
                  **spec_kwargs)
        assert on.stats.por_pruned > 0

        def cex_depth(report):
            cex = report.minimal_counterexample()
            return cex.depth if cex is not None else None

        assert (on.passed, on.exhaustive, cex_depth(on)) == (
            off.passed, off.exhaustive, cex_depth(off)
        )


class TestBitstateAndSpill:
    def test_bitstate_smoke(self):
        report = run("tiny", "full", options=McOptions(bitstate_mb=1.0))
        assert report.passed
        assert report.bitstate is not None
        assert report.bitstate["est_omission_probability"] < 1e-6

    def test_bitstate_still_finds_violations(self):
        report = run("micro", "no-pad", options=McOptions(bitstate_mb=1.0))
        assert not report.passed
        assert report.minimal_counterexample() is not None

    def test_spill_matches_in_ram(self, tmp_path):
        spilled = run(
            "micro", "full",
            options=McOptions(
                spill_ram_states=4, spill_dir=str(tmp_path)
            ),
        )
        in_ram = run("micro", "full")
        assert verdict_signature(spilled) == verdict_signature(in_ram)


class TestProfileAndPresets:
    def test_profile_reports_all_phases(self):
        report = run("micro", "full", options=McOptions(profile=True))
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
    @given(
        secret_b=st.integers(min_value=1, max_value=7),
        por=st.booleans(),
        incremental=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_random_levers_match_exact(self, secret_b, por, incremental):
        spec = McSpec.for_machine("micro", "full", secrets=(0, secret_b))
        exact = ModelChecker(spec, options=McOptions.exact()).run()
        levered = ModelChecker(
            spec,
            options=McOptions(por=por, incremental=incremental),
        ).run()
        assert verdict_signature(levered) == verdict_signature(exact)

    @given(irq_budget=st.integers(min_value=0, max_value=2))
    @settings(max_examples=3, deadline=None)
    def test_irq_budget_sweep_matches_exact(self, irq_budget):
        spec = McSpec.for_machine(
            "micro", "full", secrets=(0, 1), irq_budget=irq_budget
        )
        exact = ModelChecker(spec, options=McOptions.exact()).run()
        fast = ModelChecker(spec).run()
        assert verdict_signature(fast) == verdict_signature(exact)
