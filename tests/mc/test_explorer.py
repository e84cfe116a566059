"""Explorer behaviour: exhaustive verdicts, bounds, counterexamples."""

import pytest

from repro.mc import McSpec, ModelChecker, confirm_counterexample


def check(machine, tp, **overrides):
    spec = McSpec.for_machine(machine, tp, **overrides)
    return spec, ModelChecker(spec).run()


class TestExhaustivePass:
    def test_micro_full_is_clean_and_exhaustive(self):
        spec, report = check("micro", "full", secrets=(0, 1))
        assert report.passed
        assert report.exhaustive
        assert report.stop_reason == "exhausted"
        assert not report.counterexamples
        assert report.stats.terminal_states > 0
        # Exhaustive means the frontier drained: every visited state was
        # expanded, deduplicated, violating (none here) or terminal.
        assert report.stats.states_visited > report.stats.terminal_states

    def test_tiny_full_is_clean_and_exhaustive(self):
        spec, report = check("tiny", "full", secrets=(0, 1))
        assert report.passed and report.exhaustive

    def test_state_count_is_reproducible(self):
        _, first = check("micro", "full", secrets=(0, 1))
        _, second = check("micro", "full", secrets=(0, 1))
        assert first.stats.to_json() == second.stats.to_json()


class TestViolations:
    @pytest.mark.parametrize("tp", ["no-pad", "none"])
    def test_micro_finds_replayable_counterexample(self, tp):
        spec, report = check("micro", tp, secrets=(0, 2))
        assert not report.passed
        assert report.stop_reason == "violation"
        cex = report.minimal_counterexample()
        assert cex is not None
        assert len(cex.path) == cex.depth
        result = confirm_counterexample(spec, cex)
        assert not result.holds
        assert result.divergence is not None
        predicted = cex.predicted_divergence_index
        if predicted is not None:
            assert result.divergence.index == predicted

    def test_counterexamples_are_minimal_per_pair(self):
        spec, report = check("micro", "no-pad")
        by_pair = {}
        for cex in report.counterexamples:
            pair = (cex.secret_a, cex.secret_b)
            by_pair.setdefault(pair, []).append(cex.depth)
        for pair, depths in by_pair.items():
            assert len(set(depths)) == 1, (
                f"pair {pair} mixes depths {depths}: only minimal-depth "
                f"counterexamples may be reported"
            )


class TestBounds:
    def test_depth_bound_cuts_exploration(self):
        _, report = check("micro", "full", secrets=(0, 1), depth=3)
        assert report.passed  # nothing violated within the bound
        assert not report.exhaustive
        assert report.stop_reason == "depth-bound"
        assert report.stats.max_depth <= 3

    def test_state_bound_cuts_exploration(self):
        _, report = check("micro", "full", secrets=(0, 1), max_states=10)
        assert not report.exhaustive
        assert report.stop_reason == "state-bound"
        assert report.stats.states_visited <= 10

    def test_unbounded_run_ignores_both_cuts(self):
        _, report = check("micro", "full", secrets=(0, 1))
        assert report.stats.max_depth < 400
        assert report.stats.states_visited < 200_000


class TestReport:
    def test_json_round_trip(self):
        import json

        from repro.mc import render_json

        _, report = check("micro", "no-pad", secrets=(0, 1))
        payload = json.loads(render_json(report))
        assert payload["machine"] == "micro"
        assert payload["tp"] == "no-pad"
        assert payload["passed"] is False
        assert payload["counterexamples"]
        cex = payload["counterexamples"][0]
        assert cex["depth"] == len(cex["path"])
        assert payload["stats"]["states_visited"] > 0

    def test_text_report_names_the_machine(self):
        from repro.mc import render_text

        _, report = check("micro", "full", secrets=(0, 1))
        text = render_text(report)
        assert "machine=micro" in text
        assert "verdict: PASS" in text
        assert "exhaustive over the reachable state space" in text
