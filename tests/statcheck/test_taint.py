"""SC-4 secret-taint checker against the seeded fixture flows."""

import importlib
import inspect
from pathlib import Path

from repro.statcheck import run_lint
from repro.statcheck.sanitizers import DECLASSIFIED_PARAMS

FIXTURES = Path(__file__).parent / "fixtures"


def lint_flows():
    return run_lint(
        paths=[str(FIXTURES / "flows.py")],
        checkers=["SC-4"],
        all_scopes=True,
    )


class TestDirectFlow:
    def test_trace_append_flagged(self):
        report = lint_flows()
        hits = [
            f for f in report.findings
            if f.rule == "direct-flow" and f.qualname == "direct_leak"
        ]
        assert len(hits) == 1
        assert "trace" in hits[0].message
        assert hits[0].location.endswith(f"flows.py:{hits[0].lineno}")

    def test_params_read_into_lo_record_flagged(self):
        report = lint_flows()
        hits = [
            f for f in report.findings if f.qualname == "record_leak"
        ]
        assert len(hits) == 1
        assert hits[0].rule == "direct-flow"
        assert "ChannelResult" in hits[0].message

    def test_interprocedural_leak_reported_at_call_site(self):
        report = lint_flows()
        hits = [
            f for f in report.findings
            if f.qualname == "interprocedural_leak"
        ]
        assert len(hits) == 1
        # The message names the callee whose sink the taint reaches.
        assert "helper_passthrough" in hits[0].message

    def test_helper_itself_not_flagged(self):
        # ``helper_passthrough(value, trace)`` has no secret of its own;
        # only callers that pass taint into it leak.
        report = lint_flows()
        assert "helper_passthrough" not in {
            f.qualname for f in report.findings
        }


class TestImplicitFlow:
    def test_secret_guarded_sink_write_flagged(self):
        report = lint_flows()
        hits = [
            f for f in report.findings if f.rule == "implicit-flow"
        ]
        assert len(hits) == 1
        assert hits[0].qualname == "implicit_leak"
        assert "latency" in hits[0].message


class TestSanctionedConduit:
    """The regression the ISSUE demands: secret -> Cache.access ->
    touch() -> latency is the *allowed* routing and must not flag."""

    def test_touch_routed_flow_not_flagged(self):
        report = lint_flows()
        assert "sanctioned_flow" not in {
            f.qualname for f in report.findings
        }

    def test_element_access_not_flagged(self):
        report = lint_flows()
        assert "ConduitCache.access" not in {
            f.qualname for f in report.findings
        }

    def test_fixture_exit_code_and_locations(self):
        report = lint_flows()
        assert report.exit_code == 1
        assert len(report.findings) == 4
        for finding in report.findings:
            assert finding.checker == "SC-4"
            assert "flows.py:" in finding.render()


class TestPolicyTables:
    def test_every_declassification_is_justified(self):
        # Declassifiers are policy exemptions; like baseline waivers,
        # an unexplained one is a configuration smell.
        for key, justification in DECLASSIFIED_PARAMS.items():
            assert len(key) == 3
            assert justification.strip(), key

    def test_harness_symbols_declassifier_present(self):
        # The sweep's ground-truth label column is an endorsed flow.
        assert (
            "repro.attacks.harness", "run_symbol_sweep", "symbols"
        ) in DECLASSIFIED_PARAMS

    def test_every_declassification_names_a_parameter(self):
        # A declassifier that outlives its function's signature endorses
        # nothing and hides that the flow it covered is unchecked.
        for module, qualname, param in DECLASSIFIED_PARAMS:
            function = getattr(importlib.import_module(module), qualname)
            assert param in inspect.signature(function).parameters, (
                module, qualname, param,
            )
