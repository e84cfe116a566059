"""Seeded time-protection bugs the prover must catch.

Each case seeds one defect into the shipped kernel and pins what the
prover reports on ``prove``'s standard system (``repro.cli``) on tiny
under ``full``.  Every shipped coloured configuration passes the case
split, and ``none`` and ``no-colour`` skip its colour check, so without
a seeded defect nothing shows that Cases 1 and 2a can fail.

* *Lo on Hi's colours*: ``ColourAwareAllocator._colour_filter`` hands
  the Lo domain the Hi domain's colours, so Lo's frames sit in Hi's LLC
  sets while its entitlement stays its own colours.  Case 1 must name
  the first steps whose latency reads a Hi colour, and the theorem must
  fail.
"""

import contextlib
import io
import json

import pytest

from repro.campaign.registry import MACHINES, TP_CONFIGS
from repro.cli import _build_standard_system, main
from repro.core import audit
from repro.hardware import Evidence
from repro.kernel.colour_alloc import ColourAwareAllocator

#: ``prove``'s default horizon.
MAX_CYCLES = 400_000


@pytest.fixture
def lo_on_hi_colours(monkeypatch):
    """Seed the fault: Lo's frames come from Hi's colours."""
    real = ColourAwareAllocator._colour_filter

    def colour_filter(self, domain_name):
        return real(self, "Hi" if domain_name == "Lo" else domain_name)

    monkeypatch.setattr(ColourAwareAllocator, "_colour_filter", colour_filter)


def _audited_reference_run():
    build = _build_standard_system(MACHINES["tiny"], TP_CONFIGS["full"]())
    kernel = build(1)
    kernel.declare(Evidence.everything())
    kernel.run(max_cycles=MAX_CYCLES)
    return audit(kernel)


def test_unseeded_system_passes_the_case_split():
    assert _audited_reference_run().passed


def test_case_1_catches_lo_on_hi_colours(lo_on_hi_colours):
    result = _audited_reference_run()
    case_1 = result.result_for("1")
    assert not case_1.passed
    assert len(case_1.failures) == 91
    assert case_1.failures[:2] == [
        "step #1 (case 1, Lo): latency depends on llc colour 1, "
        "entitled [3, 4]",
        "step #2 (case 1, Lo): latency depends on llc colour 2, "
        "entitled [3, 4]",
    ]
    assert not result.passed


def test_prove_does_not_hold_with_lo_on_hi_colours(lo_on_hi_colours):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["prove", "--machine", "tiny", "--tp", "full",
                     "--format", "json"])
    report = json.loads(out.getvalue())
    assert code == 1
    assert report["holds"] is False
    assert report["case_split"]["passed"] is False
    case_1 = report["case_split"]["cases"][0]
    assert case_1["case"] == "1"
    assert len(case_1["failures"]) == 91
