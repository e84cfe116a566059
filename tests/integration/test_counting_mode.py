"""What outlives the removed counting mode.

Counting instrumentation (``campaign --instrumentation counting``) gave
way to declared evidence (``tests/integration/test_evidence.py``): a
campaign trial now records nothing, so no trial has an instrumentation
setting.  Full-instrumentation trials never carried one in their keys,
so stores written before the change still resume with nothing re-run;
``/instr=counting`` keys ran under another derived seed, are not
aliased, and re-run.  Per-element touch counts survive as a test fake
for the synth novelty attribution (``tests/synth/novelty.py``).
"""

from __future__ import annotations

from repro.campaign.registry import MACHINES
from repro.campaign.spec import TrialSpec
from repro.core import AbstractHardwareModel

from tests.synth.novelty import counting_machines


class TestCountingGuardRails:
    def test_full_mode_machine_still_extractable(self):
        machine = MACHINES["tiny"]()
        model = AbstractHardwareModel.from_machine(machine)
        assert model.elements

    def test_full_mode_key_is_unchanged(self):
        """Pre-existing result stores must keep resolving their keys."""
        trial = TrialSpec(machine="tiny", tp="full", attack="e5", seed=2)
        assert trial.key() == "machine=tiny/tp=full/attack=e5/seed=2"

    def test_counting_machine_still_counts_touches(self):
        machine = counting_machines(MACHINES["tiny"])()
        machine.instrumentation.set_context("Lo")
        machine.cores[0].l1d.access(0x100, write=True)
        counts = machine.instrumentation.counts
        assert counts[("Lo", "core0.l1d")] > 0
        assert all(
            element.instr is machine.instrumentation
            for element in machine.all_state_elements()
        )
