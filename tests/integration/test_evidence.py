"""Evidence on demand: a run records what its consumer declared, no more.

Three guarantees are pinned here:

* recording is never simulated input -- the same trials measure
  bit-identical samples and statistics with nothing declared and with
  every part of :class:`Evidence` declared, including under CAT-style
  way partitioning, whose quotas charge fills to the recorder's current
  domain;
* a run with nothing declared (every channel experiment, campaign trial
  and synth fitness run) records nothing: no touch sets, no case log,
  no switch snapshots;
* every evidence reader refuses a run that did not declare what it
  reads, instead of auditing an empty log.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.campaign.registry import ATTACKS, MACHINES, TP_CONFIGS
from repro.cli import main
from repro.core import audit, check_all, check_unwinding
from repro.core.noninterference import compare_finished_runs
from repro.hardware import Evidence, Instrumentation
from repro.kernel import Kernel, TimeProtectionConfig
from repro.mc import McSpec, ModelChecker, ProductState, build_system, explorer
from repro.mc.spec import STEP

from tests.conftest import MAX_CYCLES, boot_two_domain_system


@pytest.fixture
def built_kernels(monkeypatch):
    """Every kernel booted during a test, with an optional declaration.

    Set ``declaring[0]`` to an :class:`Evidence` to have each new kernel
    declare it right after boot.
    """
    kernels = []
    declaring = [None]
    boot = Kernel.__init__

    def recording_boot(self, *args, **kwargs):
        boot(self, *args, **kwargs)
        if declaring[0] is not None:
            self.declare(declaring[0])
        kernels.append(self)

    monkeypatch.setattr(Kernel, "__init__", recording_boot)
    return kernels, declaring


# Small inputs; e4 and the branch channel send a fixed bit alphabet.
_BIT_PARAMS = {"rounds_per_run": 3, "sweep_rounds": 1}
_PARAMS = {"e4": _BIT_PARAMS, "branch": _BIT_PARAMS}


def _run_attack(attack: str, tp: str, seed: int = 7):
    random.seed(seed)
    return ATTACKS[attack].run(
        TP_CONFIGS[tp](), MACHINES["tiny"],
        _PARAMS.get(attack, {"symbols": (1, 6), "rounds_per_run": 3}),
    )


# Declared runs, by id: (attack, evidence).  Touch sets alone open the
# recorder's ``recording`` gate without the case log.
_DECLARED = {
    "e5": ("e5", Evidence.everything()),
    "occupancy": ("occupancy", Evidence.everything()),
    "e4-touches": ("e4", Evidence(touches=None)),
    "e5-touches": ("e5", Evidence(touches=None)),
    "occupancy-touches": ("occupancy", Evidence(touches=None)),
}


class TestDifferential:
    @pytest.mark.parametrize("tp", ["none", "full", "way"])
    @pytest.mark.parametrize(
        "attack, evidence", list(_DECLARED.values()), ids=list(_DECLARED)
    )
    def test_stats_are_bit_identical(self, attack, evidence, tp, built_kernels):
        kernels, declaring = built_kernels
        bare = _run_attack(attack, tp)
        declaring[0] = evidence
        recorded_from = len(kernels)
        recorded = _run_attack(attack, tp)
        assert recorded.samples == bare.samples
        assert recorded.stats() == bare.stats()
        # The declared runs really recorded: the differential is not
        # comparing two bare runs.
        audited = kernels[recorded_from:]
        assert audited
        assert all(k.machine.instrumentation.summary for k in audited)
        assert all(bool(k.case_log) == evidence.cases for k in audited)


class TestChannelRunsRecordNothing:
    @pytest.mark.parametrize("tp", ["none", "full", "way"])
    def test_no_touch_call_when_nothing_is_declared(self, tp, monkeypatch):
        """No element calls the recorder: ``touch`` is never entered on
        cache and TLB lookups, fills and evictions, ``clflush`` (e4),
        the prefetcher or the branch predictor (branch)."""
        calls = []
        touch = Instrumentation.touch

        def counted(self, element, index, kind):
            calls.append(element)
            return touch(self, element, index, kind)

        monkeypatch.setattr(Instrumentation, "touch", counted)
        for attack in ("branch", "e4", "e5", "occupancy"):
            _run_attack(attack, tp)
        assert calls == []

    def test_switches_and_touches_leave_no_evidence(self, built_kernels):
        kernels, _declaring = built_kernels
        _run_attack("e5", "full")
        assert kernels
        records = [r for k in kernels for r in k.switch_records]
        assert records  # the runs did switch domains
        for kernel in kernels:
            assert kernel.machine.instrumentation.summary == {}
            assert kernel.machine.instrumentation.footprint == []
            assert kernel.case_log == []
        for record in records:
            assert record.flushed_elements  # the flush itself still ran
            assert record.post_flush_fingerprints == {}
            assert record.reset_fingerprints == {}
            assert record.llc_colour_fingerprints == {}
            assert record.llc_owner_fingerprints == {}


def _undeclared_run(secret=3):
    kernel = boot_two_domain_system(secret, TimeProtectionConfig.full())
    kernel.run(max_cycles=MAX_CYCLES)
    return kernel


def _mc_pair_check():
    spec = McSpec.for_machine("micro", "full", secrets=(0, 1))
    sides = [build_system(spec, secret) for secret in (0, 1)]
    for kernel in sides:
        kernel.declare(Evidence())
    ProductState(sides[0], sides[1], 0, 1, irq_budget=0).apply(STEP, spec)


def _mc_explorer():
    # The explorer's own path: roots built without MC_EVIDENCE.
    def undeclared(spec, secret):
        kernel = build_system(spec, secret)
        kernel.declare(Evidence())
        return kernel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explorer, "build_system", undeclared)
        ModelChecker(McSpec.for_machine("micro", "full", secrets=(0, 1))).run()


READERS = {
    "check_all": lambda: check_all(_undeclared_run()),
    "check_unwinding": lambda: check_unwinding(_undeclared_run(), "Lo"),
    "casesplit.audit": lambda: audit(_undeclared_run()),
    "compare_finished_runs": lambda: compare_finished_runs(
        _undeclared_run(1), _undeclared_run(9), 1, 9, "Lo",
        compare_hardware=True,
    ),
    "mc_pair_check": _mc_pair_check,
    "mc_explorer": _mc_explorer,
}


class TestUndeclaredEvidence:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_reader_raises(self, reader):
        with pytest.raises(ValueError, match="did not declare"):
            READERS[reader]()

    def test_declaring_after_the_run_starts_is_refused(self):
        kernel = _undeclared_run()
        with pytest.raises(ValueError, match="before the run"):
            kernel.declare(Evidence.everything())

    def test_footprints_need_the_case_log(self):
        with pytest.raises(ValueError, match="case log"):
            Evidence(footprints=True)


class TestRemovedCountingOptions:
    def test_campaign_instrumentation_option_is_unknown(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "campaign", "--attacks", "e5", "--tps", "none",
                "--instrumentation", "counting",
                "--store", str(tmp_path / "store.jsonl"),
            ])
        assert exit_info.value.code == 2

    def test_spec_instrumentation_field_is_unknown(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "machines": ["tiny"], "tps": ["none"], "attacks": ["e5"],
            "seeds": [0], "instrumentation": "counting",
        }))
        code = main([
            "campaign", "--spec", str(spec),
            "--store", str(tmp_path / "store.jsonl"),
        ])
        assert code == 2
        assert "instrumentation" in capsys.readouterr().err
