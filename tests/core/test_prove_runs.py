"""The prover runs each distinct secret once and records evidence once.

The oracle here is the pairwise prover: one reference run recording all
evidence for the obligations, then a fresh pair of runs recording the
switch snapshots the comparison reads per ``secrets[1:]`` entry --
2(N-1)+1 runs for N secrets.  The simulator is deterministic, so the
one-run-per-secret prover must produce a byte-identical report.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.campaign.registry import TP_CONFIGS
from repro.core import (
    AbstractHardwareModel,
    ProofReport,
    TimeProtectionProof,
    audit,
    check_all,
    check_unwinding,
    format_report_json,
    prove_time_protection,
    secret_swap_experiment,
    sweep_secrets,
)
from repro.core.noninterference import SWAP_EVIDENCE
from repro.hardware import Evidence

from tests.conftest import MAX_CYCLES, boot_two_domain_system

#: A duplicated non-baseline secret and a repeat of the baseline.
SECRETS = [5, 17, 3, 17, 5]


def pairwise_prove(build, secrets, observer, max_cycles) -> ProofReport:
    """The pairwise prover: 2(N-1)+1 runs, every one recording evidence."""

    def build_and_run(secret, evidence=SWAP_EVIDENCE):
        kernel = build(secret)
        kernel.declare(evidence)
        kernel.run(max_cycles=max_cycles)
        return kernel

    reference = build_and_run(secrets[0], Evidence.everything())
    model = AbstractHardwareModel.from_machine(reference.machine)
    obligations = check_all(reference, model)
    case_split = audit(reference)
    unwinding = check_unwinding(reference, observer)
    noninterference = [
        secret_swap_experiment(build_and_run, secrets[0], other, observer)
        for other in secrets[1:]
    ]
    notes = []
    if not model.conforms_to_aisa():
        notes.append(
            "hardware does not conform to the aISA contract; the paper "
            "predicts the proof cannot go through on such hardware (Sect. 6)"
        )
    return ProofReport(
        theorem=(
            f"no execution of any domain can affect the timing or values "
            f"observable by domain {observer!r}"
        ),
        holds=(
            all(o.passed for o in obligations)
            and case_split.passed
            and unwinding.passed
            and all(r.holds for r in noninterference)
        ),
        model_summary=model.summary(),
        obligations=obligations,
        case_split=case_split,
        unwinding=unwinding,
        noninterference=noninterference,
        notes=notes,
    )


def booter(tp_name):
    tp = TP_CONFIGS[tp_name]()
    return lambda secret: boot_two_domain_system(secret, tp)


class CountingBuild:
    """A boot-only builder that counts builds and tracks live kernels."""

    def __init__(self, build):
        self.build = build
        self.builds = Counter()
        self.kernels = []
        self.most_alive = 0

    def __call__(self, secret):
        gc.collect()
        alive = sum(1 for ref in self.kernels if ref() is not None)
        self.most_alive = max(self.most_alive, alive)
        self.builds[secret] += 1
        kernel = self.build(secret)
        self.kernels.append(weakref.ref(kernel))
        return kernel


@pytest.mark.parametrize("tp", ("full", "none", "no-pad", "way"))
def test_report_matches_pairwise_prover(tp):
    expected = pairwise_prove(booter(tp), SECRETS, "Lo", MAX_CYCLES)
    actual = prove_time_protection(
        booter(tp), SECRETS, "Lo", max_cycles=MAX_CYCLES
    )
    assert format_report_json(actual) == format_report_json(expected)
    assert actual.holds is (tp == "full")


def test_one_build_per_distinct_secret():
    build = CountingBuild(booter("none"))
    prove_time_protection(build, SECRETS, "Lo", max_cycles=MAX_CYCLES)
    assert build.builds == Counter(set(SECRETS))


def test_sweep_keeps_baseline_and_one_other_alive():
    build = CountingBuild(booter("full"))
    results = sweep_secrets(build, [0, 3, 11, 3, 7], "Lo", MAX_CYCLES)
    assert [r.secret_b for r in results] == [3, 11, 3, 7]
    assert build.builds == Counter({0: 1, 3: 1, 11: 1, 7: 1})
    # Building a new secret may find only the baseline still alive.
    assert build.most_alive == 1


def test_builder_without_footprint_flag_is_audited():
    # boot_two_domain_system declares no evidence; the prover declares
    # it for its reference run, so the case split always runs.
    report = TimeProtectionProof(
        booter("full"), [1, 9], "Lo", max_cycles=MAX_CYCLES
    ).prove()
    assert report.case_split is not None
    assert report.case_split.total_steps > 0
    assert report.case_split.passed
    assert report.holds
