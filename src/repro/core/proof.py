"""The top-level "proof" of time protection for a configured system.

This assembles the paper's whole argument (Sect. 5) into one executable
artefact.  Given a *system builder* -- a function that boots, but does
not run, a complete system for a given Hi secret -- the prover:

1. extracts the abstract hardware model and checks aISA conformance
   (PO-1);
2. runs the first secret's system and discharges the mechanism
   obligations PO-2..PO-7 from the run's evidence (touch logs, switch
   records, IRQ records);
3. audits the Sect. 5.2 case split over that run's step footprints;
4. checks the switch-boundary unwinding conditions for the observer;
5. runs every other distinct secret once and requires Lo's entire
   observation trace (values *and* timestamps) to be identical to the
   first run's.

The theorem "time protection holds" is reported only when every part
passes; otherwise the report carries the failed obligations and concrete
counterexamples.  Two standing assumptions are always reported, mirroring
the paper's own scope: the stateless-interconnect exclusion (Sect. 2) and
the external origin of the padding value (WCET analysis, Sect. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..hardware.state import Evidence
from ..kernel.kernel import Kernel
from .absmodel import AbstractHardwareModel
from .casesplit import CaseSplitAudit, audit
from .gcpause import collector_paused
from .noninterference import NonInterferenceResult, sweep_secrets
from .obligations import ObligationResult, check_all
from .unwinding import UnwindingCheck, check_unwinding

STANDING_ASSUMPTIONS = (
    "stateless-interconnect bandwidth channels are out of scope (Sect. 2); "
    "multicore runs may still interfere through bus contention",
    "padding values come from a separate worst-case analysis (Sect. 4.2); "
    "the proof validates the configured pad, it does not derive it",
)


@dataclass
class ProofReport:
    """Everything the prover established (or failed to)."""

    theorem: str
    holds: bool
    model_summary: dict
    obligations: List[ObligationResult]
    case_split: CaseSplitAudit
    unwinding: Optional[UnwindingCheck]
    noninterference: List[NonInterferenceResult]
    assumptions: Sequence[str] = STANDING_ASSUMPTIONS
    notes: List[str] = field(default_factory=list)

    def failed_obligations(self) -> List[ObligationResult]:
        return [o for o in self.obligations if not o.passed]

    def counterexamples(self) -> List[str]:
        examples: List[str] = []
        for obligation in self.failed_obligations():
            examples.extend(obligation.violations[:3])
        for result in self.noninterference:
            if not result.holds and result.divergence is not None:
                examples.append(str(result.divergence))
        return examples


class TimeProtectionProof:
    """Prove (or refute) time protection for a system builder.

    The prover owns the runs it judges.  It runs ``secrets[0]`` with
    every part of :class:`Evidence` declared, discharges the
    obligations, case split and unwinding conditions from that run, then
    hands it to :func:`sweep_secrets` as every pair's baseline; the other
    secrets run once each recording only the switch snapshots the
    comparison reads.

    Args:
        build: ``build(secret) -> Kernel`` -- boots the complete system
            (machine, kernel, domains, threads, schedule) with the Hi
            secret set to ``secret`` and returns it *without running
            it*.  The builder must be deterministic apart from the
            secret.
        secrets: the Hi secrets to sweep (>= 2).
        observer: the Lo domain whose observations must be invariant.
        max_cycles: the horizon every run is stepped to.
    """

    def __init__(
        self,
        build: Callable[[Any], Kernel],
        secrets: Sequence[Any],
        observer: str,
        max_cycles: int,
    ):
        if len(secrets) < 2:
            raise ValueError("need at least two secrets")
        self.build = build
        self.secrets = list(secrets)
        self.observer = observer
        self.max_cycles = max_cycles

    def prove(self) -> ProofReport:
        """Run the full argument; returns the report.

        The cyclic collector is paused for the whole proof
        (:func:`~repro.core.gcpause.collector_paused`): the reference
        run's evidence stays alive while every other secret runs, and
        each finished kernel is freed by reference counting.
        """
        with collector_paused():
            return self._prove()

    def _prove(self) -> ProofReport:
        reference = self.build(self.secrets[0])
        reference.declare(Evidence.everything())
        reference.run(max_cycles=self.max_cycles)
        model = AbstractHardwareModel.from_machine(reference.machine)
        obligations = check_all(reference, model)
        case_split = audit(reference)
        unwinding = (
            check_unwinding(reference, self.observer)
            if self.observer in reference.domains
            else None
        )
        noninterference = sweep_secrets(
            self.build, self.secrets, self.observer, self.max_cycles,
            baseline=reference,
        )
        holds = (
            all(o.passed for o in obligations)
            and case_split.passed
            and (unwinding is None or unwinding.passed)
            and all(r.holds for r in noninterference)
        )
        notes = []
        if not model.conforms_to_aisa():
            notes.append(
                "hardware does not conform to the aISA contract; the paper "
                "predicts the proof cannot go through on such hardware (Sect. 6)"
            )
        return ProofReport(
            theorem=(
                f"no execution of any domain can affect the timing or values "
                f"observable by domain {self.observer!r}"
            ),
            holds=holds,
            model_summary=model.summary(),
            obligations=obligations,
            case_split=case_split,
            unwinding=unwinding,
            noninterference=noninterference,
            notes=notes,
        )


def prove_time_protection(
    build: Callable[[Any], Kernel],
    secrets: Sequence[Any],
    observer: str,
    max_cycles: int,
) -> ProofReport:
    """Convenience wrapper: construct the prover and run it."""
    prover = TimeProtectionProof(
        build=build, secrets=secrets, observer=observer, max_cycles=max_cycles
    )
    return prover.prove()
