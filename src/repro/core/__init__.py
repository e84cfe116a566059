"""The paper's primary contribution: the provability framework.

Implements Sect. 5 of the paper as executable artefacts: the abstract
microarchitectural model, the opaque time model with dependency-footprint
witnesses, the proof obligations (PO-1..PO-7), the Sect. 5.2 case split,
switch-boundary unwinding conditions, two-run noninterference
experiments, and the assembled top-level proof.
"""

from .absmodel import AbstractElement, AbstractHardwareModel
from .casesplit import CaseResult, CaseSplitAudit, audit
from .invariants import (
    Violation,
    check_colour_disjointness,
    check_kernel_image_disjointness,
    check_partition_touches,
    check_tlb_asid_isolation,
    check_way_quotas,
)
from .noninterference import (
    Divergence,
    NonInterferenceResult,
    compare_finished_runs,
    secret_swap_experiment,
    sweep_secrets,
    trace_divergence,
)
from .obligations import (
    ObligationResult,
    check_all,
    po1_complete_management,
    po2_partitioning,
    po3_flush_on_switch,
    po4_constant_time_switch,
    po5_padding_sufficient,
    po6_interrupt_partitioning,
    po7_kernel_shared_determinism,
)
from .proof import (
    ProofReport,
    STANDING_ASSUMPTIONS,
    TimeProtectionProof,
    prove_time_protection,
)
from .report import format_report, format_report_json, proof_report_to_json
from .timefn import (
    ConfinementReport,
    check_confinement,
    dependency_profile,
)
from .unwinding import UnwindingCheck, check_unwinding, lo_projection

__all__ = [
    "AbstractElement",
    "AbstractHardwareModel",
    "CaseResult",
    "CaseSplitAudit",
    "ConfinementReport",
    "Divergence",
    "NonInterferenceResult",
    "ObligationResult",
    "ProofReport",
    "STANDING_ASSUMPTIONS",
    "TimeProtectionProof",
    "UnwindingCheck",
    "Violation",
    "audit",
    "check_all",
    "check_colour_disjointness",
    "check_confinement",
    "check_kernel_image_disjointness",
    "check_partition_touches",
    "check_tlb_asid_isolation",
    "check_way_quotas",
    "check_unwinding",
    "dependency_profile",
    "format_report",
    "format_report_json",
    "proof_report_to_json",
    "lo_projection",
    "po1_complete_management",
    "po2_partitioning",
    "po3_flush_on_switch",
    "po4_constant_time_switch",
    "po5_padding_sufficient",
    "po6_interrupt_partitioning",
    "po7_kernel_shared_determinism",
    "prove_time_protection",
    "compare_finished_runs",
    "secret_swap_experiment",
    "sweep_secrets",
    "trace_divergence",
]
