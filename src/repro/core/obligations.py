"""The proof obligations of time protection, as executable checks.

Sect. 5.2: "the proofs must show that all resource partitioning and
flushing is applied at all times and not bypassable, and that
domain-switches (flushing) is correctly padded to a constant amount of
time".  Together with the hardware-contract completeness condition of
Sect. 4.1 and the kernel-determinism condition of Case 2a, that yields
seven obligations:

========  =====================================================
PO-1      Complete management: every state element partitionable
          or flushable (aISA conformance).
PO-2      Partitioning invariant: allocations disjoint and every
          recorded touch inside the toucher's partition.
PO-3      Flush applied on every domain switch, and it actually
          resets the state (post-flush fingerprint == reset).
PO-4      Constant-time switch: released - scheduled equals the
          switched-from domain's pad, every time.
PO-5      Padding sufficiency: the flush+work never overran the
          pad target.
PO-6      Interrupt partitioning: no interrupt delivered while a
          non-owner domain runs.
PO-7      Kernel-shared-state determinism: the LLC contents of
          the kernel's reserved colours are identical at every
          switch release (Case 2a's "accessed deterministically
          ... independent of prior Hi activity").
========  =====================================================

An obligation that fails carries counterexamples -- the executable
analogue of a failed proof goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..hardware.state import Evidence
from ..kernel.kernel import Kernel
from .absmodel import AbstractHardwareModel
from .invariants import (
    Violation,
    check_colour_disjointness,
    check_kernel_image_disjointness,
    check_partition_touches,
    check_tlb_asid_isolation,
    check_way_quotas,
)


@dataclass
class ObligationResult:
    """Outcome of checking one proof obligation."""

    obligation_id: str
    title: str
    passed: bool
    violations: List[str] = field(default_factory=list)
    details: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = f"{self.obligation_id} [{status}] {self.title}"
        if self.violations:
            shown = self.violations[:5]
            body = "\n".join(f"    - {v}" for v in shown)
            if len(self.violations) > 5:
                body += f"\n    ... and {len(self.violations) - 5} more"
            return f"{head}\n{body}"
        return head


def po1_complete_management(model: AbstractHardwareModel) -> ObligationResult:
    """PO-1: all microarchitectural state is partitionable or flushable."""
    unmanaged = model.unmanaged()
    return ObligationResult(
        obligation_id="PO-1",
        title="all microarchitectural state partitionable or flushable (aISA)",
        passed=not unmanaged,
        violations=[
            f"{e.name}: declared {e.declared_category.value}, effectively "
            f"unmanaged ("
            + (
                "concurrently shared"
                if e.concurrently_shared and e.scope.value == "core_local"
                else "no mechanism"
            )
            + ")"
            for e in unmanaged
        ],
        details=f"{len(model.elements)} elements inspected",
    )


def po2_partitioning(kernel: Kernel) -> ObligationResult:
    """PO-2: allocations disjoint; every touch within its partition."""
    violations: List[Violation] = []
    violations += check_colour_disjointness(kernel)
    violations += check_kernel_image_disjointness(kernel)
    violations += check_partition_touches(kernel)
    violations += check_way_quotas(kernel)
    violations += check_tlb_asid_isolation(kernel)
    return ObligationResult(
        obligation_id="PO-2",
        title="partitioning invariant holds at all times",
        passed=not violations,
        violations=[str(v) for v in violations],
    )


def po3_flush_on_switch(kernel: Kernel) -> ObligationResult:
    """PO-3: every domain switch flushes all flushables to reset state."""
    kernel.require_evidence(Evidence(switches=True), "PO-3")
    violations: List[str] = []
    records = kernel.switch_records
    if not kernel.tp.flush_on_switch:
        if records:
            violations.append(
                f"flush_on_switch disabled; {len(records)} unflushed domain switches"
            )
    for number, record in enumerate(records):
        expected = {
            element.name
            for element in kernel.machine.flushable_elements_of_core(record.core_id)
        }
        flushed = set(record.flushed_elements)
        missing = expected - flushed
        if missing:
            violations.append(
                f"switch #{number} ({record.from_domain}->{record.to_domain}): "
                f"elements not flushed: {sorted(missing)}"
            )
        for name in sorted(flushed):
            if record.post_flush_fingerprints.get(name) != record.reset_fingerprints.get(name):
                violations.append(
                    f"switch #{number}: flush of {name} did not reach reset state"
                )
    return ObligationResult(
        obligation_id="PO-3",
        title="flush applied on every domain switch and actually resets",
        passed=not violations,
        violations=violations,
        details=f"{len(records)} switches audited",
    )


def po4_constant_time_switch(kernel: Kernel) -> ObligationResult:
    """PO-4: switch latency is a per-domain constant (timestamp compare)."""
    violations: List[str] = []
    records = kernel.switch_records
    if not kernel.tp.pad_switch:
        latencies = {record.switch_latency for record in records}
        if len(latencies) > 1:
            violations.append(
                f"padding disabled; switch latencies vary: "
                f"{sorted(latencies)[:8]}{'...' if len(latencies) > 8 else ''}"
            )
    for number, record in enumerate(records):
        if record.pad_target is None:
            continue
        expected = kernel.domains[record.from_domain].pad_cycles
        actual = record.released_at - record.scheduled_at
        if actual != expected:
            violations.append(
                f"switch #{number} ({record.from_domain}->{record.to_domain}): "
                f"latency {actual} != pad {expected}"
            )
    return ObligationResult(
        obligation_id="PO-4",
        title="domain-switch latency padded to a per-domain constant",
        passed=not violations,
        violations=violations,
        details=f"{len(records)} switches audited",
    )


def po5_padding_sufficient(kernel: Kernel) -> ObligationResult:
    """PO-5: the pad always covered the actual flush+work latency."""
    violations: List[str] = []
    if not kernel.tp.pad_switch:
        violations.append("padding disabled: nothing bounds the switch latency")
    for number, record in enumerate(kernel.switch_records):
        if record.overrun:
            violations.append(
                f"switch #{number} ({record.from_domain}->{record.to_domain}): "
                f"work finished at {record.finished_at} > pad target {record.pad_target}"
            )
    return ObligationResult(
        obligation_id="PO-5",
        title="padding value sufficient (no overruns observed)",
        passed=not violations,
        violations=violations,
        details=(
            f"WCET estimate {kernel.pad_wcet_estimate} cycles; "
            f"{len(kernel.switch_records)} switches audited"
        ),
    )


def po6_interrupt_partitioning(kernel: Kernel) -> ObligationResult:
    """PO-6: interrupts only delivered to their owner domain."""
    violations: List[str] = []
    if not kernel.tp.partition_interrupts and kernel.irq_deliveries:
        violations.append(
            f"interrupt partitioning disabled; "
            f"{len(kernel.irq_deliveries)} unpartitioned deliveries"
        )
    for record in kernel.irq_deliveries:
        if record.owner_domain is None:
            continue
        if record.running_domain != record.owner_domain:
            violations.append(
                f"IRQ {record.line} (owner {record.owner_domain}) delivered at "
                f"{record.delivered_at} while {record.running_domain} was running"
            )
    return ObligationResult(
        obligation_id="PO-6",
        title="interrupts partitioned: non-owner domains never interrupted",
        passed=not violations,
        violations=violations,
        details=f"{len(kernel.irq_deliveries)} deliveries audited",
    )


def po7_kernel_shared_determinism(kernel: Kernel) -> ObligationResult:
    """PO-7: kernel-shared LLC state is the canonical post-sweep state.

    Two conditions, both required (Case 2a of Sect. 5.2):

    * at every switch release the kernel-shared colours hold *only* lines
      of the global kernel data region -- the lines the deterministic
      normalisation sweep itself installs.  Anything else (e.g. master
      kernel-text lines left by a domain's syscalls when cloning is off)
      is history-dependent residue;
    * the snapshot is identical across all switches.
    """
    kernel.require_evidence(Evidence(switches=True), "PO-7")
    violations: List[str] = []
    kernel_colours = sorted(kernel.allocator.kernel_colours)
    records = kernel.switch_records
    if kernel.tp.cache_colouring and not kernel_colours and len(kernel.domains) > 1:
        violations.append("no reserved kernel colour: shared kernel state unpartitioned")
    llc = kernel.machine.llc
    allowed_tags = {llc.geometry.tag(paddr) for paddr in kernel.kernel_data_paddrs}
    reference: Optional[Dict[int, tuple]] = None
    for number, record in enumerate(records):
        snapshot = {
            colour: record.llc_colour_fingerprints.get(colour, ())
            for colour in kernel_colours
        }
        for colour in kernel_colours:
            resident = {
                tag for _set, tags in snapshot[colour] for tag in tags
            }
            foreign = resident - allowed_tags
            if foreign:
                violations.append(
                    f"switch #{number}: kernel colour {colour} holds "
                    f"{len(foreign)} non-sweep lines (history-dependent residue)"
                )
                break
        if reference is None:
            reference = snapshot
            continue
        for colour in kernel_colours:
            if snapshot[colour] != reference[colour]:
                violations.append(
                    f"switch #{number}: kernel colour {colour} LLC state differs "
                    f"from the first switch (history-dependent shared kernel state)"
                )
                break
    return ObligationResult(
        obligation_id="PO-7",
        title="shared kernel state deterministic at every switch release",
        passed=not violations,
        violations=violations,
        details=f"{len(records)} fingerprinted switches, colours {kernel_colours}",
    )


def check_all(kernel: Kernel, model: Optional[AbstractHardwareModel] = None) -> List[ObligationResult]:
    """Discharge every obligation against one (already-run) kernel.

    The run must have declared touch sets for the partitionable elements
    and TLBs (PO-2) and switch snapshots (PO-3, PO-7).
    """
    if model is None:
        model = AbstractHardwareModel.from_machine(kernel.machine)
    return [
        po1_complete_management(model),
        po2_partitioning(kernel),
        po3_flush_on_switch(kernel),
        po4_constant_time_switch(kernel),
        po5_padding_sufficient(kernel),
        po6_interrupt_partitioning(kernel),
        po7_kernel_shared_determinism(kernel),
    ]
