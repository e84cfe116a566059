"""Partitioning invariants: the functional properties behind PO-2.

"For partitionable state, temporal isolation becomes a functional
property (namely an invariant about correct partitioning) that can be
verified without any reference to time, meaning existing verification
techniques apply." (Sect. 5)

Three invariant families are checked here:

* **static allocation invariants** -- domain colour sets (and the
  kernel's reserved colour) are pairwise disjoint; kernel images are
  frame-disjoint across domains;
* **dynamic touch invariants** -- replaying the declared touch sets,
  every touch of a partitionable element lies inside the partition the
  toucher is entitled to (user: its domain's colours; kernel-on-behalf:
  domain colours plus the kernel's shared colour; switch path: the union
  of the two adjacent domains plus the kernel's);
* **TLB/ASID isolation** (Sect. 5.3, after Syeda & Klein) -- no TLB touch
  recorded for a domain ever names another domain's ASID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..hardware.state import Evidence, StateCategory
from ..kernel.kernel import Kernel


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough context to act on."""

    invariant: str
    context: str
    element: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.context} on {self.element}: {self.detail}"


def allowed_colours(kernel: Kernel, context: str) -> Optional[Set[int]]:
    """Colour set the instrumentation context may touch; None = anything.

    Context labels: ``"Dom"`` (user), ``"Dom/kernel"`` (trap handling on
    behalf of Dom), ``"@switch:From>To"`` (the switch path).  The one
    entitlement rule: the touch audit here and the case split's
    confinement check (``core.timefn``) both read it.
    """
    if not kernel.tp.cache_colouring:
        return None
    kernel_colours = set(kernel.allocator.kernel_colours)
    if context.startswith("@switch:"):
        pair = context[len("@switch:"):]
        from_name, _, to_name = pair.partition(">")
        allowed = set(kernel_colours)
        for name in (from_name, to_name):
            domain = kernel.domains.get(name)
            if domain is not None:
                allowed |= domain.colours
        return allowed
    name, _, mode = context.partition("/")
    domain = kernel.domains.get(name)
    if domain is None:
        return None
    allowed = set(domain.colours)
    if mode == "kernel":
        allowed |= kernel_colours
    return allowed


def check_colour_disjointness(kernel: Kernel) -> List[Violation]:
    """Static invariant: colour assignments are pairwise disjoint.

    With way partitioning active, the LLC is partitioned by way quotas
    instead, so missing colour disjointness is not a violation.
    """
    violations: List[Violation] = []
    if not kernel.tp.cache_colouring:
        if len(kernel.domains) > 1 and not kernel.tp.way_partitioning:
            violations.append(
                Violation(
                    invariant="colour-disjointness",
                    context="@allocator",
                    element="llc",
                    detail="cache colouring disabled: domains share all colours",
                )
            )
        return violations
    if not kernel.allocator.verify_disjoint():
        violations.append(
            Violation(
                invariant="colour-disjointness",
                context="@allocator",
                element="llc",
                detail=f"overlapping assignments: {kernel.allocator.assignments()}",
            )
        )
    return violations


def check_kernel_image_disjointness(kernel: Kernel) -> List[Violation]:
    """Static invariant: per-domain kernel images share no frames."""
    violations: List[Violation] = []
    if not kernel.tp.kernel_clone:
        if len(kernel.domains) > 1:
            violations.append(
                Violation(
                    invariant="kernel-image-disjointness",
                    context="@clone",
                    element="kernel.master",
                    detail="kernel clone disabled: domains share the kernel image",
                )
            )
        return violations
    if not kernel.clone_manager.images_disjoint():
        violations.append(
            Violation(
                invariant="kernel-image-disjointness",
                context="@clone",
                element="kernel.master",
                detail="cloned kernel images overlap in physical frames",
            )
        )
    return violations


def check_partition_touches(kernel: Kernel) -> List[Violation]:
    """Dynamic invariant: recorded touches respect the colour partitions."""
    violations: List[Violation] = []
    elements_by_name = {
        element.name: element
        for element in kernel.machine.all_state_elements()
    }
    kernel.require_evidence(
        Evidence(touches=frozenset(
            name for name, element in elements_by_name.items()
            if element.category is StateCategory.PARTITIONABLE
        )),
        "check_partition_touches",
    )
    for (context, element_name), indices in sorted(
        kernel.machine.instrumentation.summary.items(),
        key=lambda item: (str(item[0][0]), item[0][1]),
    ):
        if context is None:
            continue
        element = elements_by_name.get(element_name)
        if element is None or element.category is not StateCategory.PARTITIONABLE:
            continue
        allowed = allowed_colours(kernel, context)
        if allowed is None:
            continue
        touched_colours = {element.partition_of_index(index) for index in indices}
        illegal = touched_colours - allowed
        if illegal:
            violations.append(
                Violation(
                    invariant="partition-touches",
                    context=context,
                    element=element_name,
                    detail=(
                        f"touched colours {sorted(illegal)} outside allowed "
                        f"{sorted(allowed)}"
                    ),
                )
            )
    return violations


def check_way_quotas(kernel: Kernel) -> List[Violation]:
    """Dynamic invariant: CAT-style way quotas were never exceeded.

    The cache enforces quotas on every fill and logs any fill that had to
    steal another partition's quota'd line (possible only when the
    configured quotas over-commit the associativity); this check surfaces
    both that log and the final occupancy audit.
    """
    violations: List[Violation] = []
    llc = kernel.machine.llc
    if not llc.way_quota:
        if kernel.tp.way_partitioning:
            violations.append(
                Violation(
                    invariant="way-quotas",
                    context="@kernel",
                    element="llc",
                    detail="way partitioning requested but no quotas installed",
                )
            )
        return violations
    for entry in llc.quota_violations:
        violations.append(
            Violation(
                invariant="way-quotas",
                context="@llc",
                element="llc",
                detail=entry,
            )
        )
    if not llc.quotas_respected():
        violations.append(
            Violation(
                invariant="way-quotas",
                context="@llc",
                element="llc",
                detail="a partition occupies more ways than its quota",
            )
        )
    return violations


def check_tlb_asid_isolation(kernel: Kernel) -> List[Violation]:
    """No domain's execution ever touches another domain's ASID in a TLB."""
    violations: List[Violation] = []
    asid_owner: Dict[int, str] = {}
    for domain in kernel.domains.values():
        for tcb in domain.threads:
            asid_owner[tcb.space.asid] = domain.name
    tlb_names = frozenset(
        element.name
        for element in kernel.machine.all_state_elements()
        if element.name.endswith(".tlb")
    )
    kernel.require_evidence(
        Evidence(touches=tlb_names), "check_tlb_asid_isolation"
    )
    for (context, element_name), indices in kernel.machine.instrumentation.summary.items():
        if element_name not in tlb_names or context is None:
            continue
        if context.startswith("@switch:"):
            continue
        domain_name = context.partition("/")[0]
        if domain_name not in kernel.domains:
            continue
        for index in indices:
            if not isinstance(index, tuple) or len(index) != 2:
                continue
            asid = index[0]
            owner = asid_owner.get(asid)
            if owner is not None and owner != domain_name:
                violations.append(
                    Violation(
                        invariant="tlb-asid-isolation",
                        context=context,
                        element=element_name,
                        detail=f"touched ASID {asid} owned by {owner!r}",
                    )
                )
    return violations
