"""The abstract time model: latency as an opaque function of state.

Sect. 5.1: "the time model, which captures how far time advances on each
execution step, is defined as a deterministic yet unspecified function of
the microarchitectural state."  The proof never evaluates this function;
it only needs to know its *argument list* -- which state elements (and
which indices within them) a step's latency reads.

The simulator records exactly that: with footprints declared
(``Evidence.footprints``), every entry of the kernel's case log stores
the ordered list of (element, index, kind) touches its step's latency
computation consulted.  :func:`check_confinement` answers the question
at the heart of Case 1 of the proof (Sect. 5.2) from those entries as
they are: *is every argument of this step's latency function confined to
state the executing domain is entitled to?*  If yes for every step, the
unspecified function -- whatever it is -- cannot transmit information
across the partition.  It wraps no step or touch in an object of its
own and works out each (case, context)'s entitlement once, so auditing
a long run costs one pass over its log.  :func:`dependency_profile`
reads the same entries, for reports: how often each case's latency
reads each element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..hardware.state import Evidence, StateCategory
from ..kernel.kernel import Kernel
from .invariants import allowed_colours

#: What the case split reads: the case log with each step's footprint.
CASE_SPLIT_EVIDENCE = Evidence(cases=True, footprints=True)


@dataclass
class ConfinementReport:
    """Whether every latency argument was confined to entitled state."""

    total_steps: int
    confined_steps: int
    violations: List[str] = field(default_factory=list)

    @property
    def confined(self) -> bool:
        return not self.violations


def check_confinement(
    kernel: Kernel, entries: Optional[Sequence[Tuple[str, str, Tuple]]] = None
) -> ConfinementReport:
    """Case 1/2a argument: latency arguments stay in entitled state.

    For every captured step, each partitionable-element touch must lie in
    a colour the step's context is entitled to (its domain's colours,
    plus the kernel's shared colours for trap handling and switches).
    Flushable-element touches are always entitled: they are core-local
    and reset at every domain boundary, so their state is a function of
    the current domain's own history.

    ``entries`` are case-log entries, ``(case, context, footprint)``, read
    as they are (default: the kernel's whole case log); violations number
    the steps by their position in ``entries``.  Entitlement is worked
    out once per ``(case, context)``.
    """
    if entries is None:
        kernel.require_evidence(CASE_SPLIT_EVIDENCE, "the case split")
        entries = kernel.case_log
    partitionable = {
        element.name: element
        for element in kernel.machine.all_state_elements()
        if element.category is StateCategory.PARTITIONABLE
    }
    entitlements: Dict[Tuple[str, str], Optional[Set[int]]] = {}
    violations: List[str] = []
    confined = 0
    for number, (case, context, footprint) in enumerate(entries):
        key = (case, context)
        if key not in entitlements:
            # Trap handling runs in the domain's kernel context.
            entitlements[key] = allowed_colours(
                kernel, f"{context}/kernel" if case == "2a" else context
            )
        entitled = entitlements[key]
        if entitled is None:
            confined += 1
            continue
        for name, index, _kind in footprint:
            element = partitionable.get(name)
            if element is None:
                continue
            colour = element.partition_of_index(index)
            if colour not in entitled:
                violations.append(
                    f"step #{number} (case {case}, {context}): "
                    f"latency depends on {name} colour {colour}, "
                    f"entitled {sorted(entitled)}"
                )
                break
        else:
            confined += 1
    return ConfinementReport(
        total_steps=len(entries),
        confined_steps=confined,
        violations=violations,
    )


def dependency_profile(kernel: Kernel) -> Dict[str, Dict[str, int]]:
    """How many steps of each case read each element (for reports).

    Reads the kernel's case log in place, as :func:`check_confinement`
    does: a step counts once per element its footprint touched.
    """
    kernel.require_evidence(CASE_SPLIT_EVIDENCE, "the dependency profile")
    profile: Dict[str, Dict[str, int]] = {}
    for case, _context, footprint in kernel.case_log:
        bucket = profile.setdefault(case, {})
        for element in sorted({name for name, _index, _kind in footprint}):
            bucket[element] = bucket.get(element, 0) + 1
    return profile
