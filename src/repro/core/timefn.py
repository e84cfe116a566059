"""The abstract time model: latency as an opaque function of state.

Sect. 5.1: "the time model, which captures how far time advances on each
execution step, is defined as a deterministic yet unspecified function of
the microarchitectural state."  The proof never evaluates this function;
it only needs to know its *argument list* -- which state elements (and
which indices within them) a step's latency reads.

The simulator records exactly that: with footprints declared
(``Evidence.footprints``), every entry of the kernel's case log stores
the ordered list of (element, index, kind) touches its step's latency
computation consulted.
:class:`TimeFunctionWitness` wraps one such footprint and can answer the
question at the heart of Case 1 of the proof (Sect. 5.2): *is every
argument of this step's latency function confined to state the executing
domain is entitled to?*  If yes for every step, the unspecified function
-- whatever it is -- cannot transmit information across the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..hardware.state import Evidence, StateCategory
from ..kernel.kernel import Kernel


@dataclass
class FootprintEntry:
    element: str
    index: object
    kind: str


@dataclass
class TimeFunctionWitness:
    """One step's latency-dependency footprint, classified."""

    case: str  # "1", "2a" or "2b"
    context: str  # domain name or switch tag
    entries: Tuple[FootprintEntry, ...]

    def elements_touched(self) -> Set[str]:
        return {entry.element for entry in self.entries}


@dataclass
class ConfinementReport:
    """Whether every latency argument was confined to entitled state."""

    total_steps: int
    confined_steps: int
    violations: List[str] = field(default_factory=list)

    @property
    def confined(self) -> bool:
        return not self.violations


def witnesses_from_kernel(kernel: Kernel) -> List[TimeFunctionWitness]:
    """Wrap the kernel's captured footprints as witnesses."""
    kernel.require_evidence(
        Evidence(cases=True, footprints=True), "the case split"
    )
    witnesses = []
    for case, context, footprint in kernel.case_log:
        entries = tuple(
            FootprintEntry(element=element, index=index, kind=kind.value)
            for element, index, kind in footprint
        )
        witnesses.append(
            TimeFunctionWitness(case=case, context=context, entries=entries)
        )
    return witnesses


def check_confinement(
    kernel: Kernel, witnesses: Optional[Sequence[TimeFunctionWitness]] = None
) -> ConfinementReport:
    """Case 1/2a argument: latency arguments stay in entitled state.

    For every captured step, each partitionable-element touch must lie in
    a colour the step's context is entitled to (its domain's colours,
    plus the kernel's shared colours for trap handling and switches).
    Flushable-element touches are always entitled: they are core-local
    and reset at every domain boundary, so their state is a function of
    the current domain's own history.
    """
    if witnesses is None:
        witnesses = witnesses_from_kernel(kernel)
    elements = {e.name: e for e in kernel.machine.all_state_elements()}
    kernel_colours = set(kernel.allocator.kernel_colours)
    violations: List[str] = []
    confined = 0
    for number, witness in enumerate(witnesses):
        entitled = _entitled_colours(kernel, witness, kernel_colours)
        step_ok = True
        for entry in witness.entries:
            element = elements.get(entry.element)
            if element is None or element.category is not StateCategory.PARTITIONABLE:
                continue
            if entitled is None:
                continue
            colour = element.partition_of_index(entry.index)
            if colour not in entitled:
                step_ok = False
                violations.append(
                    f"step #{number} (case {witness.case}, {witness.context}): "
                    f"latency depends on {entry.element} colour {colour}, "
                    f"entitled {sorted(entitled)}"
                )
                break
        if step_ok:
            confined += 1
    return ConfinementReport(
        total_steps=len(witnesses),
        confined_steps=confined,
        violations=violations,
    )


def _entitled_colours(
    kernel: Kernel, witness: TimeFunctionWitness, kernel_colours: Set[int]
) -> Optional[Set[int]]:
    if not kernel.tp.cache_colouring:
        return None
    if witness.case == "2b":
        tag = witness.context[len("@switch:"):]
        from_name, _, to_name = tag.partition(">")
        entitled = set(kernel_colours)
        for name in (from_name, to_name):
            domain = kernel.domains.get(name)
            if domain is not None:
                entitled |= domain.colours
        return entitled
    domain = kernel.domains.get(witness.context)
    if domain is None:
        return None
    entitled = set(domain.colours)
    if witness.case == "2a":
        entitled |= kernel_colours
    return entitled


def dependency_profile(
    witnesses: Sequence[TimeFunctionWitness],
) -> Dict[str, Dict[str, int]]:
    """How often each case's latency reads each element (for reports)."""
    profile: Dict[str, Dict[str, int]] = {}
    for witness in witnesses:
        bucket = profile.setdefault(witness.case, {})
        for element in sorted(witness.elements_touched()):
            bucket[element] = bucket.get(element, 0) + 1
    return profile
