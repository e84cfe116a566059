"""The abstract microarchitectural model (Sect. 5.1).

"Proving temporal isolation requires formal models of microarchitectural
state, but these can be kept abstract, providing only detail to identify
resources that need to be partitioned (and how such partitioning is
performed), and state that must be reset (and how to reset it)."

The extraction below builds exactly that model from a concrete machine:
the full inventory of state elements, each classified by its *effective*
category -- a nominally flushable element that is concurrently shared
(SMT) or a nominally partitionable cache with a single colour degrade to
UNMANAGED, because the OS then has no mechanism for it.  The model also
names the machine's declared exclusions: the stateless interconnect's
bandwidth, which Sect. 2 of the paper explicitly scopes out.

Everything downstream -- the obligations, the case split, the
noninterference statement -- is phrased against this model, never against
the simulator's latency constants: that is the paper's central insight
made structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..hardware.machine import Machine
from ..hardware.state import Scope, StateCategory, StateElement


@dataclass(frozen=True)
class AbstractElement:
    """One state element as the proof sees it."""

    name: str
    declared_category: StateCategory
    effective_category: StateCategory
    scope: Scope
    concurrently_shared: bool
    n_partitions: int


@dataclass
class AbstractHardwareModel:
    """The paper's microarchitectural model, extracted from a machine."""

    elements: List[AbstractElement]
    declared_exclusions: Tuple[str, ...] = (
        "interconnect-bandwidth (stateless interconnect; Sect. 2 scope exclusion)",
    )

    @classmethod
    def from_machine(cls, machine: Machine) -> "AbstractHardwareModel":
        elements = []
        for element in machine.all_state_elements():
            elements.append(
                AbstractElement(
                    name=element.name,
                    declared_category=element.category,
                    effective_category=element.effective_category(),
                    scope=element.scope,
                    concurrently_shared=element.concurrently_shared,
                    n_partitions=element.n_partitions,
                )
            )
        return cls(elements=elements)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def partitionable(self) -> List[AbstractElement]:
        return [
            e
            for e in self.elements
            if e.effective_category is StateCategory.PARTITIONABLE
        ]

    def flushable(self) -> List[AbstractElement]:
        return [
            e
            for e in self.elements
            if e.effective_category is StateCategory.FLUSHABLE
        ]

    def unmanaged(self) -> List[AbstractElement]:
        return [
            e
            for e in self.elements
            if e.effective_category is StateCategory.UNMANAGED
        ]

    def element(self, name: str) -> AbstractElement:
        for candidate in self.elements:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no element {name!r} in the abstract model")

    def conforms_to_aisa(self) -> bool:
        """The aISA completeness condition: no unmanaged state.

        "In general, micro-architectural timing channels can be prevented
        if all shared hardware can be either partitioned or flushed by
        the OS, with flushing the only option where accesses are
        concurrent." (Sect. 4.1)
        """
        return not self.unmanaged()

    def summary(self) -> Dict[str, List[str]]:
        return {
            "partitionable": [e.name for e in self.partitionable()],
            "flushable": [e.name for e in self.flushable()],
            "unmanaged": [e.name for e in self.unmanaged()],
            "exclusions": list(self.declared_exclusions),
        }
