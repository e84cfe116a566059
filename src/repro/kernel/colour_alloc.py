"""The colour-aware physical frame allocator.

Partitioning the shared last-level cache "is possible without extra
hardware support by using page colouring" (Sect. 4.1): by handing each
security domain physical frames of disjoint colours, the OS confines each
domain to a disjoint subset of LLC sets.

One colour is reserved for the kernel's small shared region (master image
and global kernel data): user frames never come from it, so user-mode
execution can never touch those LLC sets, and the kernel re-normalises
them deterministically on every domain switch (Sect. 5.2, Case 2a).

With colouring disabled the allocator degenerates to first-fit over all
colours -- domains then overlap arbitrarily in the LLC, which is exactly
the condition the E3 experiment exploits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..hardware.memory import Frame, PhysicalMemory


class ColourExhausted(ValueError):
    """The system cannot boot on this machine under this configuration.

    Raised while the kernel, its domains and its threads are built, when
    no colours, physical frames or LLC ways remain for the request: one
    type for every such failure, so a command can tell a system that
    never booted from one that ran.
    """


class ColourAwareAllocator:
    """Assigns disjoint colour sets to domains and allocates frames."""

    def __init__(self, memory: PhysicalMemory, colouring_enabled: bool):
        self.memory = memory
        self.colouring_enabled = colouring_enabled
        self.n_colours = memory.n_colours
        self.kernel_colours: Set[int] = set()
        self._assigned: Dict[str, Set[int]] = {}
        if colouring_enabled and self.n_colours >= 2:
            self.kernel_colours = {0}

    # ------------------------------------------------------------------
    # Colour assignment
    # ------------------------------------------------------------------

    def available_colours(self) -> List[int]:
        """Colours not yet reserved or assigned, in ascending order."""
        used = set(self.kernel_colours)
        for colours in self._assigned.values():
            used |= colours
        return [c for c in range(self.n_colours) if c not in used]

    def assign_domain_colours(
        self, domain_name: str, n_colours: Optional[int] = None
    ) -> Set[int]:
        """Give ``domain_name`` a disjoint share of the remaining colours.

        With colouring disabled -- or on hardware whose LLC offers fewer
        than two colours, where partitioning is physically impossible --
        every domain receives *all* colours (no partitioning; the proof
        obligations then flag the overlap).  With it enabled, the domain
        gets ``n_colours`` (default: an equal share of what remains, at
        least one).
        """
        if not self.colouring_enabled or self.n_colours < 2:
            colours = set(range(self.n_colours))
            self._assigned[domain_name] = colours
            return colours
        free = self.available_colours()
        if not free:
            raise ColourExhausted(
                f"no colours left for domain {domain_name!r} "
                f"({self.n_colours} total, kernel reserves {self.kernel_colours})"
            )
        if n_colours is None:
            n_colours = max(1, len(free) // 4)
        if n_colours > len(free):
            raise ColourExhausted(
                f"domain {domain_name!r} wants {n_colours} colours, "
                f"only {len(free)} remain"
            )
        colours = set(free[:n_colours])
        self._assigned[domain_name] = colours
        return colours

    def colours_of(self, domain_name: str) -> Set[int]:
        return set(self._assigned.get(domain_name, set()))

    def assignments(self) -> Dict[str, Set[int]]:
        """Copy of the current domain -> colours map (plus the kernel's)."""
        result = {name: set(colours) for name, colours in self._assigned.items()}
        result["@kernel"] = set(self.kernel_colours)
        return result

    def verify_disjoint(self) -> bool:
        """True iff all domain colour sets (and the kernel's) are disjoint.

        This is the static half of the partitioning invariant (PO-2); the
        dynamic half -- that touches stay inside the assigned colours --
        is checked from instrumentation by ``repro.core.invariants``.
        """
        if not self.colouring_enabled or self.n_colours < 2:
            return len(self._assigned) <= 1
        seen: Set[int] = set(self.kernel_colours)
        for colours in self._assigned.values():
            if colours & seen:
                return False
            seen |= colours
        return True

    # ------------------------------------------------------------------
    # Frame allocation
    # ------------------------------------------------------------------

    def alloc_for_domain(self, domain_name: str, count: int) -> List[Frame]:
        """Allocate ``count`` frames from the domain's colours."""
        colours = self._colour_filter(domain_name)
        return self._alloc(count, colours, f"domain {domain_name!r}")

    def alloc_kernel_frames(self, count: int) -> List[Frame]:
        """Frames for the shared kernel region (reserved colour)."""
        colours = self.kernel_colours if self.colouring_enabled else None
        return self._alloc(count, colours or None, "the kernel")

    def _alloc(
        self, count: int, colours: Optional[Set[int]], owner: str
    ) -> List[Frame]:
        """``alloc_frames``, with running out raised as ``ColourExhausted``."""
        try:
            return self.memory.alloc_frames(count, colours)
        except MemoryError as error:
            raise ColourExhausted(
                f"{owner} needs {count} frames: {error}"
            ) from error

    def _colour_filter(self, domain_name: str) -> Optional[Set[int]]:
        if not self.colouring_enabled or self.n_colours < 2:
            return None
        colours = self._assigned.get(domain_name)
        if not colours:
            raise KeyError(f"domain {domain_name!r} has no assigned colours")
        return colours
