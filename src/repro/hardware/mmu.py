"""Address spaces, page tables and virtual-to-physical translation.

Each security domain's threads run in address spaces identified by an
ASID.  Page tables live in physical memory frames, so page-table walks on
TLB misses are themselves cached memory accesses -- which is why the TLB
and the walk both appear in the time model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .memory import Frame, PhysicalMemory


class TranslationFault(Exception):
    """Raised when a virtual address has no mapping (a trap, Case 2a)."""

    def __init__(self, asid: int, vaddr: int):
        super().__init__(f"translation fault: asid={asid} vaddr={vaddr:#x}")
        self.asid = asid
        self.vaddr = vaddr


@dataclass
class Mapping:
    """One virtual page -> physical frame mapping."""

    vpage: int
    frame: Frame
    writable: bool = True


class AddressSpace:
    """A page table rooted in a physical frame, tagged by ASID."""

    def __init__(self, asid: int, page_size: int, root_frame: Frame):
        self.asid = asid
        self.page_size = page_size
        self.root_frame = root_frame
        self._mappings: Dict[int, Mapping] = {}
        self.generation = 0  # bumped on every modification (TLB shootdown)

    def map(self, vaddr: int, frame: Frame, writable: bool = True) -> None:
        """Install a mapping for the page containing ``vaddr``."""
        vpage = vaddr // self.page_size
        self._mappings[vpage] = Mapping(vpage=vpage, frame=frame, writable=writable)
        self.generation += 1

    def unmap(self, vaddr: int) -> None:
        vpage = vaddr // self.page_size
        if vpage in self._mappings:
            del self._mappings[vpage]
            self.generation += 1

    def lookup(self, vaddr: int) -> Mapping:
        """Translate; raises :class:`TranslationFault` if unmapped."""
        vpage = vaddr // self.page_size
        mapping = self._mappings.get(vpage)
        if mapping is None:
            raise TranslationFault(self.asid, vaddr)
        return mapping

    def translate(self, vaddr: int) -> int:
        """Physical address for ``vaddr``."""
        mapping = self.lookup(vaddr)
        offset = vaddr % self.page_size
        return mapping.frame.base_paddr(self.page_size) + offset

    def walk_addresses(self, vaddr: int, levels: int = 2) -> List[int]:
        """Physical addresses a hardware page-table walk would read.

        The walk touches one word per level inside the page-table frames;
        these reads go through the data cache, so walk latency depends on
        cache state like any other access.  We model a radix walk rooted
        at ``root_frame`` whose per-level entry offset is derived from the
        virtual page number.
        """
        vpage = vaddr // self.page_size
        addresses = []
        base = self.root_frame.base_paddr(self.page_size)
        for level in range(levels):
            entry_index = (vpage >> (8 * (levels - 1 - level))) & 0xFF
            addresses.append(base + (entry_index * 8) % self.page_size)
        return addresses

    def frames(self) -> List[Frame]:
        """All frames mapped in this address space (plus the root)."""
        result = [self.root_frame]
        result.extend(m.frame for m in self._mappings.values())
        return result


class AddressSpaceManager:
    """Allocates ASIDs and page-table root frames."""

    def __init__(self, memory: PhysicalMemory):
        self._memory = memory
        self._next_asid = 1
        self.spaces: Dict[int, AddressSpace] = {}

    def create(self, colours: Optional[set] = None) -> AddressSpace:
        root = self._memory.alloc_frame(colours)
        space = AddressSpace(
            asid=self._next_asid, page_size=self._memory.page_size, root_frame=root
        )
        self._next_asid += 1
        self.spaces[space.asid] = space
        return space
